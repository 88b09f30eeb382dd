//go:build race

package simd

import (
	"runtime"
	"unsafe"
)

// The race detector sees only what compiled Go code touches, so the kernels
// report their ranges themselves: a caller that changes a payload while a
// writer folds or streams it is then reported as a race, as it is under
// copy.

func raceRead(p []byte) { runtime.RaceReadRange(unsafe.Pointer(unsafe.SliceData(p)), len(p)) }

func raceWrite(p []byte) { runtime.RaceWriteRange(unsafe.Pointer(unsafe.SliceData(p)), len(p)) }
