//go:build !race

package simd

func raceRead([]byte) {}

func raceWrite([]byte) {}
