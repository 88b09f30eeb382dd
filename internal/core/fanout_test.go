package core

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// pieceFunc is a func as a cut pass's body.
type pieceFunc func(w int, lo, hi int64) (uint32, error)

func (p pieceFunc) piece(w int, lo, hi int64) (uint32, error) { return p(w, lo, hi) }

// goid is the calling goroutine's id, read off its stack header.
func goid() string {
	buf := make([]byte, 64)
	return string(bytes.Fields(buf[:runtime.Stack(buf, false)])[1])
}

// TestFanout holds a cut pass to its contract on 1–4 lanes, over piece counts
// that are not multiples of p: the joined CRC is the range's, the first error
// wins and no lane starts a piece once it has seen the pass fail, one lane
// runs on the caller alone, and a warmed pass allocates nothing.
func TestFanout(t *testing.T) {
	data := payload(7, 100_003)
	size := int64(len(data))
	for p := 1; p <= 4; p++ {
		for _, k := range []int64{1, 5, 7, 13} {
			t.Run(fmt.Sprintf("p=%d/k=%d", p, k), func(t *testing.T) {
				cut := pieceCut{size: size, unit: 1, k: k, base: size / k, extra: size % k}
				var f fanout
				var body func(w int, lo, hi int64) (uint32, error)
				work := pieceFunc(func(w int, lo, hi int64) (uint32, error) { return body(w, lo, hi) })

				// The joined CRC, and where each lane ran.
				lanes := min(int64(p), k)
				var where [4]atomic.Value
				body = func(w int, lo, hi int64) (uint32, error) {
					where[w].Store(goid())
					return crc32.ChecksumIEEE(data[lo:hi]), nil
				}
				if err := f.run(cut, p, work); err != nil {
					t.Fatal(err)
				}
				if got, want := f.crc(k), crc32.ChecksumIEEE(data); got != want {
					t.Fatalf("joined CRC %08x, want %08x", got, want)
				}
				if got := where[0].Load(); got != goid() {
					t.Fatalf("lane 0 ran on goroutine %v, not the caller's %s", got, goid())
				}
				for w := int64(1); w < lanes; w++ {
					if where[w].Load() == goid() {
						t.Fatalf("lane %d ran on the caller", w)
					}
				}

				// Piece 0 fails first. Every other lane's piece waits until it
				// sees the pass failed, then fails too: those errors are later
				// and must lose, and no lane may start another piece.
				errFirst, errLate := errors.New("first"), errors.New("late")
				var started, sawFailed [4]atomic.Int64
				body = func(w int, lo, hi int64) (uint32, error) {
					if sawFailed[w].Load() > 0 {
						t.Errorf("lane %d started piece [%d,%d) after it saw the pass fail", w, lo, hi)
					}
					started[w].Add(1)
					if lo == 0 {
						sawFailed[w].Store(1)
						return 0, errFirst
					}
					for deadline := time.Now().Add(5 * time.Second); !f.failed.Load(); runtime.Gosched() {
						if time.Now().After(deadline) {
							t.Errorf("lane %d: the pass never failed", w)
							return 0, nil
						}
					}
					sawFailed[w].Store(1)
					return 0, errLate
				}
				if err := f.run(cut, p, work); err != errFirst {
					t.Fatalf("pass failed with %v, want the first error", err)
				}
				for w := range lanes {
					if n := started[w].Load(); n != 1 {
						t.Errorf("lane %d started %d pieces, want 1", w, n)
					}
				}

				// Warmed: the lanes and piece slots are built.
				body = func(w int, lo, hi int64) (uint32, error) { return 0, nil }
				if allocs := testing.AllocsPerRun(20, func() { _ = f.run(cut, p, work) }); allocs != 0 {
					t.Errorf("a pass on %d lanes makes %.1f allocations, want 0", p, allocs)
				}
			})
		}
	}
}
