package pccheck

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
)

func bbObserverChain() Observer {
	return NewLedger(LedgerConfig{SlowdownBudget: 1.05}, NewFlightRecorder(1<<10))
}

var bbCfg = BlackBoxConfig{
	Bytes:      64 << 10,
	FrameBytes: 4096,
	FlushEvery: -1, // explicit flushes: deterministic tests
}

// TestBlackBoxPublicAPI exercises the whole public surface: Create with
// BlackBox on, explicit flush, and PostMortemFile on the restart path.
func TestBlackBoxPublicAPI(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.pcc")
	payload := make([]byte, 4<<10)
	ck, err := Create(path, Config{
		MaxBytes: int64(len(payload)), Concurrent: 2, Writers: 2,
		Observer: bbObserverChain(), BlackBox: bbCfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := ck.Save(ctx, payload); err != nil {
			t.Fatal(err)
		}
	}
	if seq, err := ck.FlushBlackBox(); err != nil || seq != 1 {
		t.Fatalf("FlushBlackBox = (%d, %v), want (1, nil)", seq, err)
	}
	// Live-process view.
	if pm, err := ck.PostMortem(); err != nil || pm.LastSeq() != 1 {
		t.Fatalf("live PostMortem = (%+v, %v)", pm, err)
	}
	if err := ck.Close(); err != nil { // Close writes one final frame
		t.Fatal(err)
	}

	pm, err := PostMortemFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if pm.LastSeq() < 2 {
		t.Fatalf("post-mortem last seq = %d, want >= 2 (flush + final)", pm.LastSeq())
	}
	if len(pm.Events()) == 0 {
		t.Fatal("post mortem has no events")
	}
	rep, ok := pm.LastReport()
	if !ok {
		t.Fatal("post mortem has no goodput report")
	}
	if rep.LastPublishedCounter != 3 {
		t.Fatalf("final report's last published counter = %d, want 3", rep.LastPublishedCounter)
	}
}

// TestPostMortemFileWithoutBlackBox: files created before the black box
// existed (or with it disabled) answer ErrNoBlackBox, not a decode error.
func TestPostMortemFileWithoutBlackBox(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plain.pcc")
	ck, err := Create(path, Config{MaxBytes: 1024, Concurrent: 1, Writers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ck.Save(context.Background(), make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := RecoverFile(path); err != nil {
		t.Fatalf("plain file must still recover: %v", err)
	}
	if _, err := PostMortemFile(path); !errors.Is(err, ErrNoBlackBox) {
		t.Fatalf("PostMortemFile = %v, want ErrNoBlackBox", err)
	}
}

// TestLoopTickAllocParity is the Loop half of the alloc-parity table: a
// non-checkpointing Tick (the per-iteration fast path the training loop
// pays on every single step) must allocate nothing, with observability
// off, with the full observer chain, and with a black box attached.
func TestLoopTickAllocParity(t *testing.T) {
	payload := make([]byte, 1024)
	mk := func(o Observer, bb BlackBoxConfig) *Loop {
		ck, _, err := CreateVolatile(Config{
			MaxBytes: int64(len(payload)), Concurrent: 1, Writers: 1,
			Observer: o, BlackBox: bb,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ck.Close() })
		// Huge interval: every measured Tick takes the non-checkpointing
		// path. The snapshot+Save path is covered by the Save parity test.
		loop, err := NewLoop(ck, 1<<30, func() []byte { return payload })
		if err != nil {
			t.Fatal(err)
		}
		return loop
	}
	ctx := context.Background()
	measure := func(l *Loop) float64 {
		it := 0
		return testing.AllocsPerRun(200, func() {
			l.Tick(ctx, it)
			it++
		})
	}

	baseline := measure(mk(nil, BlackBoxConfig{}))
	cases := []struct {
		name string
		o    Observer
		bb   BlackBoxConfig
	}{
		{"recorder", NewFlightRecorder(1 << 10), BlackBoxConfig{}},
		{"recorder+ledger", bbObserverChain(), BlackBoxConfig{}},
		{"recorder+ledger+blackbox", bbObserverChain(), bbCfg},
	}
	for _, tc := range cases {
		if got := measure(mk(tc.o, tc.bb)); got > baseline {
			t.Errorf("%s: Tick allocates %.2f/iter vs %.2f baseline", tc.name, got, baseline)
		}
	}
}
