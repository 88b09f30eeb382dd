package pccheck

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// TestObservabilityEndToEnd exercises the full public surface: a recorder
// attached via Config.Observer, concurrent Saves through a Loop, the
// Prometheus endpoint, and the Perfetto trace export.
func TestObservabilityEndToEnd(t *testing.T) {
	rec := NewFlightRecorder(0)
	ck, _, err := CreateVolatile(Config{
		MaxBytes:   64 << 10,
		Concurrent: 2,
		Writers:    2,
		ChunkBytes: 16 << 10,
		Observer:   rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	if ck.Observer() != Observer(rec) {
		t.Fatal("Checkpointer.Observer() does not round-trip the configured recorder")
	}

	state := make([]byte, 48<<10)
	loop, err := NewLoop(ck, 2, func() []byte { return state })
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for it := 0; it < 20; it++ {
		loop.Tick(ctx, it)
	}
	if err := loop.Drain(); err != nil {
		t.Fatal(err)
	}

	// Histograms: every phase an SSD-less PMEM save goes through must have
	// fired, and percentiles must be ordered.
	snap := rec.Snapshot()
	if snap.Published == 0 {
		t.Fatalf("no published checkpoints recorded: %+v", snap)
	}
	save := snap.Phase(PhaseSave)
	if save.Count != 10 {
		t.Errorf("save spans = %d, want 10 (20 ticks at interval 2)", save.Count)
	}
	if save.P50 > save.P95 || save.P95 > save.P99 || save.P99 > save.Max {
		t.Errorf("percentiles out of order: p50=%v p95=%v p99=%v max=%v",
			save.P50, save.P95, save.P99, save.Max)
	}
	if snap.Phase(PhaseSnapshot).Count != 10 {
		t.Errorf("snapshot spans = %d, want 10 (Loop instrumentation)", snap.Phase(PhaseSnapshot).Count)
	}
	// The Loop's snapshots are host memory, persisted where they lie: no
	// staging. Each is cut for the two writers: 48 KiB through 16 KiB chunks
	// is four 12 KiB pieces, two per lane.
	if c, w := snap.Phase(PhaseCopy).Count, snap.Phase(PhaseChunkWait).Count; c != 0 || w != 0 {
		t.Errorf("in-memory saves staged: %d copy spans, %d chunk-wait spans", c, w)
	}
	if got := snap.Phase(PhasePersist).Count; got != 40 {
		t.Errorf("persist spans = %d, want 40", got)
	}
	// SaveFrom is the staged path, for memory the engine cannot address.
	if _, err := ck.SaveFrom(ctx, int64(len(state)), func(p []byte, off int64) error {
		copy(p, state[off:])
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := rec.Snapshot().Phase(PhaseCopy).Count; got != 4 {
		t.Errorf("copy spans after one staged save = %d, want 4", got)
	}

	// Metrics endpoint: scrape and check the summary quantiles are present.
	srv, addr, err := ServeMetrics("127.0.0.1:0", rec)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		`pccheck_save_seconds{quantile="0.5"}`,
		`pccheck_save_seconds{quantile="0.95"}`,
		`pccheck_save_seconds{quantile="0.99"}`,
		`pccheck_slot_wait_seconds{quantile="0.99"}`,
		"pccheck_published_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}

	// Trace export: valid JSON, contains the paper-pipeline span names.
	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	seen := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		seen[ev.Name] = true
	}
	for _, want := range []string{"save", "slot-wait", "copy", "persist", "barrier", "publish", "snapshot"} {
		if !seen[want] {
			t.Errorf("trace missing %q events", want)
		}
	}
}

// TestObservabilityDistributed checks the per-rank agree spans emitted by
// SaveConsistent when workers carry observers.
func TestObservabilityDistributed(t *testing.T) {
	const world = 3
	trs := NewLocalTransports(world)
	recs := make([]*Recorder, world)
	workers := make([]*Worker, world)
	for r := 0; r < world; r++ {
		recs[r] = NewFlightRecorder(0)
		ck, _, err := CreateVolatile(Config{MaxBytes: 4 << 10, Observer: recs[r]})
		if err != nil {
			t.Fatal(err)
		}
		defer ck.Close()
		w, err := NewWorker(ck, trs[r])
		if err != nil {
			t.Fatal(err)
		}
		workers[r] = w
	}

	const rounds = 4
	var wg sync.WaitGroup
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			payload := make([]byte, 2<<10)
			for i := 0; i < rounds; i++ {
				if _, err := workers[rank].SaveConsistent(context.Background(), payload); err != nil {
					t.Errorf("rank %d round %d: %v", rank, i, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()

	for r := 0; r < world; r++ {
		agree := recs[r].Snapshot().Phase(PhaseAgree)
		if agree.Count != rounds {
			t.Errorf("rank %d: agree spans = %d, want %d", r, agree.Count, rounds)
		}
		found := false
		for _, ev := range recs[r].TakeEvents() {
			if ev.Phase == PhaseAgree {
				if ev.Rank != int32(r) {
					t.Errorf("agree event carries rank %d, want %d", ev.Rank, r)
				}
				found = true
			}
		}
		if !found {
			t.Errorf("rank %d: no agree events in the ring", r)
		}
	}
}

// TestObserverOffIsFree pins the zero-overhead claim at the public API
// level: a Checkpointer built without an Observer must emit nothing and
// never touch observability state.
func TestObserverOffIsFree(t *testing.T) {
	ck, _, err := CreateVolatile(Config{MaxBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	if ck.Observer() != nil {
		t.Fatal("observer should be nil when not configured")
	}
	if _, err := ck.Save(context.Background(), make([]byte, 1<<10)); err != nil {
		t.Fatal(err)
	}
}
