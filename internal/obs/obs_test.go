package obs

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHistogramBucketGeometry checks the index/edge inverse pair and the
// ~3% relative-error guarantee across the range.
func TestHistogramBucketGeometry(t *testing.T) {
	for _, v := range []int64{0, 1, 31, 32, 33, 63, 64, 100, 1023, 1024, 1e6, 1e9, 1e12, 1<<62 + 12345} {
		idx := bucketIndex(v)
		up := bucketUpper(idx)
		if up < v {
			t.Fatalf("bucketUpper(bucketIndex(%d)) = %d < value", v, up)
		}
		if v >= histSubCount && float64(up-v) > 0.0401*float64(v) {
			t.Fatalf("bucket error for %d: upper %d is %.1f%% off", v, up, 100*float64(up-v)/float64(v))
		}
		if idx > 0 && bucketUpper(idx-1) >= v {
			t.Fatalf("value %d belongs below bucket %d (prev upper %d)", v, idx, bucketUpper(idx-1))
		}
	}
}

func TestHistogramPercentiles(t *testing.T) {
	var h Histogram
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i * 1000) // 1µs … 1ms
	}
	if got := h.Count(); got != 1000 {
		t.Fatalf("Count = %d", got)
	}
	p50 := h.Percentile(0.50)
	if p50 < 450_000 || p50 > 550_000 {
		t.Fatalf("p50 = %dns, want ≈500µs", p50)
	}
	p99 := h.Percentile(0.99)
	if p99 < 950_000 || p99 > 1_000_000 {
		t.Fatalf("p99 = %dns, want ≈990µs", p99)
	}
	if max := h.Max(); max != 1_000_000 {
		t.Fatalf("Max = %d", max)
	}
	if h.Percentile(1.0) > h.Max() {
		t.Fatalf("p100 %d exceeds max %d", h.Percentile(1.0), h.Max())
	}
}

func TestHistogramZeroValue(t *testing.T) {
	var h Histogram
	if h.Percentile(0.99) != 0 || h.Count() != 0 || h.Max() != 0 {
		t.Fatal("zero histogram must report zeros")
	}
	h.Observe(-5) // clamps
	if h.Percentile(0.5) != 0 {
		t.Fatal("negative observation must clamp to 0")
	}
}

// TestRingFIFOAndOverwrite drives the ring past capacity and checks
// flight-recorder semantics: the most recent window survives, in order.
func TestRingFIFOAndOverwrite(t *testing.T) {
	r := newRing(64)
	for i := 0; i < 200; i++ {
		r.put(Event{Counter: uint64(i)})
	}
	evs := r.drain()
	if len(evs) != 64 {
		t.Fatalf("drained %d events, want 64", len(evs))
	}
	for i, ev := range evs {
		if want := uint64(200 - 64 + i); ev.Counter != want {
			t.Fatalf("event %d: counter %d, want %d (oldest dropped first)", i, ev.Counter, want)
		}
	}
	if got := r.dropped.Load(); got != 200-64 {
		t.Fatalf("dropped = %d, want %d", got, 200-64)
	}
	if again := r.drain(); len(again) != 0 {
		t.Fatalf("second drain returned %d events", len(again))
	}
}

// TestRingConcurrent hammers the ring from many producers while a
// consumer drains — the lock-freedom and race-safety test (run with
// -race).
func TestRingConcurrent(t *testing.T) {
	r := newRing(256)
	const producers = 8
	const perProducer = 5000
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				r.put(Event{Counter: uint64(p*perProducer + i), Phase: PhasePublish})
			}
		}(p)
	}
	var consumed int
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			consumed += len(r.drain())
			select {
			case <-stop:
				return
			default:
				time.Sleep(time.Millisecond)
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-done
	total := consumed + len(r.drain()) + int(r.dropped.Load())
	if total != producers*perProducer {
		t.Fatalf("events lost: consumed+dropped = %d, want %d", total, producers*perProducer)
	}
}

func TestRecorderCountersAndSnapshot(t *testing.T) {
	r := NewRecorder(1024)
	base := time.Now().UnixNano()
	r.Emit(Event{Phase: PhaseSlotWait, TS: base, Dur: 1000, Value: 1, Slot: 0})
	r.Emit(Event{Phase: PhaseSlotWait, TS: base, Dur: 10, Value: 0, Slot: 1})
	r.Emit(Event{Phase: PhaseSave, TS: base, Dur: int64(time.Millisecond), Counter: 1, Bytes: 4096})
	r.Emit(Event{Phase: PhasePublish, TS: base, Counter: 1, Bytes: 4096})
	r.Emit(Event{Phase: PhaseObsolete, TS: base, Counter: 2})
	r.Emit(Event{Phase: PhaseCASRetry, TS: base, Counter: 3})
	r.Emit(Event{Phase: PhaseIORetry, TS: base, Dur: 500, Attempt: 1})
	r.Emit(Event{Phase: PhaseFault, TS: base, Attempt: 1})
	r.Emit(Event{Phase: PhaseFaultInjected, TS: base, Value: 0})

	s := r.Snapshot()
	if s.Published != 1 || s.Obsolete != 1 || s.CASRetries != 1 || s.IORetries != 1 {
		t.Fatalf("outcome counters wrong: %+v", s)
	}
	if s.TransientFaults != 1 || s.InjectedFaults != 1 {
		t.Fatalf("fault counters wrong: %+v", s)
	}
	if s.SlotWaits != 1 {
		t.Fatalf("SlotWaits = %d, want 1 (only the Value=1 event counts)", s.SlotWaits)
	}
	if s.BytesWritten != 4096 {
		t.Fatalf("BytesWritten = %d", s.BytesWritten)
	}
	save := s.Phase(PhaseSave)
	if save.Count != 1 || save.P99 < int64ToDur(900_000) {
		t.Fatalf("save phase stats wrong: %+v", save)
	}
	if sw := s.Phase(PhaseSlotWait); sw.Count != 2 {
		t.Fatalf("slot-wait count = %d, want 2 (all saves observed)", sw.Count)
	}
	// Snapshot must not drain the ring.
	if evs := r.TakeEvents(); len(evs) != 9 {
		t.Fatalf("TakeEvents after Snapshot returned %d events, want 9", len(evs))
	}
}

func int64ToDur(ns int64) time.Duration { return time.Duration(ns) }

// TestWriteTrace checks the exported JSON parses and carries the span
// structure Perfetto needs.
func TestWriteTrace(t *testing.T) {
	r := NewRecorder(1024)
	base := time.Now().UnixNano()
	r.Emit(Event{Phase: PhaseSlotWait, TS: base, Dur: 100, Counter: 1, Slot: 0, Writer: -1, Rank: -1})
	r.Emit(Event{Phase: PhaseCopy, TS: base + 100, Dur: 2000, Counter: 1, Slot: 0, Bytes: 1024, Writer: -1, Rank: -1})
	r.Emit(Event{Phase: PhasePersist, TS: base + 2100, Dur: 3000, Counter: 1, Slot: 0, Writer: 1, Bytes: 1024, Rank: -1})
	r.Emit(Event{Phase: PhaseBarrier, TS: base + 5100, Dur: 400, Counter: 1, Slot: 0, Writer: -1, Rank: -1})
	r.Emit(Event{Phase: PhasePublish, TS: base + 5500, Counter: 1, Slot: 0, Bytes: 1024, Writer: -1, Rank: -1})
	r.Emit(Event{Phase: PhaseSave, TS: base, Dur: 5500, Counter: 1, Slot: 0, Bytes: 1024, Writer: -1, Rank: -1})

	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			PID  int     `json:"pid"`
			TID  int64   `json:"tid"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	byName := map[string]string{}
	for _, e := range doc.TraceEvents {
		byName[e.Name] = e.Ph
	}
	for name, wantPh := range map[string]string{
		"save": "X", "slot-wait": "X", "copy": "X", "persist": "X",
		"barrier": "X", "publish": "i",
	} {
		if byName[name] != wantPh {
			t.Fatalf("trace missing %q as ph=%q (got %q); names: %v", name, wantPh, byName[name], byName)
		}
	}
	if _, ok := byName["thread_name"]; !ok {
		t.Fatal("trace missing thread_name metadata")
	}
	// WriteTrace is non-destructive: the events stay buffered for other
	// consumers (dashboard, black-box flusher).
	if evs := r.TakeEvents(); len(evs) != 6 {
		t.Fatalf("WriteTrace consumed events: %d left buffered, want 6", len(evs))
	}
}

func TestMetricsHandler(t *testing.T) {
	r := NewRecorder(256)
	for i := 0; i < 100; i++ {
		r.Emit(Event{Phase: PhaseSave, TS: int64(i), Dur: int64(i+1) * 10_000, Counter: uint64(i)})
		r.Emit(Event{Phase: PhaseSlotWait, TS: int64(i), Dur: int64(i) * 100, Value: 1})
		r.Emit(Event{Phase: PhasePublish, TS: int64(i), Counter: uint64(i), Bytes: 100})
	}
	srv := httptest.NewServer(r.MetricsHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body := readAll(t, resp)
	for _, want := range []string{
		`pccheck_save_seconds{quantile="0.5"}`,
		`pccheck_save_seconds{quantile="0.95"}`,
		`pccheck_save_seconds{quantile="0.99"}`,
		`pccheck_slot_wait_seconds{quantile="0.99"}`,
		"pccheck_published_total 100",
		"pccheck_slot_waits_total 100",
		"pccheck_bytes_written_total 10000",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, body)
		}
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestServe(t *testing.T) {
	r := NewRecorder(256)
	r.Emit(Event{Phase: PhaseSave, Dur: 1000})
	srv, addr, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, path := range []string{"/metrics", "/debug/vars"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body := readAll(t, resp)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		if path == "/debug/vars" && !strings.Contains(body, "pccheck") {
			t.Fatalf("expvar output missing pccheck var:\n%s", body)
		}
	}
}

// TestEmitAllocFree proves the hot path allocates nothing.
func TestEmitAllocFree(t *testing.T) {
	r := NewRecorder(1024)
	ev := Event{Phase: PhasePersist, TS: 1, Dur: 100, Counter: 7, Slot: 1, Writer: 2, Bytes: 4096}
	allocs := testing.AllocsPerRun(1000, func() { r.Emit(ev) })
	if allocs != 0 {
		t.Fatalf("Emit allocates %.1f times per call, want 0", allocs)
	}
}

// TestRecorderConcurrentEmitSnapshot is the recorder-level race test:
// emitters, snapshotters, metrics scrapes and trace drains all at once.
func TestRecorderConcurrentEmitSnapshot(t *testing.T) {
	r := NewRecorder(512)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 20000; i++ {
				r.Emit(Event{
					Phase:   Phase(rng.Intn(int(PhaseCount))),
					TS:      int64(i),
					Dur:     int64(rng.Intn(1000)),
					Counter: uint64(i),
				})
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = r.Snapshot()
				_ = r.TakeEvents()
			}
		}
	}()
	rec := httptest.NewRecorder()
	r.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestSnapshotEventsTwoConsumers is the regression for the old
// drain-on-read API: with SnapshotEvents, two concurrent consumers
// (think dashboard poll + black-box flusher) must both observe a given
// event instead of one stealing it from the other.
func TestSnapshotEventsTwoConsumers(t *testing.T) {
	r := NewRecorder(256)
	marker := Event{Phase: PhasePublish, TS: 42, Counter: 7, Bytes: 512, Slot: -1, Writer: -1, Rank: -1}
	r.Emit(marker)

	sees := func() bool {
		for _, ev := range r.SnapshotEvents() {
			if ev == marker {
				return true
			}
		}
		return false
	}
	var wg sync.WaitGroup
	saw := make([]bool, 2)
	for c := range saw {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			saw[c] = sees()
		}(c)
	}
	wg.Wait()
	for c, ok := range saw {
		if !ok {
			t.Fatalf("consumer %d did not observe the event — snapshot stole it", c)
		}
	}
	// And a destructive drain afterwards still finds it once.
	if evs := r.TakeEvents(); len(evs) != 1 || evs[0] != marker {
		t.Fatalf("TakeEvents after snapshots = %v, want the single marker", evs)
	}
}

// TestSnapshotEventsUnderEmitPressure: snapshots taken while emitters
// overwrite the ring return only intact events, in FIFO order.
func TestSnapshotEventsUnderEmitPressure(t *testing.T) {
	r := NewRecorder(64)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				r.Emit(Event{Phase: PhaseSave, TS: int64(i), Counter: uint64(i)})
			}
		}
	}()
	for i := 0; i < 2000; i++ {
		evs := r.SnapshotEvents()
		for j := 1; j < len(evs); j++ {
			if evs[j].TS < evs[j-1].TS {
				t.Fatalf("snapshot out of order at %d: %d after %d", j, evs[j].TS, evs[j-1].TS)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestSnapshotTail: on a quiescent ring, including one that has wrapped and
// dropped its oldest events, SnapshotTail is the end of SnapshotEvents, and a
// buffer with room for the tail is reused without allocating.
func TestSnapshotTail(t *testing.T) {
	r := NewRecorder(256)
	for i := 0; i < 300; i++ {
		r.Emit(Event{Phase: PhaseSave, TS: int64(i), Counter: uint64(i)})
	}
	all := r.SnapshotEvents()
	if len(all) != 256 {
		t.Fatalf("snapshot holds %d events, want 256", len(all))
	}
	for _, n := range []int{0, 1, 10, 128, 255, 256, 1000} {
		want := all[len(all)-min(n, len(all)):]
		if got := r.SnapshotTail(nil, n); !slices.Equal(got, want) {
			t.Fatalf("SnapshotTail(%d) = %d events from %v, want %d from %v", n, len(got), got[:min(1, len(got))], len(want), want[:min(1, len(want))])
		}
	}
	buf := make([]Event, 0, 128)
	if a := testing.AllocsPerRun(100, func() { buf = r.SnapshotTail(buf, 128) }); a != 0 {
		t.Fatalf("SnapshotTail into a buffer with room allocated %.1f times", a)
	}
	if len(r.TakeEvents()) != 256 {
		t.Fatal("SnapshotTail consumed ring events")
	}
	var nilRec *Recorder
	if got := nilRec.SnapshotTail(buf, 8); len(got) != 0 {
		t.Fatalf("nil recorder tail = %v, want empty", got)
	}
}

// TestSnapshotTailUnderEmitPressure: a tail taken while an emitter laps the
// ring is a contiguous, in-order run of at most n events.
func TestSnapshotTailUnderEmitPressure(t *testing.T) {
	r := NewRecorder(64)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				r.Emit(Event{Phase: PhaseSave, TS: int64(i), Counter: uint64(i)})
			}
		}
	}()
	buf := make([]Event, 0, 16)
	for i := 0; i < 2000; i++ {
		buf = r.SnapshotTail(buf, 16)
		if len(buf) > 16 {
			t.Fatalf("tail of %d events, want at most 16", len(buf))
		}
		for j := 1; j < len(buf); j++ {
			if buf[j].Counter != buf[j-1].Counter+1 {
				t.Fatalf("tail not contiguous at %d: counter %d after %d", j, buf[j].Counter, buf[j-1].Counter)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestEventsEndpoint: /events serves a non-destructive JSON tail.
func TestEventsEndpoint(t *testing.T) {
	r := NewRecorder(256)
	for i := 0; i < 10; i++ {
		r.Emit(Event{Phase: PhasePublish, TS: int64(i), Counter: uint64(i + 1), Bytes: 64})
	}
	srv := httptest.NewServer(r.eventsHandler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "?n=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got []eventJSON
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatalf("events JSON does not parse: %v", err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d events, want the 3-event tail", len(got))
	}
	if got[2].Counter != 10 || got[2].Phase != PhasePublish.String() {
		t.Fatalf("tail end = %+v, want counter 10 publish", got[2])
	}
	if n := len(r.TakeEvents()); n != 10 {
		t.Fatalf("/events consumed ring events: %d left, want 10", n)
	}
}
