package blackbox

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"pccheck/internal/obs"
	"pccheck/internal/storage"
)

// Defaults for Config zero values.
const (
	DefaultFlushEvery = 250 * time.Millisecond
	DefaultEventTail  = 128
)

// Config sizes and paces the black box. The zero value disables it
// (Bytes == 0); any positive Bytes enables the region.
type Config struct {
	// Bytes is the region size budget carved out of the checkpoint
	// device at format time. 0 disables the black box entirely.
	Bytes int64
	// FrameBytes is the per-frame slot size, rounded up to a whole
	// number of 512-byte sectors (0 selects 8 KiB). Larger frames hold a
	// longer event tail per flush; smaller frames retain more flushes.
	FrameBytes int64
	// FlushEvery is the background flush cadence and therefore the
	// worst-case telemetry tail lost to a crash. 0 selects
	// DefaultFlushEvery; negative disables the background flusher so
	// only explicit Flush calls write frames (deterministic tests, crash
	// exploration).
	FlushEvery time.Duration
	// EventTail bounds the flight-ring events captured per frame
	// (newest kept; 0 selects DefaultEventTail).
	EventTail int
	// RetryAttempts bounds transient-I/O retries per flush, mirroring
	// the persist path's error-classified retry (0 selects 3).
	RetryAttempts int
	// RetryBase is the first retry's backoff; it doubles per attempt up
	// to RetryMax (0 selects 1ms base, 50ms cap).
	RetryBase time.Duration
	// RetryMax caps the backoff growth.
	RetryMax time.Duration
}

// Enabled reports whether this configuration reserves a region.
func (c Config) Enabled() bool { return c.Bytes > 0 }

// Layout resolves the configured geometry.
func (c Config) Layout() Layout { return LayoutFor(c.Bytes, c.FrameBytes) }

func (c Config) withDefaults() Config {
	if c.FlushEvery == 0 {
		c.FlushEvery = DefaultFlushEvery
	}
	if c.EventTail <= 0 {
		c.EventTail = DefaultEventTail
	}
	if c.RetryAttempts <= 0 {
		c.RetryAttempts = 3
	}
	if c.RetryBase <= 0 {
		c.RetryBase = time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 50 * time.Millisecond
	}
	return c
}

// Flusher periodically snapshots the observer chain — flight ring and
// goodput ledger — into black-box frames. It never sits
// on the Emit hot path: sources are read with non-destructive snapshots
// from a dedicated goroutine (or explicit Flush calls), so an attached
// flusher adds zero allocations and zero synchronization to emitters.
type Flusher struct {
	cfg Config
	j   *Journal

	rec  *obs.Recorder
	led  *obs.Ledger
	tail []obs.Event // the flight-ring tail of the frame being flushed; under mu

	mu     sync.Mutex // serializes Flush with itself and Stop
	stop   chan struct{}
	done   chan struct{}
	closed bool

	flushes     atomic.Uint64
	flushErrors atomic.Uint64
	bytesOut    atomic.Uint64
	eventsSnap  atomic.Uint64
	lastSeq     atomic.Uint64
}

// NewFlusher builds a flusher over an opened journal, pulling sources
// from the observer chain: the first *obs.Recorder (required — without a
// flight ring there is nothing to record), plus the first *obs.Ledger
// when present. Call Start to begin background
// flushing, or Flush directly for explicit control.
func NewFlusher(j *Journal, chain obs.Observer, cfg Config) (*Flusher, error) {
	rec := obs.Find[*obs.Recorder](chain)
	if rec == nil {
		return nil, fmt.Errorf("blackbox: observer chain has no flight recorder")
	}
	cfg = cfg.withDefaults()
	f := &Flusher{
		cfg:  cfg,
		j:    j,
		rec:  rec,
		led:  obs.Find[*obs.Ledger](chain),
		tail: make([]obs.Event, 0, cfg.EventTail),
	}
	f.lastSeq.Store(j.LastSeq())
	return f, nil
}

// Start launches the background flush loop at the configured cadence.
// It is a no-op when FlushEvery is negative (manual mode) or the flusher
// was already started or stopped.
func (f *Flusher) Start() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.cfg.FlushEvery < 0 || f.stop != nil || f.closed {
		return
	}
	f.stop = make(chan struct{})
	f.done = make(chan struct{})
	go f.loop(f.stop, f.done)
}

func (f *Flusher) loop(stop, done chan struct{}) {
	defer close(done)
	tick := time.NewTicker(f.cfg.FlushEvery)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			f.Flush() //nolint:errcheck // counted in flushErrors; next tick retries
		}
	}
}

// Stop halts the background loop (if running) and writes one final
// frame, so the tail present at clean shutdown is durable. Safe to call
// more than once.
func (f *Flusher) Stop() {
	f.mu.Lock()
	stop, done := f.stop, f.done
	f.stop, f.done = nil, nil
	alreadyClosed := f.closed
	f.closed = true
	f.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	if !alreadyClosed {
		f.Flush() //nolint:errcheck // best-effort final frame, serialized with Flush
	}
}

// Flush snapshots the sources and appends one frame, returning the
// sequence number written. Concurrent calls serialize.
func (f *Flusher) Flush() (uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	frame := Frame{TS: time.Now().UnixNano()}

	// Copy only the tail a frame keeps: the ring is never drained.
	f.tail = f.rec.SnapshotTail(f.tail, f.cfg.EventTail)
	frame.Events = f.tail
	f.eventsSnap.Add(uint64(len(f.tail)))

	if f.led != nil {
		if data, err := json.Marshal(f.led.Report()); err == nil {
			frame.Report = data
		}
	}

	var seq uint64
	err := f.retryIO(func() error {
		var err error
		seq, err = f.j.Append(frame)
		return err
	})
	if err != nil {
		f.flushErrors.Add(1)
		return 0, err
	}
	f.flushes.Add(1)
	f.bytesOut.Add(uint64(f.j.Layout().FrameBytes))
	f.lastSeq.Store(seq)
	return seq, nil
}

// retryIO mirrors the persist path's error-classified retry: transient
// storage errors are retried with exponential backoff up to the attempt
// budget; permanent and corrupt errors fail immediately.
func (f *Flusher) retryIO(op func() error) error {
	backoff := f.cfg.RetryBase
	var err error
	for attempt := 1; attempt <= f.cfg.RetryAttempts; attempt++ {
		if err = op(); err == nil {
			return nil
		}
		if storage.Classify(err) != storage.ClassTransient || attempt == f.cfg.RetryAttempts {
			return err
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > f.cfg.RetryMax {
			backoff = f.cfg.RetryMax
		}
	}
	return err
}

// LastSeq is the newest frame sequence number durably written (0 before
// the first flush on a fresh region).
func (f *Flusher) LastSeq() uint64 { return f.lastSeq.Load() }

// WriteMetrics implements obs.MetricsWriter with the pccheck_blackbox_*
// families.
func (f *Flusher) WriteMetrics(w io.Writer) {
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("pccheck_blackbox_flushes_total", "Black-box telemetry frames durably written.", f.flushes.Load())
	counter("pccheck_blackbox_flush_errors_total", "Black-box flushes that failed after retries.", f.flushErrors.Load())
	counter("pccheck_blackbox_flushed_bytes_total", "Bytes written to the black-box region.", f.bytesOut.Load())
	counter("pccheck_blackbox_events_snapshotted_total", "Flight-ring events captured into black-box frames (snapshots overlap).", f.eventsSnap.Load())
	fmt.Fprintf(w, "# HELP pccheck_blackbox_last_seq Sequence number of the newest durable black-box frame.\n")
	fmt.Fprintf(w, "# TYPE pccheck_blackbox_last_seq gauge\npccheck_blackbox_last_seq %d\n", f.lastSeq.Load())
}
