package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"pccheck/internal/core"
	"pccheck/internal/obs"
	"pccheck/internal/storage"
)

// Tracing lives entirely in the benchmark: the engine is observed from
// outside, at its public boundaries (storage.Device below it, core.Source
// and Checkpoint/Recover above it). Spans stay in memory during the run and
// are written when it ends.

type spanKind uint8

const (
	spanSave spanKind = iota // one Checkpoint call
	spanRecover
	spanSource // one Source.ReadInto
	spanWrite  // Device.WriteAt
	spanRead
	spanSync
	spanPersist
)

var spanNames = [...]string{"core.Checkpoint", "core.Recover", "source.ReadInto", "WriteAt", "ReadAt", "Sync", "Persist"}

// span is one traced interval. Start/End are nanoseconds since the tracer
// started. Save is the save the span belongs to (-1 unknown); Parent is
// resolved by attribute() once the run is over.
type span struct {
	Kind       spanKind
	Tier       uint8
	Start, End int64
	Save       int64
	Parent     int32
	Off, N     int64
	Tag        uint64 // first 8 bytes of a small write: the checkpoint counter in headers and pointer records
	Counter    uint64 // spanSave: the counter Checkpoint returned
}

type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<18)}
}

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	s.Parent = -1
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// tracedDevice wraps one leaf storage.Device. Size, Kind and Close forward
// through the embedded interface, so the engine sees the same device.
type tracedDevice struct {
	storage.Device
	tr   *tracer
	tier uint8
}

func (d *tracedDevice) record(kind spanKind, start int64, p []byte, off, n int64) {
	s := span{Kind: kind, Tier: d.tier, Start: start, End: d.tr.now(), Save: -1, Off: off, N: n}
	if kind != spanRead && len(p) >= 8 && len(p) <= 64 {
		s.Tag = binary.LittleEndian.Uint64(p)
	}
	d.tr.add(s)
}

func (d *tracedDevice) WriteAt(p []byte, off int64) error {
	t := d.tr.now()
	err := d.Device.WriteAt(p, off)
	d.record(spanWrite, t, p, off, int64(len(p)))
	return err
}

func (d *tracedDevice) ReadAt(p []byte, off int64) error {
	t := d.tr.now()
	err := d.Device.ReadAt(p, off)
	d.record(spanRead, t, p, off, int64(len(p)))
	return err
}

func (d *tracedDevice) Sync(off, n int64) error {
	t := d.tr.now()
	err := d.Device.Sync(off, n)
	d.record(spanSync, t, nil, off, n)
	return err
}

func (d *tracedDevice) Persist(p []byte, off int64) error {
	t := d.tr.now()
	err := d.Device.Persist(p, off)
	d.record(spanPersist, t, p, off, int64(len(p)))
	return err
}

// wrap returns dev itself on the untraced pass, so both passes share
// construction.
func (rc *runCtx) wrap(dev storage.Device, tier uint8) storage.Device {
	if rc.tr == nil {
		return dev
	}
	return &tracedDevice{Device: dev, tr: rc.tr, tier: tier}
}

type tracedSource struct {
	core.Source
	tr   *tracer
	save int64
}

func (s *tracedSource) ReadInto(p []byte, off int64) error {
	t := s.tr.now()
	err := s.Source.ReadInto(p, off)
	s.tr.add(span{Kind: spanSource, Start: t, End: s.tr.now(), Save: s.save, Off: off, N: int64(len(p))})
	return err
}

func (rc *runCtx) source(buf []byte, save int64) core.Source {
	if rc.tr == nil {
		return core.BytesSource(buf)
	}
	return &tracedSource{Source: core.BytesSource(buf), tr: rc.tr, save: save}
}

// checkpoint is the one place the harness calls the engine's save entry
// point: it times the call and, when tracing, records the save span.
func (rc *runCtx) checkpoint(eng *core.Checkpointer, buf []byte, save int64) (counter uint64, d time.Duration, err error) {
	s := rc.tr.now()
	t := time.Now()
	counter, err = eng.Checkpoint(bg, rc.source(buf, save))
	d = time.Since(t)
	rc.tr.add(span{Kind: spanSave, Start: s, End: rc.tr.now(), Save: save, N: int64(len(buf)), Counter: counter})
	return counter, d, err
}

// tracedPhases are the flight-recorder phases reported per layer. The
// recorder is the engine's own public instrument; the benchmark only reads
// its Snapshot.
var tracedPhases = []struct {
	name  string
	phase obs.Phase
}{
	{"slot_wait", obs.PhaseSlotWait}, {"chunk_wait", obs.PhaseChunkWait},
	{"copy", obs.PhaseCopy}, {"persist", obs.PhasePersist},
	{"sync", obs.PhaseSync}, {"header", obs.PhaseHeader},
	{"barrier", obs.PhaseBarrier}, {"delta_encode", obs.PhaseDeltaEncode},
}

func phaseMetrics(m map[string]float64, rec *obs.Recorder) {
	if rec == nil {
		return
	}
	snap := rec.Snapshot()
	for _, ph := range tracedPhases {
		m["core.phase."+ph.name+"_p50_ms"] = ms(snap.Phase(ph.phase).P50)
	}
	m["obs.dropped_events"] = float64(snap.DroppedEvents)
}

// ---------------------------------------------------------------------------
// Attribution and per-layer numbers

// layout recovers the device geometry from the engine's public sizing
// functions, so device offsets can be mapped to slots without reaching
// into core.
type layout struct{ base, stride int64 }

func layoutFor(slotBytes int64) layout {
	stride := core.DeviceBytes(1, slotBytes) - core.DeviceBytes(0, slotBytes)
	return layout{base: core.DeviceBytes(0, slotBytes) - stride, stride: stride}
}

// slotOf maps a device offset to (slot, isHeaderStart); slot -1 is the
// engine header (superblock and pointer records).
func (l layout) slotOf(off int64) (int, bool) {
	if off < l.base {
		return -1, false
	}
	return int((off - l.base) / l.stride), (off-l.base)%l.stride == 0
}

// attribute gives every device and source span the save it served. Header
// and pointer-record writes carry the checkpoint counter in their first
// bytes; payload writes and syncs belong to the save whose header is written
// next on the same slot; source reads carry their save's id; device reads
// belong to the enclosing Recover.
func attribute(spans []span, lay layout, slots int) {
	byCounter := map[uint64]int32{}
	bySave := map[int64]int32{}
	var recovers []int32
	for i := range spans {
		switch spans[i].Kind {
		case spanSave:
			bySave[spans[i].Save] = int32(i)
			if spans[i].Counter != 0 {
				byCounter[spans[i].Counter] = int32(i)
			}
		case spanRecover:
			recovers = append(recovers, int32(i))
		}
	}
	type hdr struct {
		at     int64
		parent int32
	}
	headers := map[[2]int][]hdr{} // (tier, slot) → header writes in time order
	order := make([]int, 0, len(spans))
	for i := range spans {
		if spans[i].Kind >= spanWrite {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool { return spans[order[a]].Start < spans[order[b]].Start })
	for _, i := range order {
		s := &spans[i]
		if s.Kind == spanRead || s.Tag == 0 {
			continue
		}
		slot, head := lay.slotOf(s.Off)
		if slot >= slots || (slot >= 0 && !head) {
			continue // black-box region, or a small payload tail
		}
		if p, ok := byCounter[s.Tag]; ok {
			s.Parent, s.Save = p, spans[p].Save
			if slot >= 0 {
				k := [2]int{int(s.Tier), slot}
				headers[k] = append(headers[k], hdr{s.Start, p})
			}
		}
	}
	for _, i := range order {
		s := &spans[i]
		if s.Parent >= 0 {
			continue
		}
		if s.Kind == spanRead {
			for _, r := range recovers {
				if s.Start >= spans[r].Start && s.End <= spans[r].End {
					s.Parent = r
					break
				}
			}
			continue
		}
		slot, _ := lay.slotOf(s.Off)
		if slot < 0 || slot >= slots {
			continue
		}
		hs := headers[[2]int{int(s.Tier), slot}]
		if j := sort.Search(len(hs), func(j int) bool { return hs[j].at >= s.Start }); j < len(hs) {
			s.Parent, s.Save = hs[j].parent, spans[hs[j].parent].Save
		}
	}
	for i := range spans {
		if spans[i].Kind == spanSource {
			if p, ok := bySave[spans[i].Save]; ok {
				spans[i].Parent = p
			}
		}
	}
}

// unionWithin is how much of [lo,hi) the given intervals cover.
func unionWithin(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, end int64 = 0, lo
	for _, x := range iv {
		a, b := x[0], x[1]
		if a < end {
			a = end
		}
		if b > hi {
			b = hi
		}
		if b > a {
			total += b - a
			end = b
		}
	}
	return total
}

// layerMetrics attributes the spans and turns those of the timed phase
// [from,to) into the per-layer rows; reads are counted under the cold
// recoveries that started after from. slotBytes and slots are the engine's
// geometry.
func layerMetrics(m map[string]float64, spans []span, slotBytes int64, slots int, from, to int64) {
	attribute(spans, layoutFor(slotBytes), slots)
	children := map[int32][][2]int64{}
	type srcAgg struct{ busy, gap, last int64 }
	src := map[int32]*srcAgg{}
	type devAgg struct {
		calls        [7]float64
		busy         [7]int64
		writeBytes   int64
		readBytes    int64
		events       [][2]int64 // (time, +1/-1) for in-flight writes
		attributedNS int64
		totalNS      int64
	}
	var dev [2]devAgg
	var saves []int32
	var srcReads, recovered float64
	in := func(s *span) bool { return s.Start >= from && s.Start < to }
	for i := range spans {
		s := &spans[i]
		switch {
		case s.Kind == spanSave && in(s):
			saves = append(saves, int32(i))
		case s.Kind == spanRecover && s.Start >= from:
			recovered += float64(s.N)
		case s.Kind == spanSource && s.Parent >= 0 && in(s):
			srcReads++
			a := src[s.Parent]
			if a == nil {
				a = &srcAgg{last: s.Start}
				src[s.Parent] = a
			}
			a.busy += s.End - s.Start
			a.gap += s.Start - a.last
			a.last = s.End
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		case s.Kind >= spanWrite && s.Tier < 2:
			d := &dev[s.Tier]
			if s.Kind == spanRead {
				if s.Parent >= 0 && spans[s.Parent].Start >= from {
					d.readBytes += s.N
				}
				continue
			}
			if !in(s) {
				continue
			}
			d.calls[s.Kind]++
			d.busy[s.Kind] += s.End - s.Start
			d.totalNS += s.End - s.Start
			if s.Kind != spanSync {
				d.writeBytes += s.N
				d.events = append(d.events, [2]int64{s.Start, 1}, [2]int64{s.End, -1})
			}
			if s.Parent >= 0 {
				d.attributedNS += s.End - s.Start
				if s.Tier == 0 {
					children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
				}
			}
		}
	}
	n := float64(len(saves))
	var durMS, selfMS, copyMS, gapMS []float64
	var payloadBytes float64
	for _, i := range saves {
		s := &spans[i]
		payloadBytes += float64(s.N)
		covered := unionWithin(children[i], s.Start, s.End)
		durMS = append(durMS, float64(s.End-s.Start)/1e6)
		selfMS = append(selfMS, float64(s.End-s.Start-covered)/1e6)
		if a := src[i]; a != nil {
			copyMS = append(copyMS, float64(a.busy)/1e6)
			gapMS = append(gapMS, float64(a.gap)/1e6)
		}
	}
	m["core.save_ms_p50"] = median(durMS)
	m["core.save_self_ms"] = median(selfMS)
	m["core.source_copy_ms"] = median(copyMS)
	m["core.producer_gap_ms"] = median(gapMS)
	m["core.source_reads_per_save"] = ratio(srcReads, n)
	var attributed, total int64
	for t, name := range []string{"tier0", "tier1"} {
		d := &dev[t]
		p := "storage." + name + "."
		m[p+"write_calls_per_save"] = ratio(d.calls[spanWrite], n)
		m[p+"write_bytes_per_payload_byte"] = ratio(float64(d.writeBytes), payloadBytes)
		m[p+"write_busy_ms_per_save"] = ratio(float64(d.busy[spanWrite])/1e6, n)
		m[p+"sync_calls_per_save"] = ratio(d.calls[spanSync], n)
		m[p+"sync_busy_ms_per_save"] = ratio(float64(d.busy[spanSync])/1e6, n)
		m[p+"persist_calls_per_save"] = ratio(d.calls[spanPersist], n)
		m[p+"persist_busy_ms_per_save"] = ratio(float64(d.busy[spanPersist])/1e6, n)
		m[p+"read_bytes_per_recovered_byte"] = ratio(float64(d.readBytes), recovered)
		sort.Slice(d.events, func(a, b int) bool {
			if d.events[a][0] != d.events[b][0] {
				return d.events[a][0] < d.events[b][0]
			}
			return d.events[a][1] < d.events[b][1]
		})
		var cur, peak int64
		for _, e := range d.events {
			if cur += e[1]; cur > peak {
				peak = cur
			}
		}
		m[p+"max_inflight_writes"] = float64(peak)
		attributed += d.attributedNS
		total += d.totalNS
	}
	m["bench.trace_attributed_frac"] = ratio(float64(attributed), float64(total))
}

// tier1BusyUnion is the wall time tier 1 spent in write/sync/persist calls
// during [from,to): the denominator of the drain bandwidth.
func tier1BusyUnion(spans []span, from, to int64) time.Duration {
	var iv [][2]int64
	for i := range spans {
		s := &spans[i]
		if s.Tier == 1 && s.Kind >= spanWrite && s.Kind != spanRead && s.Start >= from && s.Start < to {
			iv = append(iv, [2]int64{s.Start, s.End})
		}
	}
	return time.Duration(unionWithin(iv, from, 1<<62))
}

// writeTrace dumps the spans as a JSON array: name, start/end in ns, parent
// span index (-1 none) and save id (-1 none).
func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	w.WriteString("[\n")
	for i := range spans {
		s := &spans[i]
		name := spanNames[s.Kind]
		if s.Kind >= spanWrite {
			name = fmt.Sprintf("tier%d.%s", s.Tier, name)
		}
		sep := ","
		if i == len(spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, `{"id":%d,"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d,"save":%d,"bytes":%d}%s`+"\n",
			i, name, s.Start, s.End, s.Parent, s.Save, s.N, sep)
	}
	w.WriteString("]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
