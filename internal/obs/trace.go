package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Chrome trace-event export: the drained flight-recorder events become a
// JSON document loadable in Perfetto (https://ui.perfetto.dev) or
// chrome://tracing. Spans are "X" complete events, instants are "i".
//
// Track layout (all under pid 1 "pccheck"):
//
//   - each save gets its own track ("save <counter>") carrying its
//     end-to-end span, slot wait, header/sync/barrier persists and the
//     publish/obsolete/cas-retry instants;
//   - each slot gets a staging track ("slot <s> stage") with the chunk
//     copy and chunk-wait spans, plus one track per writer lane
//     ("slot <s> writer <w>") with the per-chunk persist spans — a slot is
//     owned by exactly one save at a time, so these never overlap;
//   - retries and faults share a "faults+retries" track, the training
//     loop's snapshot/retune events and the ledger's slowdown blocks a
//     "loop" track, policy decisions a "decisions" track, each distributed
//     rank an "agree rank <r>" track, and rank 0's per-round gate
//     records (which rank held the round open) an "agree gate" track.
const (
	tidFaults  = 2
	tidLoop    = 3
	tidGate    = 4
	tidDecide  = 5
	tidCrash   = 90
	tidTierLo  = 6    // + tier index (Slot)
	tidRankLo  = 100  // + rank
	tidSlotLo  = 1000 // + slot*slotLaneStride (+ 1 + writer for writer lanes)
	tidSaveLo  = 1 << 20
	slotStride = 100
)

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	PID  int            `json:"pid"`
	TID  int64          `json:"tid"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// trackOf assigns an event to its track and human-readable track name.
func trackOf(ev Event) (int64, string) {
	switch ev.Phase {
	case PhaseCopy, PhaseChunkWait:
		return tidSlotLo + int64(ev.Slot)*slotStride, fmt.Sprintf("slot %d stage", ev.Slot)
	case PhasePersist:
		return tidSlotLo + int64(ev.Slot)*slotStride + 1 + int64(ev.Writer),
			fmt.Sprintf("slot %d writer %d", ev.Slot, ev.Writer)
	case PhaseIORetry, PhaseFault, PhaseFaultInjected:
		return tidFaults, "faults+retries"
	case PhaseSnapshot, PhaseRetune, PhaseSlowdownBlock:
		return tidLoop, "loop"
	case PhaseAgree:
		return tidRankLo + int64(ev.Rank), fmt.Sprintf("agree rank %d", ev.Rank)
	case PhaseAgreeGate:
		return tidGate, "agree gate"
	case PhaseDecision:
		return tidDecide, "decisions"
	case PhaseTierDrain, PhaseTierError, PhaseTierResync:
		return tidTierLo + int64(ev.Slot), fmt.Sprintf("tier %d drain", ev.Slot)
	case PhaseCrashMark:
		return tidCrash, "crash"
	default:
		return tidSaveLo + int64(ev.Counter), fmt.Sprintf("save %d", ev.Counter)
	}
}

// traceArgs builds the args payload, omitting fields the phase leaves
// unset so the Perfetto detail pane stays readable.
func traceArgs(ev Event) map[string]any {
	if ev.Phase == PhaseDecision {
		arg := int32(ev.Value)
		args := map[string]any{"id": ev.Counter, "kind": name(kindNames, int64(ev.Slot), 0),
			"action": name(actionNames, ev.Value>>32, arg), "arg": arg, "cost_ns": ev.Dur}
		if ev.Attempt == 0 {
			args["outcome"] = name(outcomeNames, int64(ev.Writer), arg)
		} else {
			args["rejected"], args["eligible"] = ev.Attempt, ev.Writer == 1
		}
		return args
	}
	args := make(map[string]any, 6)
	if ev.Counter != 0 {
		args["counter"] = ev.Counter
	}
	if ev.Bytes != 0 {
		args["bytes"] = ev.Bytes
	}
	if ev.Dur != 0 && !ev.Phase.IsSpan() {
		args["dur_ns"] = ev.Dur
	}
	if ev.Value != 0 {
		args["value"] = ev.Value
	}
	if ev.Slot >= 0 {
		args["slot"] = ev.Slot
	}
	if ev.Writer >= 0 {
		args["writer"] = ev.Writer
	}
	if ev.Rank >= 0 {
		args["rank"] = ev.Rank
	}
	if ev.Attempt != 0 {
		args["attempt"] = ev.Attempt
	}
	if len(args) == 0 {
		return nil
	}
	return args
}

// WriteTraceEvents renders events as Chrome trace-event JSON. Timestamps
// are rebased to the earliest event so Perfetto opens at t=0; events that
// share a timestamp (a decision group does) keep their input order.
func WriteTraceEvents(w io.Writer, events []Event) error {
	sorted := make([]Event, len(events))
	copy(sorted, events)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].TS < sorted[j].TS })

	var t0 int64
	if len(sorted) > 0 {
		t0 = sorted[0].TS
	}
	out := chromeTrace{
		TraceEvents:     make([]chromeEvent, 0, len(sorted)+8),
		DisplayTimeUnit: "ms",
	}
	out.TraceEvents = append(out.TraceEvents, chromeEvent{
		Name: "process_name", Ph: "M", PID: 1,
		Args: map[string]any{"name": "pccheck"},
	})
	named := make(map[int64]bool)
	for _, ev := range sorted {
		tid, trackName := trackOf(ev)
		if !named[tid] {
			named[tid] = true
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "thread_name", Ph: "M", PID: 1, TID: tid,
				Args: map[string]any{"name": trackName},
			})
		}
		ce := chromeEvent{
			Name: ev.Phase.String(),
			Cat:  "checkpoint",
			PID:  1,
			TID:  tid,
			TS:   float64(ev.TS-t0) / 1e3, // µs
			Args: traceArgs(ev),
		}
		if ev.Phase.IsSpan() {
			ce.Ph = "X"
			ce.Dur = float64(ev.Dur) / 1e3
		} else {
			ce.Ph = "i"
			ce.S = "t"
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// WriteTrace snapshots the recorder's ring (see SnapshotEvents) and
// writes the events as Chrome trace-event JSON. The ring is left intact,
// so trace export does not steal events from other consumers such as the
// black-box flusher.
func (r *Recorder) WriteTrace(w io.Writer) error {
	return WriteTraceEvents(w, r.SnapshotEvents())
}
