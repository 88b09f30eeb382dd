package obs

import (
	"math"
	"strings"
	"testing"
	"time"
)

// ms is a millisecond count in ns.
func ms(v float64) int64 { return int64(math.Round(v * 1e6)) }

// block emits a ledger's slowdown block: mean iteration time, baseline,
// budget q (0: untracked).
func block(r *Recorder, mean, base int64, q float64) {
	r.Emit(Event{Phase: PhaseSlowdownBlock, Dur: mean, Value: base, Bytes: int64(math.Round(q * 1e9)), Slot: -1, Writer: -1, Rank: -1})
}

func interval(f int32, cost, over int64, eligible bool) Choice {
	return Choice{Action: ActInterval, Arg: f, Cost: cost, Over: over, Eligible: eligible}
}

// TestDecisionsScoring is the scorer's table: each row is a decision as a
// site emits it and the (kind, chosen, best alternative, measured, regret,
// outcome) it scores to. A retune's cost is its Eq. (4) lost work; the
// block's budget (q − 1)·baseline re-judges each rejected interval's
// calibrated overhead. RetuneLedgerJoin: a cheaper interval that fits once
// calibrated wins, one that still does not never does. RetuneStaleness: a
// larger interval never wins on its lower overhead. RetuneNoBaseline and
// RetuneNoBudget: the emitted flags stand. FinalizeDrainJoin: a retune
// after the last block joins it. DegradedOpenResolve: a committed stall is
// re-emitted under its id with the stall as regret.
func TestDecisionsScoring(t *testing.T) {
	type want struct {
		kind, chosen, best string
		measured, regret   float64
		scored             bool
		outcome            string
	}
	cases := []struct {
		name string
		emit func(r *Recorder)
		want want
	}{
		{"RetuneLedgerJoin", func(r *Recorder) {
			EmitDecision(r, 1, DecisionRetune, 0, OutPredicted, interval(4, ms(12), ms(0.2), true),
				interval(2, ms(6), ms(0.6), false), interval(3, ms(9), ms(0.3), false), interval(8, ms(24), ms(0.05), true))
			// measured 0.1 ms over: calibration 0.1/0.2 puts f=3 at 0.15 ms,
			// inside the 0.25 ms budget, and f=2 at 0.3 ms, outside it.
			block(r, ms(1.1), ms(1), 1.25)
		}, want{"retune", "f=4", "f=3", 0.012, 0.003, true, "ledger-join"}},
		{"RetuneCalibrationClamp", func(r *Recorder) {
			EmitDecision(r, 1, DecisionRetune, 0, OutPredicted, interval(2, ms(6), ms(0.001), true),
				interval(1, ms(3), ms(0.05), false))
			// measured 10 ms over: raw calibration 10⁴ → 4, f=1 at 0.2 ms.
			block(r, ms(11), ms(1), 1.25)
		}, want{"retune", "f=2", "f=1", 0.006, 0.003, true, "ledger-join"}},
		{"RetuneStaleness", func(r *Recorder) {
			EmitDecision(r, 1, DecisionRetune, 0, OutPredicted, interval(4, ms(12), ms(0.2), true),
				interval(8, ms(24), 0, true))
			block(r, ms(1.2), ms(1), 1.25) // as predicted
		}, want{"retune", "f=4", "", 0.012, 0, true, "ledger-join"}},
		{"RetuneNoBaseline", func(r *Recorder) {
			EmitDecision(r, 1, DecisionRetune, 0, OutPredicted, interval(4, ms(12), ms(0.2), true),
				interval(3, ms(9), ms(0.3), false))
			block(r, ms(1.1), 0, 1.25)
		}, want{"retune", "f=4", "", 0.012, 0, true, "no-baseline"}},
		{"RetuneNoBudget", func(r *Recorder) {
			EmitDecision(r, 1, DecisionRetune, 0, OutPredicted, interval(4, ms(12), ms(0.2), true),
				interval(3, ms(9), ms(0.3), false))
			block(r, ms(1.1), ms(1), 0)
		}, want{"retune", "f=4", "", 0.012, 0, true, "ledger-join"}},
		{"RetuneNoMeasurement", func(r *Recorder) {
			EmitDecision(r, 1, DecisionRetune, 0, OutPredicted, interval(2, ms(1), ms(1), false))
		}, want{"retune", "f=2", "", 0, 0, false, "no-measurement"}},
		{"FinalizeDrainJoin", func(r *Recorder) {
			block(r, ms(1.2), ms(1), 1.25)
			EmitDecision(r, 1, DecisionRetune, 0, OutPredicted, interval(2, ms(1), ms(1), false))
		}, want{"retune", "f=2", "", 0.001, 0, true, "drain-join"}},
		{"SlotWaitAdmission", func(r *Recorder) {
			r.Emit(Event{Phase: PhaseSlotWait, Dur: ms(3), Value: 1, Counter: 5, Slot: 0, Writer: -1, Rank: -1})
			r.Emit(Event{Phase: PhaseSlotWait, Dur: ms(1), Counter: 6, Slot: 1, Writer: -1, Rank: -1}) // no wait
		}, want{"slot-admission", "wait-for-slot", "skip-save", 0.003, 0.003, true, "admitted"}},
		{"RetryRecovered", func(r *Recorder) {
			EmitDecision(r, 1, DecisionRetry, 0, OutRecovered, Choice{Action: ActRetry, Arg: 3, Cost: ms(10)},
				Choice{Action: ActFailFast}, Choice{Action: ActRetry, Arg: 6, Cost: ms(20), Eligible: true})
		}, want{"retry", "retry(max=3)", "", 0.01, 0, true, "recovered"}},
		{"RetryExhausted", func(r *Recorder) {
			EmitDecision(r, 1, DecisionRetry, 0, OutExhausted, Choice{Action: ActRetry, Arg: 3, Cost: ms(10)},
				Choice{Action: ActFailFast, Eligible: true}, Choice{Action: ActRetry, Arg: 6, Cost: ms(20), Eligible: true})
		}, want{"retry", "retry(max=3)", "fail-fast", 0.01, 0.01, true, "exhausted"}},
		{"ExcludeDead", func(r *Recorder) {
			EmitDecision(r, 1, DecisionDegraded, 4, OutExcluded, Choice{Action: ActExcludeDead, Arg: 1},
				Choice{Action: ActStall, Cost: ms(60), Eligible: true})
		}, want{"degraded-commit", "exclude-dead", "", 0, 0, true, "excluded-1"}},
		{"StallNeverCommits", func(r *Recorder) {
			EmitDecision(r, 1, DecisionDegraded, 1, OutStalled, Choice{Action: ActStall, Arg: 1},
				Choice{Action: ActExcludeDead, Arg: 1, Eligible: true})
		}, want{"degraded-commit", "stall", "", 0, 0, false, "stalled"}},
		{"DegradedOpenResolve", func(r *Recorder) {
			EmitDecision(r, 1, DecisionDegraded, 3, OutStalled, Choice{Action: ActStall, Arg: 2},
				Choice{Action: ActExcludeDead, Arg: 2, Eligible: true})
			EmitDecision(r, 1, DecisionDegraded, 3, OutCommitted, Choice{Action: ActStall, Arg: 2, Cost: ms(250)},
				Choice{Action: ActExcludeDead, Arg: 2, Eligible: true})
		}, want{"degraded-commit", "stall", "exclude-dead", 0.25, 0.25, true, "stalled-then-committed"}},
		{"RepairUnpriced", func(r *Recorder) {
			EmitDecision(r, 1, DecisionRepair, 9, OutRepaired, Choice{Action: ActRepublishFromTier, Arg: 1, Cost: ms(3)},
				Choice{Action: ActQuarantine}, Choice{Action: ActRewriteInPlace})
		}, want{"repair", "republish-from-tier", "", 0.003, 0, true, "repaired"}},
	}
	const eps = 1e-9
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRecorder(64)
			tc.emit(r)
			ds := Decisions(r.TakeEvents())
			if len(ds) != 1 {
				t.Fatalf("scored %d decisions, want 1: %+v", len(ds), ds)
			}
			d, w := ds[0], tc.want
			if d.Kind != w.kind || d.Chosen != w.chosen || d.BestAlt != w.best || d.Scored != w.scored || d.Outcome != w.outcome ||
				math.Abs(d.Measured-w.measured) > eps || math.Abs(d.Regret-w.regret) > eps {
				t.Errorf("scored %+v\nwant %+v", d, w)
			}
		})
	}
}

// A black-box tail that cut a group's chosen event drops the group rather
// than scoring its rejected actions as a decision; groups past K are cut.
func TestDecisionsDropCutGroups(t *testing.T) {
	r := NewRecorder(64)
	EmitDecision(r, 1, DecisionRetry, 0, OutExhausted, Choice{Action: ActRetry, Arg: 3, Cost: ms(1)},
		Choice{Action: ActFailFast, Eligible: true})
	EmitDecision(r, 2, DecisionRepair, 0, OutRepaired, Choice{Action: ActQuarantine},
		Choice{Action: ActIgnore}, Choice{Action: ActIgnore}, Choice{Action: ActIgnore},
		Choice{Action: ActIgnore}, Choice{Action: ActIgnore})
	evs := r.TakeEvents()
	if len(evs) != 2+1+MaxRejected {
		t.Fatalf("emitted %d events, want 2 + 1 + K", len(evs))
	}
	ds := Decisions(evs[1:])
	if len(ds) != 1 || ds[0].ID != 2 || len(ds[0].Rejected) != MaxRejected {
		t.Fatalf("scored %+v, want only decision 2 with K alternatives", ds)
	}
	// Hostile codes render as unknown, never panic.
	ds = Decisions([]Event{{Phase: PhaseDecision, Counter: 9, Slot: 99, Value: -1 << 40, Writer: 77}})
	if len(ds) != 1 || !strings.HasPrefix(ds[0].Kind, "?") || !strings.HasPrefix(ds[0].Chosen, "?") {
		t.Fatalf("hostile codes scored %+v", ds)
	}
}

func TestEmitDecisionAllocatesNothing(t *testing.T) {
	r := NewRecorder(1 << 10)
	led := NewLedger(LedgerConfig{SlowdownBudget: 1.1}, r)
	if n := testing.AllocsPerRun(100, func() {
		EmitDecision(led, NewDecisionID(), DecisionRetry, 0, OutRecovered, Choice{Action: ActRetry, Arg: 3},
			Choice{Action: ActFailFast}, Choice{Action: ActRetry, Arg: 6, Eligible: true})
	}); n > 0 {
		t.Errorf("EmitDecision allocates %v per group, want 0", n)
	}
}

// The ledger emits each completed slowdown block downstream.
func TestLedgerEmitsSlowdownBlocks(t *testing.T) {
	r := NewRecorder(64)
	led := NewLedger(LedgerConfig{BaselineIterTime: time.Millisecond, Window: 4, SlowdownBudget: 1.25}, r)
	for i := 0; i < 9; i++ {
		led.IterDone(1500*time.Microsecond, false)
	}
	var blocks []Event
	for _, ev := range r.TakeEvents() {
		if ev.Phase == PhaseSlowdownBlock {
			blocks = append(blocks, ev)
		}
	}
	if len(blocks) != 2 || blocks[1].Dur != ms(1.5) || blocks[1].Value != ms(1) || blocks[1].Counter != 8 || blocks[1].Bytes != 1.25e9 {
		t.Fatalf("blocks %+v, want two of mean 1.5 ms over a 1 ms baseline, budget 1.25", blocks)
	}
}

func TestDecisionCodeTables(t *testing.T) {
	if len(kindNames) != int(DecisionSlotAdmission)+1 || len(actionNames) != int(ActIgnore)+1 ||
		len(outcomeNames) != int(OutSuperseded)+1 {
		t.Fatalf("code tables out of step with their constants: %d kinds, %d actions, %d outcomes",
			len(kindNames), len(actionNames), len(outcomeNames))
	}
	if got := name(actionNames, int64(ActInterval), 7); got != "f=7" {
		t.Errorf("interval renders %q, want f=7", got)
	}
	if got := name(outcomeNames, int64(OutExcluded), 2); got != "excluded-2" {
		t.Errorf("exclusion renders %q, want excluded-2", got)
	}
}

func TestFindWalksChain(t *testing.T) {
	rec := NewRecorder(64)
	led := NewLedger(LedgerConfig{SlowdownBudget: 1.05}, rec)
	if got := Find[*Recorder](led); got != rec {
		t.Errorf("Find[*Recorder](ledger) = %p, want the chained recorder %p", got, rec)
	}
	if got := Find[*Ledger](led); got != led {
		t.Errorf("Find[*Ledger](ledger) = %p, want the ledger itself", got)
	}
	if got := Find[*Ledger](rec); got != nil {
		t.Errorf("Find[*Ledger](recorder) = %p, want nil", got)
	}
	if got := Find[*Recorder](nil); got != nil {
		t.Errorf("Find(nil) = %p, want nil", got)
	}
}
