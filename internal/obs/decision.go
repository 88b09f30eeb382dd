package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Policy decisions are plain events: a decision site emits one group of
// PhaseDecision instants (see PhaseDecision for the field layout) through
// the observer it holds, and Decisions scores the groups after the fact
// with one rule — regret = max(0, measured cost of the chosen action −
// cheapest eligible rejected cost).

// MaxRejected is K, the most rejected actions one decision carries.
const MaxRejected = 4

// DecisionKind names the policy that decided (a PhaseDecision's Slot).
type DecisionKind int32

// Decision kinds.
const (
	DecisionRetune        DecisionKind = iota // AdaptiveLoop re-derived f (Eq. 3)
	DecisionRetry                             // a persist-path retry sequence
	DecisionDegraded                          // the coordinator's Stall vs ExcludeDead
	DecisionRepair                            // the scrubber's repair of a corrupt copy
	DecisionSlotAdmission                     // derived from PhaseSlotWait; never emitted
)

// DecisionAction is what a decision chose or rejected. Its argument is f
// for ActInterval, the attempt budget for ActRetry, the dead ranks for
// ActStall and ActExcludeDead, and the tier for a repair (-1: tier 0).
type DecisionAction int32

// Decision actions.
const (
	ActInterval DecisionAction = iota
	ActRetry
	ActFailFast
	ActStall
	ActExcludeDead
	ActRewriteSuperblock
	ActRewriteRecord
	ActRewriteBlackBoxHeader
	ActRepublishFromTier
	ActRewriteFromTier
	ActRewriteInPlace
	ActResyncTier
	ActQuarantine
	ActIgnore
)

// DecisionOutcome is how a decision ended (a chosen event's Writer).
// OutPredicted and OutStalled are open: a retune awaits a slowdown block,
// a stall its round's commit.
type DecisionOutcome int32

// Decision outcomes.
const (
	OutPredicted DecisionOutcome = iota
	OutRecovered
	OutExhausted
	OutFailed
	OutExcluded
	OutStalled
	OutCommitted
	OutRepaired
	OutQuarantined
	OutResynced
	OutSuperseded
)

// The code tables: a name holding %d renders the chosen action's argument.
var (
	kindNames   = []string{"retune", "retry", "degraded-commit", "repair", "slot-admission"}
	actionNames = []string{"f=%d", "retry(max=%d)", "fail-fast", "stall", "exclude-dead",
		"rewrite-superblock", "rewrite-record", "rewrite-blackbox-header", "republish-from-tier",
		"rewrite-from-tier", "rewrite-in-place", "resync-tier", "quarantine", "ignore"}
	outcomeNames = []string{"predicted", "recovered", "exhausted", "failed", "excluded-%d",
		"stalled", "stalled-then-committed", "repaired", "quarantined", "resynced", "superseded"}
)

// name renders code i of a table, with arg where the name takes one.
func name(table []string, i int64, arg int32) string {
	if i < 0 || i >= int64(len(table)) {
		return fmt.Sprintf("?%d", i)
	}
	if strings.Contains(table[i], "%d") {
		return fmt.Sprintf(table[i], arg)
	}
	return table[i]
}

var decisionIDs atomic.Uint64

// NewDecisionID returns a fresh process-wide decision id.
func NewDecisionID() uint64 { return decisionIDs.Add(1) }

// Choice is one action of a decision group: Cost in ns, and for a retune
// Over, its predicted overhead per iteration in ns. Eligible marks a
// rejected action that may count as the cheaper alternative.
type Choice struct {
	Action     DecisionAction
	Arg        int32
	Cost, Over int64
	Eligible   bool
}

// EmitDecision emits decision id as one group through o: chosen, then the
// first MaxRejected of rejected. ref is the checkpoint counter or round.
// It allocates nothing.
func EmitDecision(o Observer, id uint64, kind DecisionKind, ref int64, out DecisionOutcome, chosen Choice, rejected ...Choice) {
	ev := Event{TS: time.Now().UnixNano(), Phase: PhaseDecision, Counter: id, Slot: int32(kind), Writer: int32(out), Rank: -1}
	for i := 0; i <= min(len(rejected), MaxRejected); i++ {
		c := chosen
		if i > 0 {
			c, ev.Writer = rejected[i-1], 0
			if c.Eligible {
				ev.Writer = 1
			}
		}
		ev.Attempt, ev.Dur, ev.Value = int32(i), c.Cost, int64(c.Action)<<32|int64(uint32(c.Arg))
		if ev.Bytes = ref; kind == DecisionRetune {
			ev.Bytes = c.Over
		}
		o.Emit(ev)
	}
}

// Alternative is one rejected action of a scored decision; Cost is its
// predicted cost in seconds.
type Alternative struct {
	Action   string
	Cost     float64
	Eligible bool
}

// Decision is one decision scored by Decisions, costs in seconds. Ref is
// the checkpoint counter or round (0 for a retune). Scored is false while
// the decision is open or had nothing to join. BestAlt names the cheapest
// eligible alternative when it beats Measured, and Regret is the margin.
type Decision struct {
	ID                    uint64
	TS, Ref               int64
	Kind, Chosen, Outcome string
	Rejected              []Alternative
	Scored                bool
	Measured, Regret      float64
	BestAlt               string
	BestAltCost           float64
}

// Decisions scores the decision groups in evs (any order-preserving event
// tail). A group whose chosen event is missing is dropped; of groups
// sharing an id the last one wins. A retune is priced by the Eq. (4) lost
// work of its intervals and joins the next PhaseSlowdownBlock, or else the
// last one before it. The block's measured overhead (mean − baseline)
// calibrates the predicted overheads by measured/predicted, clamped to
// [0.25, 4], and a rejected interval is eligible when its calibrated
// overhead fits the block's budget, (q − 1)·baseline.
func Decisions(evs []Event) []Decision {
	type group struct {
		at  int
		evs []Event // nil once a later group took over its id
	}
	var gs []group
	var blocks []int
	byID := map[uint64]int{}
	for i, ev := range evs {
		switch {
		case ev.Phase == PhaseSlowdownBlock:
			blocks = append(blocks, i)
		case ev.Phase == PhaseSlotWait && ev.Value == 1:
			gs = append(gs, group{i, []Event{ev}})
		case ev.Phase != PhaseDecision:
		case ev.Attempt == 0:
			if j, ok := byID[ev.Counter]; ok {
				gs[j].evs = nil
			}
			byID[ev.Counter] = len(gs)
			gs = append(gs, group{i, []Event{ev}})
		default:
			if j, ok := byID[ev.Counter]; ok && len(gs[j].evs) <= MaxRejected {
				gs[j].evs = append(gs[j].evs, ev)
			}
		}
	}
	var out []Decision
	for _, g := range gs {
		if g.evs != nil {
			out = append(out, score(g.evs, g.at, evs, blocks))
		}
	}
	return out
}

// score scores one group; at is its chosen event's index in evs.
func score(g []Event, at int, evs []Event, blocks []int) Decision {
	c, arg := g[0], int32(g[0].Value)
	d := Decision{ID: c.Counter, TS: c.TS, Ref: c.Bytes, Measured: secs(c.Dur), Scored: true,
		Kind: name(kindNames, int64(c.Slot), 0), Chosen: name(actionNames, c.Value>>32, arg),
		Outcome: name(outcomeNames, int64(c.Writer), arg)}
	calib, budget := 1.0, -1.0 // budget < 0: the emitted Eligible flags stand
	switch {
	case c.Phase == PhaseSlotWait:
		d.ID, d.Ref, d.Kind, d.Chosen, d.Outcome = 0, int64(c.Counter), kindNames[DecisionSlotAdmission], "wait-for-slot", "admitted"
		d.Rejected = []Alternative{{Action: "provision-slot"}, {Action: "skip-save", Eligible: true}}
	case c.Slot == int32(DecisionRetune):
		d.Ref, d.Scored, d.Outcome = 0, false, "no-measurement"
		k := sort.SearchInts(blocks, at)
		if k < len(blocks) {
			d.Scored, d.Outcome = true, "ledger-join"
		} else if k > 0 {
			k, d.Scored, d.Outcome = k-1, true, "drain-join"
		}
		if !d.Scored {
			break
		}
		b := evs[blocks[k]]
		if base, q := secs(b.Value), secs(b.Bytes); base <= 0 {
			d.Outcome = "no-baseline"
		} else if q > 1 {
			// s ≤ q with s − 1 = overhead/t: the model's Eligible, with the
			// measured baseline for t.
			budget = (q - 1 + 1e-9) * base
			if over := secs(b.Dur - b.Value); c.Bytes > 0 && over > 1e-12 {
				calib = min(4, max(0.25, over/secs(c.Bytes)))
			}
		}
	default:
		d.Scored = c.Writer != int32(OutStalled)
	}
	for _, r := range g[1:] {
		eligible := r.Writer == 1
		if budget >= 0 {
			eligible = calib*secs(r.Bytes) <= budget
		}
		d.Rejected = append(d.Rejected, Alternative{name(actionNames, r.Value>>32, int32(r.Value)), secs(r.Dur), eligible})
	}
	if !d.Scored {
		d.Measured = 0
		return d
	}
	for _, a := range d.Rejected {
		if a.Eligible && a.Cost < d.Measured && (d.BestAlt == "" || a.Cost < d.BestAltCost) {
			d.BestAlt, d.BestAltCost, d.Regret = a.Action, a.Cost, d.Measured-a.Cost
		}
	}
	return d
}
