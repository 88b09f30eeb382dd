package dist

import (
	"context"
	"errors"
	"testing"
	"time"

	"pccheck/internal/obs"
)

// The coordinator's Stall-vs-ExcludeDead choice surfaces as degraded-commit
// decisions: exclusions as immediate zero-regret groups documenting the
// trade, stalls as open groups re-emitted with the measured wait on commit.

func degraded(rec *obs.Recorder) []obs.Decision {
	var out []obs.Decision
	for _, d := range obs.Decisions(rec.SnapshotEvents()) {
		if d.Kind == "degraded-commit" {
			out = append(out, d)
		}
	}
	return out
}

// An ExcludeDead commit that skipped a dead rank emits one degraded-commit
// decision with zero regret and the rejected stall priced at the heartbeat
// timeout.
func TestExcludeDeadRecordsDecision(t *testing.T) {
	group := NewLocalGroup(2)
	defer group[0].Close()
	defer group[1].Close()
	rec := obs.NewRecorder(256)
	leader := NewCoordinatorWith(group[0], fastDetect(ExcludeDead))
	defer leader.Close()
	leader.SetObserver(rec)
	hung := NewCoordinator(group[1])
	hung.Close() // transport stays open, pump is gone: dead by silence

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := leader.Commit(ctx, 11); err != nil {
		t.Fatalf("leader commit with a hung peer: %v", err)
	}

	ds := degraded(rec)
	if len(ds) == 0 {
		t.Fatal("exclusion commit emitted no degraded-commit decision")
	}
	d := ds[0]
	if !d.Scored || d.Outcome != "excluded-1" || d.Regret != 0 || d.Chosen != "exclude-dead" {
		t.Errorf("%+v, want a scored zero-regret exclude-dead, excluded-1", d)
	}
	if len(d.Rejected) != 1 || d.Rejected[0].Action != "stall" ||
		d.Rejected[0].Cost != fastDetect(ExcludeDead).HeartbeatTimeout.Seconds() {
		t.Errorf("rejected %+v, want stall priced at the heartbeat timeout", d.Rejected)
	}
}

// Under the Stall policy a round blocked solely by dead ranks emits an
// open decision; when the round never commits it stays one unscored
// decision rather than vanishing.
func TestStallOpensPendingDecision(t *testing.T) {
	group := NewLocalGroup(2)
	defer group[0].Close()
	defer group[1].Close()
	rec := obs.NewRecorder(256)
	leader := NewCoordinatorWith(group[0], fastDetect(Stall))
	defer leader.Close()
	leader.SetObserver(rec)
	hung := NewCoordinator(group[1])
	hung.Close()

	// Long enough for the 60 ms silence timeout to declare rank 1 dead and
	// the commit loop to re-evaluate; the round still cannot complete.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := leader.Commit(ctx, 3); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled commit returned %v, want DeadlineExceeded", err)
	}
	ds := degraded(rec)
	if len(ds) != 1 {
		t.Fatalf("decisions = %d, want the one open stall", len(ds))
	}
	d := ds[0]
	if d.Scored || d.Outcome != "stalled" || d.Chosen != "stall" || d.Ref != 1 {
		t.Errorf("%+v, want an unscored stall on the first round", d)
	}
	if len(d.Rejected) != 1 || d.Rejected[0].Action != "exclude-dead" || !d.Rejected[0].Eligible {
		t.Errorf("rejected %+v, want an eligible exclude-dead", d.Rejected)
	}
}
