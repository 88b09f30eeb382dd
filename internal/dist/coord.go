package dist

import (
	"context"
	"fmt"
	"sync"
	"time"

	"pccheck/internal/obs"
)

// DegradedPolicy selects what rank 0 does when a worker is declared dead
// mid-protocol.
type DegradedPolicy int

const (
	// Stall is the paper's behaviour (§4.1): every rank must report before
	// a round commits, so a dead rank halts global agreement until the
	// training framework restarts it. Failure detection still runs and
	// emits rank-dead events — the operator sees the stall's cause — but
	// commits never exclude anyone.
	Stall DegradedPolicy = iota
	// ExcludeDead lets the survivors make progress: once a rank is
	// declared dead, rounds commit over the live ranks' reports (plus any
	// report the dead rank banked before dying — it is durably persisted,
	// so including it only tightens the minimum). The agreed ID stays
	// globally consistent for every LIVE rank; the dead rank re-enters
	// through Rejoin and adopts the group's LatestConsistent.
	ExcludeDead
)

func (p DegradedPolicy) String() string {
	switch p {
	case Stall:
		return "stall"
	case ExcludeDead:
		return "exclude-dead"
	default:
		return fmt.Sprintf("DegradedPolicy(%d)", int(p))
	}
}

// Causes recorded as the Value of a PhaseRankDead event.
const (
	// DeadCauseTimeout: the rank went silent past HeartbeatTimeout — it
	// answered no pings even though its connection may still be open
	// (hung process, one-way partition).
	DeadCauseTimeout = 1
	// DeadCauseConn: rank 0's connection to the rank died.
	DeadCauseConn = 2
	// DeadCauseDeadline: the oldest open round exceeded CommitDeadline and
	// this rank was among the missing reporters (ExcludeDead only).
	DeadCauseDeadline = 3
)

// Reasons recorded as the Value of a PhaseFrameDropped event.
const (
	// DropBadFrom: the frame's sender rank is outside [0, world) or
	// mismatches the handshake-registered rank for its connection.
	DropBadFrom = 1
	// DropBadSeq: a report carried sequence number 0 (the wire's "unset").
	DropBadSeq = 2
	// DropStaleCommit: a duplicated or reordered commit frame for a round
	// the worker already passed.
	DropStaleCommit = 3
	// DropUnexpectedKind: a structurally valid frame whose kind this side
	// never accepts (e.g. a report arriving at a worker).
	DropUnexpectedKind = 4
	// DropStaleResync: a resync frame arriving outside a Rejoin, or
	// carrying an older base than the worker already adopted.
	DropStaleResync = 5
)

// CoordConfig tunes failure detection and degraded-mode commit. The zero
// value reproduces the paper's protocol with conservative detection
// defaults: heartbeats every second, a rank declared dead after 5s of
// silence, Stall policy (detection is then observability only).
type CoordConfig struct {
	// Heartbeat is rank 0's ping interval. 0 selects the 1s default; a
	// negative value disables liveness detection entirely (no pings, no
	// timeouts, no deadline exclusion — PR≤4 behaviour).
	Heartbeat time.Duration
	// HeartbeatTimeout is how long a rank may stay silent — no report, no
	// pong, no hello — before rank 0 declares it dead. This is what
	// catches hung-but-connected ranks whose TCP connection never closes.
	// 0 selects 5×Heartbeat.
	HeartbeatTimeout time.Duration
	// CommitDeadline bounds how long the oldest uncommitted round may stay
	// open before the ranks still missing from it are declared dead
	// (ExcludeDead only; 0 disables, leaving detection to heartbeats).
	// It is the fast path for "the rank is answering pings but its
	// reports never arrive" — a one-way partition.
	CommitDeadline time.Duration
	// SendTimeout bounds every protocol-internal send (broadcasts, pings,
	// pongs, resyncs) so one dead peer cannot wedge the message pump.
	// 0 selects 2s.
	SendTimeout time.Duration
	// Degraded selects the dead-rank commit policy. Default Stall.
	Degraded DegradedPolicy
}

func (cfg CoordConfig) withDefaults() CoordConfig {
	if cfg.Heartbeat == 0 {
		cfg.Heartbeat = time.Second
	}
	if cfg.HeartbeatTimeout <= 0 {
		hb := cfg.Heartbeat
		if hb < 0 {
			hb = time.Second
		}
		cfg.HeartbeatTimeout = 5 * hb
	}
	if cfg.SendTimeout <= 0 {
		cfg.SendTimeout = 2 * time.Second
	}
	return cfg
}

// Coordinator runs the global-consistency protocol of §4.1: after a worker's
// local checkpoint publish (the successful CAS of Listing 1), it calls
// Commit with its checkpoint ID. Rank 0 gathers one ID per rank for the
// round, declares the round's minimum ID globally consistent (every worker
// has durably persisted at least that far), and broadcasts it. Every
// worker's peerCheck then advances to the agreed ID.
//
// Each Coordinator owns a background pump goroutine that demultiplexes
// incoming frames: reports and hellos feed rank 0's round logic, pings are
// answered with pongs, commits wake the blocked Commit call, resyncs serve
// Rejoin. Frames are placed by explicit sequence number — the i-th report
// of a rank belongs to round baseRound+i — so duplicated or reordered
// frames land in the right round (or are dropped as stale) instead of
// corrupting the bookkeeping. Commit calls on one worker are serialized;
// rounds commit strictly in order.
//
// Call Close when done with the Coordinator (closing the Transport also
// stops the pump, which is how pre-existing callers that only close the
// transport keep working).
type Coordinator struct {
	tr  Transport
	cfg CoordConfig

	// commitMu serializes Commit (and Rejoin) on this worker.
	commitMu sync.Mutex

	mu        sync.Mutex
	peerCheck uint64

	// Worker-side protocol state. base is the round offset adopted from
	// the last resync (0 for the initial session); seq counts this
	// session's Commit calls, so the current report belongs to round
	// base+seq. lastCommitRound is the newest committed round observed,
	// the monotonicity gate that drops duplicated/reordered commit frames.
	base            uint64
	seq             uint64
	lastCommitRound uint64
	helloing        bool // inside Rejoin: resync frames may adjust base
	resynced        bool

	// Rank-0 state: reports per round; baseRound is the per-rank round
	// offset (reset when a rank rejoins with a fresh session, so its
	// restarted sequence numbers keep landing in current rounds); next is
	// the next round index to commit. dead/lastHeard/probe drive failure
	// detection.
	rounds    map[uint64]map[int]report
	baseRound map[int]uint64
	next      uint64
	dead      map[int]bool
	lastHeard map[int]int64
	probe     uint64

	// obsv, when set on rank 0, receives one PhaseAgreeGate event per
	// committed round plus the failure-detection instants (PhaseRankDead,
	// PhaseRankRejoined, PhaseFrameDropped); see SetObserver.
	obsv obs.Observer
	// stalls tracks the open Stall decisions by round (see noteStallLocked).
	stalls map[uint64]stall

	notify     chan struct{} // capacity 1; wakes the (single) blocked Commit/Rejoin
	pumpCancel context.CancelFunc
	pumpDone   chan struct{}
	pumpErrV   error
	tickDone   chan struct{}
	closeOnce  sync.Once
}

// report is one rank's contribution to a round: the checkpoint ID it
// published and when the report reached rank 0.
type report struct {
	id uint64
	at int64 // arrival, UnixNano
}

// NewCoordinator wraps a transport with the default config. All workers of
// the group must create exactly one Coordinator each and call Commit once
// per local checkpoint.
func NewCoordinator(tr Transport) *Coordinator {
	return NewCoordinatorWith(tr, CoordConfig{})
}

// NewCoordinatorWith wraps a transport with explicit failure-detection and
// degraded-mode settings. It starts the message pump immediately (and, on
// rank 0, the liveness ticker unless Heartbeat < 0).
func NewCoordinatorWith(tr Transport, cfg CoordConfig) *Coordinator {
	ctx, cancel := context.WithCancel(context.Background())
	c := &Coordinator{
		tr:         tr,
		cfg:        cfg.withDefaults(),
		rounds:     make(map[uint64]map[int]report),
		baseRound:  make(map[int]uint64),
		next:       1,
		dead:       make(map[int]bool),
		lastHeard:  make(map[int]int64),
		notify:     make(chan struct{}, 1),
		pumpCancel: cancel,
		pumpDone:   make(chan struct{}),
	}
	now := time.Now().UnixNano()
	for r := 1; r < tr.WorldSize(); r++ {
		c.lastHeard[r] = now // grace period: silence counts from startup
	}
	if tr.Rank() == 0 {
		if pe, ok := tr.(PeerEvents); ok {
			pe.SetPeerHook(c.peerEvent)
		}
		if c.cfg.Heartbeat > 0 && tr.WorldSize() > 1 {
			c.tickDone = make(chan struct{})
			go c.liveness()
		}
	}
	go c.pump(ctx)
	return c
}

// Close stops the pump and liveness goroutines. It does not close the
// Transport (its creator owns it). Idempotent.
func (c *Coordinator) Close() error {
	c.closeOnce.Do(func() {
		c.pumpCancel()
		<-c.pumpDone
		if c.tickDone != nil {
			<-c.tickDone
		}
	})
	return nil
}

// SetObserver attaches an observer to the coordinator. On rank 0 it emits
// one PhaseAgreeGate event per committed round: Rank is the rank whose
// report gated the round (the unique oldest checkpoint ID, or the last
// report to arrive when IDs tie), TS the first report's arrival, Dur the
// first→last arrival spread, Counter the agreed ID, and Value the ID gap
// between the freshest and oldest reports. It additionally emits the
// failure-detection instants: PhaseRankDead (Value: DeadCause*),
// PhaseRankRejoined (Counter: the consistent ID the rank resynced to) and
// PhaseFrameDropped (Value: Drop*). Call before the first Commit.
func (c *Coordinator) SetObserver(o obs.Observer) {
	c.mu.Lock()
	c.obsv = o
	c.mu.Unlock()
}

// LatestConsistent returns the newest globally consistent checkpoint ID
// (0 = none yet). On restart, every worker restores this checkpoint even if
// its own device holds a newer, not-yet-agreed one.
func (c *Coordinator) LatestConsistent() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.peerCheck
}

// NextRound returns the global round index this worker's next Commit will
// join (after a Rejoin the anchor moves forward past the rounds the group
// committed while this rank was away). Harnesses use it to schedule
// round-aligned faults and to know when every rank has reached a common
// final round.
func (c *Coordinator) NextRound() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.base + c.seq + 1
}

// DeadRanks returns the ranks rank 0 currently considers dead (nil
// elsewhere, and when everyone is live).
func (c *Coordinator) DeadRanks() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []int
	for r, d := range c.dead {
		if d {
			out = append(out, r)
		}
	}
	return out
}

// Commit reports a locally persisted checkpoint ID and blocks until this
// worker's round commits, returning the group's consistent checkpoint ID as
// of that commit (monotone: never below a previously returned value). The
// context's deadline is the caller's escape hatch when the group cannot
// make progress — a missing peer under Stall policy stalls Commit by
// design.
func (c *Coordinator) Commit(ctx context.Context, checkpointID uint64) (uint64, error) {
	c.commitMu.Lock()
	defer c.commitMu.Unlock()

	c.mu.Lock()
	c.seq++
	seq := c.seq
	target := c.base + seq
	c.mu.Unlock()

	if c.tr.Rank() == 0 {
		c.mu.Lock()
		c.addReportLocked(0, checkpointID, seq)
		bcasts := c.tryCommitLocked()
		c.mu.Unlock()
		c.sendAll(bcasts)
		// Rank 0's round (base always 0) has committed once next passes it.
		return c.waitFor(ctx, func() bool { return c.next > seq })
	}

	rep := Message{Kind: KindReport, CheckpointID: checkpointID, Seq: seq}
	if err := c.tr.Send(ctx, 0, rep); err != nil {
		return 0, err
	}
	// Retransmit the report while waiting: a dropped report (or a dropped
	// commit broadcast) would otherwise stall this call forever even after
	// the network heals. The leader deduplicates by sequence number, and
	// answers a report for an already-committed round by re-sending the
	// commit — so retransmission recovers from loss in either direction.
	resend := c.cfg.Heartbeat
	if resend <= 0 {
		resend = 500 * time.Millisecond
	}
	tick := time.NewTicker(resend)
	defer tick.Stop()
	for {
		c.mu.Lock()
		if c.lastCommitRound >= target {
			id := c.peerCheck
			c.mu.Unlock()
			return id, nil
		}
		c.mu.Unlock()
		select {
		case <-c.notify:
		case <-tick.C:
			_ = c.tr.Send(ctx, 0, rep)
		case <-c.pumpDone:
			return 0, c.pumpErr()
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
}

// waitFor blocks until cond (evaluated under c.mu) holds, then returns the
// consistent ID. The pump wakes it via notify; commitMu guarantees a single
// waiter, so the capacity-1 notify channel cannot lose a wakeup.
func (c *Coordinator) waitFor(ctx context.Context, cond func() bool) (uint64, error) {
	for {
		c.mu.Lock()
		if cond() {
			id := c.peerCheck
			c.mu.Unlock()
			return id, nil
		}
		c.mu.Unlock()
		select {
		case <-c.notify:
		case <-c.pumpDone:
			return 0, c.pumpErr()
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
}

// Rejoin re-attaches this worker to the group after a restart (or after
// its rank was declared dead): it sends hello frames to rank 0 until a
// resync reply arrives, adopts the group's current round offset so its
// restarted sequence numbers land in live rounds, and returns the globally
// consistent checkpoint ID the caller should restore (via LoadLatest)
// before resuming training. On rank 0 it is a no-op returning the current
// consistent ID.
func (c *Coordinator) Rejoin(ctx context.Context) (uint64, error) {
	c.commitMu.Lock()
	defer c.commitMu.Unlock()
	if c.tr.Rank() == 0 {
		return c.LatestConsistent(), nil
	}

	c.mu.Lock()
	c.helloing = true
	c.resynced = false
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		c.helloing = false
		c.mu.Unlock()
	}()

	resend := c.cfg.Heartbeat
	if resend <= 0 {
		resend = 200 * time.Millisecond
	}
	for {
		if err := c.tr.Send(ctx, 0, Message{Kind: KindPing}); err != nil {
			return 0, fmt.Errorf("dist: rejoin hello: %w", err)
		}
		deadline := time.NewTimer(resend)
	wait:
		for {
			c.mu.Lock()
			if c.resynced {
				id := c.peerCheck
				c.mu.Unlock()
				deadline.Stop()
				return id, nil
			}
			c.mu.Unlock()
			select {
			case <-c.notify:
			case <-deadline.C:
				break wait // resend the hello
			case <-c.pumpDone:
				deadline.Stop()
				return 0, c.pumpErr()
			case <-ctx.Done():
				deadline.Stop()
				return 0, ctx.Err()
			}
		}
	}
}

// pump is the per-Coordinator receive loop: it demultiplexes every inbound
// frame so protocol progress (pong replies, round bookkeeping, liveness
// evidence) continues even while no Commit call is in flight.
func (c *Coordinator) pump(ctx context.Context) {
	defer close(c.pumpDone)
	leader := c.tr.Rank() == 0
	for {
		m, err := c.tr.Recv(ctx)
		if err != nil {
			c.mu.Lock()
			c.pumpErrV = err
			c.mu.Unlock()
			return
		}
		if leader {
			c.leaderFrame(m)
		} else {
			c.workerFrame(m)
		}
	}
}

func (c *Coordinator) pumpErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pumpErrV != nil {
		return fmt.Errorf("dist: coordinator stopped: %w", c.pumpErrV)
	}
	return fmt.Errorf("dist: coordinator stopped")
}

// leaderFrame handles one frame on rank 0.
func (c *Coordinator) leaderFrame(m Message) {
	// Never trust a frame's claimed sender blindly: the TCP transport
	// stamps From with the handshake-registered rank of the connection the
	// frame arrived on, so a mismatch (or an out-of-range rank over any
	// transport) is either corruption or spoofing — drop it, with an
	// observer instant, rather than let it corrupt the round maps.
	if m.From <= 0 || m.From >= c.tr.WorldSize() {
		c.emitDropped(m, DropBadFrom)
		return
	}
	switch m.Kind {
	case KindReport:
		if m.Seq == 0 {
			c.emitDropped(m, DropBadSeq)
			return
		}
		c.mu.Lock()
		c.touchLocked(m.From)
		fresh := c.addReportLocked(m.From, m.CheckpointID, m.Seq)
		var echo Message
		if !fresh {
			// A report for an already-committed round is a retransmission
			// from a worker that never saw the round's commit — re-send it
			// (the current consistent ID is ≥ that round's) so the worker
			// unblocks.
			echo = Message{Kind: KindCommit, CheckpointID: c.peerCheck, Seq: c.next - 1}
		}
		bcasts := c.tryCommitLocked()
		c.mu.Unlock()
		if !fresh {
			c.sendOne(m.From, echo)
		}
		c.sendAll(bcasts)
		c.wake()
	case KindPong:
		c.mu.Lock()
		c.touchLocked(m.From)
		c.mu.Unlock()
	case KindPing:
		// A worker pinging rank 0 is a hello: a fresh or restarted session
		// asking to (re)join. Re-anchor its round offset at the current
		// round, discard any reports banked by its previous incarnation
		// (their durability died with it), and tell it where the group is.
		c.mu.Lock()
		c.touchLocked(m.From)
		c.baseRound[m.From] = c.next - 1
		for round, reps := range c.rounds {
			delete(reps, m.From)
			if len(reps) == 0 {
				delete(c.rounds, round)
			}
		}
		resync := Message{Kind: KindResync, CheckpointID: c.peerCheck, Seq: c.next - 1}
		c.mu.Unlock()
		c.sendOne(m.From, resync)
		c.wake()
	default:
		c.emitDropped(m, DropUnexpectedKind)
	}
}

// workerFrame handles one frame on a non-zero rank.
func (c *Coordinator) workerFrame(m Message) {
	switch m.Kind {
	case KindPing:
		c.sendOne(0, Message{Kind: KindPong, Seq: m.Seq})
	case KindCommit:
		c.mu.Lock()
		if m.Seq <= c.lastCommitRound {
			c.mu.Unlock()
			// Duplicated or reordered commit frame: without this gate it
			// would answer a LATER round's Commit call with a stale agreed
			// ID, regressing what the caller believes is consistent.
			c.emitDropped(m, DropStaleCommit)
			return
		}
		c.lastCommitRound = m.Seq
		c.advanceLocked(m.CheckpointID)
		c.mu.Unlock()
		c.wake()
	case KindResync:
		c.mu.Lock()
		c.advanceLocked(m.CheckpointID)
		ok := c.helloing && m.Seq >= c.base
		if ok {
			// Adopt rank 0's round anchor; our next report (seq 1) lands in
			// the group's current round. Monotone accept: a delayed resync
			// from an earlier hello must not roll the anchor back.
			c.base = m.Seq
			c.seq = 0
			c.lastCommitRound = m.Seq
			c.resynced = true
		}
		c.mu.Unlock()
		if !ok {
			c.emitDropped(m, DropStaleResync)
		}
		c.wake()
	default:
		c.emitDropped(m, DropUnexpectedKind)
	}
}

// liveness is rank 0's detection ticker: it pings every peer each
// Heartbeat, declares ranks dead after HeartbeatTimeout of silence, and —
// under ExcludeDead with a CommitDeadline — excludes the ranks holding the
// oldest round open too long.
func (c *Coordinator) liveness() {
	defer close(c.tickDone)
	t := time.NewTicker(c.cfg.Heartbeat)
	defer t.Stop()
	world := c.tr.WorldSize()
	for {
		select {
		case <-c.pumpDone:
			return
		case <-t.C:
		}
		now := time.Now().UnixNano()
		c.mu.Lock()
		c.probe++
		probe := c.probe
		for r := 1; r < world; r++ {
			if !c.dead[r] && now-c.lastHeard[r] > int64(c.cfg.HeartbeatTimeout) {
				c.markDeadLocked(r, DeadCauseTimeout)
			}
		}
		if c.cfg.Degraded == ExcludeDead && c.cfg.CommitDeadline > 0 {
			if reps := c.rounds[c.next]; len(reps) > 0 {
				openSince := int64(0)
				for _, rep := range reps {
					if openSince == 0 || rep.at < openSince {
						openSince = rep.at
					}
				}
				if now-openSince > int64(c.cfg.CommitDeadline) {
					for r := 1; r < world; r++ {
						if _, in := reps[r]; !in && !c.dead[r] {
							c.markDeadLocked(r, DeadCauseDeadline)
						}
					}
				}
			}
		}
		bcasts := c.tryCommitLocked()
		c.mu.Unlock()
		c.sendAll(bcasts)
		c.wake()
		for r := 1; r < world; r++ {
			// Dead ranks are pinged too: a pong from one is how a hung (not
			// crashed) rank announces it recovered.
			c.sendOne(r, Message{Kind: KindPing, Seq: probe})
		}
	}
}

// peerEvent is the TCP transport's connectivity hook (rank 0 only).
func (c *Coordinator) peerEvent(rank int, up bool) {
	if rank <= 0 || rank >= c.tr.WorldSize() {
		return
	}
	c.mu.Lock()
	if up {
		// A fresh session attached; liveness resumes. Round bookkeeping is
		// re-anchored by the worker's hello, not here — the connection
		// alone says nothing about which rounds its reports belong to.
		c.lastHeard[rank] = time.Now().UnixNano()
		c.mu.Unlock()
		return
	}
	c.markDeadLocked(rank, DeadCauseConn)
	bcasts := c.tryCommitLocked()
	c.mu.Unlock()
	c.sendAll(bcasts)
	c.wake()
}

// touchLocked records liveness evidence from a rank. Any frame from a
// dead-marked rank revives it (its reports resume counting toward rounds);
// the round anchor is NOT reset here — only an explicit hello re-anchors,
// because a rank that was merely slow (not restarted) continues its old
// sequence numbering.
func (c *Coordinator) touchLocked(rank int) {
	c.lastHeard[rank] = time.Now().UnixNano()
	if c.dead[rank] {
		c.markLiveLocked(rank)
	}
}

func (c *Coordinator) markDeadLocked(rank int, cause int64) {
	if c.dead[rank] {
		return
	}
	c.dead[rank] = true
	if c.obsv != nil {
		c.obsv.Emit(obs.Event{
			TS: time.Now().UnixNano(), Phase: obs.PhaseRankDead,
			Counter: c.peerCheck, Value: cause,
			Slot: -1, Writer: -1, Rank: int32(rank),
		})
	}
}

func (c *Coordinator) markLiveLocked(rank int) {
	if !c.dead[rank] {
		return
	}
	c.dead[rank] = false
	if c.obsv != nil {
		c.obsv.Emit(obs.Event{
			TS: time.Now().UnixNano(), Phase: obs.PhaseRankRejoined,
			Counter: c.peerCheck,
			Slot:    -1, Writer: -1, Rank: int32(rank),
		})
	}
}

// addReportLocked banks a rank's report: its seq-th report of the current
// session belongs to round baseRound+seq. It returns false for a report
// whose round already committed (a slow or replayed frame); a duplicate
// for an open round overwrites harmlessly (same rank, same round, same
// ID) and counts as fresh.
func (c *Coordinator) addReportLocked(rank int, id uint64, seq uint64) bool {
	round := c.baseRound[rank] + seq
	if round < c.next {
		return false
	}
	if c.rounds[round] == nil {
		c.rounds[round] = make(map[int]report)
	}
	c.rounds[round][rank] = report{id: id, at: time.Now().UnixNano()}
	return true
}

// tryCommitLocked commits every completable round in order and returns the
// broadcast frames to send (after releasing c.mu — a slow peer connection
// must not stall the protocol under the lock). A round is completable when
// every rank has either reported or — under ExcludeDead — is dead. The
// broadcast ID is the post-advance consistent ID, which keeps the stream
// of commit IDs monotone even when a restarted rank reports an older
// checkpoint than a previous round agreed on.
func (c *Coordinator) tryCommitLocked() []Message {
	world := c.tr.WorldSize()
	var out []Message
	for {
		r := c.rounds[c.next]
		if len(r) == 0 {
			break
		}
		complete := true
		excluded := 0
		for rank := 0; rank < world; rank++ {
			if _, in := r[rank]; in {
				continue
			}
			if c.cfg.Degraded == ExcludeDead && rank != 0 && c.dead[rank] {
				excluded++
				continue
			}
			complete = false
			break
		}
		if !complete {
			if c.obsv != nil {
				c.noteStallLocked(r, world)
			}
			break
		}
		agreed := ^uint64(0)
		for _, rep := range r {
			if rep.id < agreed {
				agreed = rep.id
			}
		}
		if c.obsv != nil {
			c.decideDegradedLocked(excluded)
		}
		c.emitGateLocked(r, agreed)
		c.advanceLocked(agreed)
		for peer := 1; peer < world; peer++ {
			// Dead peers are broadcast to as well: over Local their inbox
			// may still drain after a hang, and a commit landing there is
			// exactly what un-stalls a worker whose report was lost.
			out = append(out, Message{Kind: KindCommit, CheckpointID: c.peerCheck, Seq: c.next})
		}
		delete(c.rounds, c.next)
		c.next++
	}
	return out
}

// deadCountLocked counts ranks currently considered dead.
func (c *Coordinator) deadCountLocked() int {
	n := 0
	for _, d := range c.dead {
		if d {
			n++
		}
	}
	return n
}

// stall is an open Stall decision: its id and when the round blocked.
type stall struct {
	id    uint64
	at    int64
	ranks int32 // dead ranks when the round blocked
}

// noteStallLocked emits a degraded-commit decision, open and unscored,
// when the current round is blocked *solely* by dead ranks under the Stall
// policy — the point where ExcludeDead would have committed and Stall
// chose to wait. decideDegradedLocked re-emits it under the same id with
// the measured stall once the round commits. Blocked rounds missing a live
// rank's report are ordinary coordination, not a policy decision.
func (c *Coordinator) noteStallLocked(r map[int]report, world int) {
	if c.cfg.Degraded != Stall {
		return
	}
	for rank := 0; rank < world; rank++ {
		if _, in := r[rank]; in {
			continue
		}
		if rank == 0 || !c.dead[rank] {
			return
		}
	}
	if _, open := c.stalls[c.next]; open {
		return
	}
	if c.stalls == nil {
		c.stalls = make(map[uint64]stall)
	}
	st := stall{id: obs.NewDecisionID(), at: time.Now().UnixNano(), ranks: int32(c.deadCountLocked())}
	c.stalls[c.next] = st
	c.emitStallLocked(st, 0, obs.OutStalled)
}

// emitStallLocked emits a Stall decision against ExcludeDead, which would
// commit the round now at no stall cost, trading global completeness for
// liveness.
func (c *Coordinator) emitStallLocked(st stall, waited int64, out obs.DecisionOutcome) {
	obs.EmitDecision(c.obsv, st.id, obs.DecisionDegraded, int64(c.next), out,
		obs.Choice{Action: obs.ActStall, Arg: st.ranks, Cost: waited},
		obs.Choice{Action: obs.ActExcludeDead, Arg: st.ranks, Eligible: true})
}

// decideDegradedLocked closes a pending Stall decision of this round with
// the measured stall, and emits an ExcludeDead commit that actually skipped
// dead ranks (excluded > 0). The latter has zero regret by construction —
// the rejected stall could only have waited longer — so its decision
// documents the trade; the stall is priced at the heartbeat timeout, the
// minimum silence that declared the rank dead in the first place.
func (c *Coordinator) decideDegradedLocked(excluded int) {
	if st, open := c.stalls[c.next]; open {
		delete(c.stalls, c.next)
		c.emitStallLocked(st, max(0, time.Now().UnixNano()-st.at), obs.OutCommitted)
	}
	if excluded == 0 {
		return
	}
	obs.EmitDecision(c.obsv, obs.NewDecisionID(), obs.DecisionDegraded, int64(c.next), obs.OutExcluded,
		obs.Choice{Action: obs.ActExcludeDead, Arg: int32(excluded)},
		obs.Choice{Action: obs.ActStall, Cost: int64(c.cfg.HeartbeatTimeout), Eligible: true})
}

// sendAll delivers commit broadcasts, round-robining ranks 1..world-1 in
// the order tryCommitLocked emitted them (world-1 frames per round).
func (c *Coordinator) sendAll(msgs []Message) {
	world := c.tr.WorldSize()
	for i, m := range msgs {
		c.sendOne(1+i%(world-1), m)
	}
}

// sendOne is a bounded best-effort protocol send.
func (c *Coordinator) sendOne(to int, m Message) {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.SendTimeout)
	_ = c.tr.Send(ctx, to, m)
	cancel()
}

// wake nudges the (single, commitMu-serialized) blocked waiter, if any.
func (c *Coordinator) wake() {
	select {
	case c.notify <- struct{}{}:
	default:
	}
}

func (c *Coordinator) emitDropped(m Message, reason int64) {
	c.mu.Lock()
	o := c.obsv
	c.mu.Unlock()
	if o == nil {
		return
	}
	o.Emit(obs.Event{
		TS: time.Now().UnixNano(), Phase: obs.PhaseFrameDropped,
		Counter: m.CheckpointID, Value: reason,
		Slot: -1, Writer: -1, Rank: int32(m.From),
	})
}

// emitGateLocked records a committed round's straggler: the rank whose
// report gated the agreement. With distinct IDs that is the unique oldest
// reporter; when the oldest ID ties (the common case — every rank reports
// the same counter) the last report to arrive is what held the round
// open, so that rank gates instead.
func (c *Coordinator) emitGateLocked(r map[int]report, agreed uint64) {
	if c.obsv == nil || len(r) == 0 {
		return
	}
	var (
		first, last int64
		lastRank    int
		minRank     = -1
		minTied     bool
		maxID       uint64
	)
	for rank, rep := range r {
		if first == 0 || rep.at < first {
			first = rep.at
		}
		if rep.at > last {
			last, lastRank = rep.at, rank
		}
		if rep.id > maxID {
			maxID = rep.id
		}
		if rep.id == agreed {
			minTied = minRank >= 0
			if minRank < 0 {
				minRank = rank
			}
		}
	}
	gating := minRank
	if minTied {
		gating = lastRank
	}
	c.obsv.Emit(obs.Event{
		TS: first, Dur: last - first,
		Phase: obs.PhaseAgreeGate, Counter: agreed,
		Value: int64(maxID - agreed),
		Slot:  -1, Writer: -1, Rank: int32(gating),
	})
}

func (c *Coordinator) advanceLocked(id uint64) {
	if id > c.peerCheck {
		c.peerCheck = id
	}
}
