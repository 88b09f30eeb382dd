package core

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"pccheck/internal/obs"
	"pccheck/internal/storage"
)

// RetryPolicy governs how the engine reacts to transient device faults
// (storage.ClassTransient): each persist-path I/O is attempted up to
// MaxAttempts times with exponential backoff and jitter between attempts.
// Permanent and corrupt errors are never retried — they fail the operation
// on the first occurrence.
//
// The zero value retries nothing (MaxAttempts 1), which is the engine's
// historical behavior.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per I/O operation,
	// including the first. Values < 1 behave as 1 (no retry).
	MaxAttempts int
	// BaseBackoff is the delay before the first retry (default 1ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth (default 100ms).
	MaxBackoff time.Duration
	// Multiplier grows the backoff between attempts (default 2).
	Multiplier float64
	// Jitter randomizes each backoff by ±Jitter fraction so concurrent
	// writers hitting the same fault don't retry in lockstep. 0 defaults
	// to 0.2; negative disables jitter.
	Jitter float64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 100 * time.Millisecond
	}
	if p.MaxBackoff < p.BaseBackoff {
		p.MaxBackoff = p.BaseBackoff
	}
	if p.Multiplier < 1 {
		p.Multiplier = 2
	}
	if p.Jitter == 0 {
		p.Jitter = 0.2
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	}
	return p
}

// backoff returns the sleep before retry number n (1-based), jittered.
func (p RetryPolicy) backoff(n int) time.Duration {
	d := float64(p.BaseBackoff)
	for i := 1; i < n; i++ {
		d *= p.Multiplier
		if d >= float64(p.MaxBackoff) {
			d = float64(p.MaxBackoff)
			break
		}
	}
	if p.Jitter > 0 {
		d *= 1 + p.Jitter*(2*rand.Float64()-1)
	}
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}

// retryIO runs op, absorbing transient device faults per the engine's
// RetryPolicy. Every absorbed fault increments Stats.TransientFaults; every
// retry taken increments Stats.IORetries. Permanent and corrupt errors
// return immediately, as does ctx cancellation during backoff. When the
// attempt budget is exhausted the last (still transient-classified) error is
// returned wrapped with the attempt count.
func (c *Checkpointer) retryIO(ctx context.Context, op func() error) error {
	pol := c.cfg.Retry
	// backoffNS accumulates the sleep the policy spent absorbing transient
	// faults; a sequence that saw at least one fault is a retry decision.
	var backoffNS int64
	faulted := false
	for attempt := 1; ; attempt++ {
		err := op()
		if err == nil {
			if faulted {
				c.decideRetry(backoffNS, obs.OutRecovered)
			}
			return nil
		}
		if storage.Classify(err) != storage.ClassTransient {
			if faulted {
				c.decideRetry(backoffNS, obs.OutFailed)
			}
			return err
		}
		faulted = true
		c.stats.TransientFaults.Add(1)
		c.instant(obs.PhaseFault, 0, -1, 0, 0)
		if attempt >= pol.MaxAttempts {
			c.decideRetry(backoffNS, obs.OutExhausted)
			if pol.MaxAttempts == 1 {
				return err
			}
			return fmt.Errorf("core: %d attempts exhausted: %w", attempt, err)
		}
		c.stats.IORetries.Add(1)
		backoff := pol.backoff(attempt)
		backoffStart := c.obsNow()
		select {
		case <-ctx.Done():
			c.decideRetry(backoffNS, obs.OutFailed)
			return ctx.Err()
		case <-time.After(backoff):
		}
		backoffNS += int64(backoff)
		if c.obsv != nil {
			c.obsv.Emit(obs.Event{
				TS: backoffStart, Dur: time.Now().UnixNano() - backoffStart,
				Phase: obs.PhaseIORetry, Slot: -1, Writer: -1, Rank: -1,
				Attempt: int32(attempt),
			})
		}
	}
}

// decideRetry emits a finished retry sequence as a decision: the policy's
// backoff against failing fast (eligible only when the operation failed
// anyway, so backoff that salvaged it has no regret) and against twice
// the attempt budget at twice the backoff.
func (c *Checkpointer) decideRetry(backoffNS int64, out obs.DecisionOutcome) {
	if c.obsv == nil {
		return
	}
	budget := int32(c.cfg.Retry.MaxAttempts)
	obs.EmitDecision(c.obsv, obs.NewDecisionID(), obs.DecisionRetry, 0, out,
		obs.Choice{Action: obs.ActRetry, Arg: budget, Cost: backoffNS},
		obs.Choice{Action: obs.ActFailFast, Eligible: out != obs.OutRecovered},
		obs.Choice{Action: obs.ActRetry, Arg: 2 * budget, Cost: 2 * backoffNS, Eligible: true})
}
