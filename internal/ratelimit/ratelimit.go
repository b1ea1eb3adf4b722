// Package ratelimit is the system's one rate limiter: a weighted
// virtual-scheduling (GCRA-style) limiter with an injectable clock. A
// concurrent sweep shares one so the paper's "12–15 probes/second across
// the whole scan" budget is an enforced aggregate bound however many
// workers probe (each probe reserves weight 1); a federation feed owns two
// so one connection stays under a frame rate (weight 1 per frame) and a
// byte rate (weight = the frame's wire length). The limiter cannot tell
// which of them is calling.
//
// The package imports nothing from this module.
package ratelimit

import (
	"context"
	"math"
	"sync"
	"time"
)

// Limiter admits weight at Rate units per second with a burst allowance.
// Rather than a fractional token balance it tracks one instant — when the
// allowance would be whole again — which is exact (no drift from float
// accumulation across millions of reservations) and O(1) per reservation.
//
// A reservation heavier than the whole burst is still admissible: it waits
// only for the part the burst does not cover, and the reservations behind
// it pay off the rest — the long-run rate holds, and one oversize item (a
// bootstrap snapshot frame larger than a second of byte budget) cannot
// wedge its caller.
type Limiter struct {
	mu sync.Mutex
	// rate is weight per second; <= 0 disables limiting entirely.
	rate float64
	// credit is the time the burst allowance is worth (burst/rate).
	credit time.Duration
	// full is the virtual instant at which the allowance is whole again;
	// every reservation pushes it out by weight/rate.
	full time.Time

	now   func() time.Time
	sleep func(ctx context.Context, d time.Duration) error
}

// New builds a limiter admitting rate units of weight per second with the
// given burst allowance (clamped to at least 1). rate <= 0 builds an
// unlimited limiter: Reserve never owes and Wait only checks for
// cancellation.
func New(rate, burst float64) *Limiter {
	l := &Limiter{rate: rate, now: time.Now, sleep: Sleep}
	if rate > 0 {
		l.credit = l.cost(math.Max(burst, 1))
	}
	return l
}

// SetClock replaces the wall clock and the context-aware sleep, so tests
// and virtual-time callers pace deterministically. Call before first use.
func (l *Limiter) SetClock(now func() time.Time, sleep func(ctx context.Context, d time.Duration) error) {
	l.now, l.sleep = now, sleep
}

// cost is how long the rate takes to earn back weight, rounded up so a
// reservation is never under-charged.
func (l *Limiter) cost(weight float64) time.Duration {
	return time.Duration(math.Ceil(weight / l.rate * float64(time.Second)))
}

// Reserve charges weight now and returns how long the caller owes before
// acting on it (zero inside the budget). Reservations are granted in call
// order: concurrent callers are admitted FIFO, one slot each, and the
// aggregate admitted weight never exceeds rate·t + burst over any
// interval t — but for a single oversize reservation, which then owes
// its whole excess.
func (l *Limiter) Reserve(weight float64) time.Duration {
	if l.rate <= 0 {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	// Idle time refills the allowance, but never beyond the burst.
	if l.full.Before(now) {
		l.full = now
	}
	l.full = l.full.Add(l.cost(weight))
	return max(l.full.Add(-l.credit).Sub(now), 0)
}

// Wait reserves weight and sleeps off what it owes, or returns ctx's error
// if ctx is done first (the reservation stays charged).
func (l *Limiter) Wait(ctx context.Context, weight float64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d := l.Reserve(weight); d > 0 {
		return l.sleep(ctx, d)
	}
	return nil
}

// Sleep pauses for d or until ctx is done, returning ctx's error then.
func Sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
