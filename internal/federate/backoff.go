package federate

import (
	"time"

	"servdisc/internal/stats"
)

// BackoffConfig shapes a feed's reconnect schedule: exponential growth
// from Base with full jitter (each delay is uniform in (0, ceiling],
// the AWS "full jitter" policy — decorrelated fleets never thunder), a
// hard Cap, and reset-on-success (a connection that stayed up at least
// resetAfter, or delivered at least one applied frame, starts the
// schedule over).
type BackoffConfig struct {
	// Base is the first-retry ceiling. Zero means 2s (the historical
	// fixed -retry default, now the base of the schedule).
	Base time.Duration
	// Cap bounds the ceiling. Zero means 1m.
	Cap time.Duration
	// Seed makes the jitter deterministic for tests; zero derives a seed
	// from the wall clock.
	Seed uint64
}

func (c BackoffConfig) withDefaults() BackoffConfig {
	if c.Base <= 0 {
		c.Base = 2 * time.Second
	}
	if c.Cap <= 0 {
		c.Cap = time.Minute
	}
	if c.Cap < c.Base {
		c.Cap = c.Base
	}
	return c
}

// resetAfter is the connection uptime that counts as success even if no
// frame arrived.
const resetAfter = 30 * time.Second

// backoff is one feed's reconnect-delay state. Not safe for concurrent
// use; each feed loop owns one.
type backoff struct {
	cfg     BackoffConfig
	attempt int
	rng     *stats.RNG
}

func newBackoff(cfg BackoffConfig) *backoff {
	cfg = cfg.withDefaults()
	seed := cfg.Seed
	if seed == 0 {
		seed = uint64(time.Now().UnixNano())
	}
	return &backoff{cfg: cfg, rng: stats.NewRNG(seed).Derive("feed-backoff")}
}

// next draws the delay before the next attempt and advances the schedule.
func (b *backoff) next() time.Duration {
	ceiling := b.cfg.Cap
	if shifted := b.cfg.Base << uint(b.attempt); b.attempt < 32 && shifted < ceiling {
		ceiling = shifted
	}
	if b.attempt < 62 {
		b.attempt++
	}
	// Full jitter over (0, ceiling]: 1-Float64() is in (0, 1], so two
	// racing feeds never share a delay and no delay collapses to zero.
	return time.Duration((1 - b.rng.Float64()) * float64(ceiling))
}

// observe feeds back one connection's outcome: long-enough uptime or any
// applied frame resets the schedule to the base.
func (b *backoff) observe(uptime time.Duration, delivered bool) {
	if delivered || uptime >= resetAfter {
		b.attempt = 0
	}
}

// ceiling reports the current un-jittered next-delay ceiling — the
// backoff-state gauge surfaced per feed.
func (b *backoff) ceiling() time.Duration {
	c := b.cfg.Cap
	if shifted := b.cfg.Base << uint(b.attempt); b.attempt < 32 && shifted < c {
		c = shifted
	}
	return c
}
