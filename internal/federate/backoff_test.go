package federate

import (
	"testing"
	"time"
)

// TestBackoffFullJitter pins the schedule shape: every delay falls in
// (0, ceiling], ceilings double from Base up to Cap, and the same seed
// replays the same delays.
func TestBackoffFullJitter(t *testing.T) {
	cfg := BackoffConfig{Base: 100 * time.Millisecond, Cap: 2 * time.Second, Seed: 42}
	b := newBackoff(cfg)
	wantCeil := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, 1600 * time.Millisecond, 2 * time.Second,
		2 * time.Second, 2 * time.Second,
	}
	for i, ceil := range wantCeil {
		if got := b.ceiling(); got != ceil {
			t.Fatalf("attempt %d: ceiling = %s, want %s", i, got, ceil)
		}
		d := b.next()
		if d <= 0 || d > ceil {
			t.Fatalf("attempt %d: delay %s outside (0, %s]", i, d, ceil)
		}
	}

	// Determinism: same seed, same draws.
	b1, b2 := newBackoff(cfg), newBackoff(cfg)
	for i := 0; i < 10; i++ {
		if d1, d2 := b1.next(), b2.next(); d1 != d2 {
			t.Fatalf("draw %d: same seed gave %s and %s", i, d1, d2)
		}
	}
}

// TestBackoffResetOnSuccess pins reset semantics: delivering a frame or
// staying up past resetAfter returns the schedule to Base; a short dead
// connection does not.
func TestBackoffResetOnSuccess(t *testing.T) {
	cfg := BackoffConfig{Base: 100 * time.Millisecond, Cap: 10 * time.Second, Seed: 7}
	b := newBackoff(cfg)
	for i := 0; i < 5; i++ {
		b.next()
	}
	if b.ceiling() == cfg.Base {
		t.Fatal("ceiling did not grow over 5 failures")
	}
	b.observe(time.Second, false) // brief uptime, nothing applied: still failing
	if b.ceiling() == cfg.Base {
		t.Fatal("short dead connection reset the schedule")
	}
	b.observe(time.Second, true) // a frame landed: healthy again
	if got := b.ceiling(); got != cfg.Base {
		t.Fatalf("ceiling after delivered frame = %s, want %s", got, cfg.Base)
	}
	for i := 0; i < 5; i++ {
		b.next()
	}
	b.observe(resetAfter, false) // long uptime counts as success too
	if got := b.ceiling(); got != cfg.Base {
		t.Fatalf("ceiling after long uptime = %s, want %s", got, cfg.Base)
	}
}

// TestBackoffDefaults pins the documented zero-value behavior: Base 2s
// (the historical -retry default), Cap 1m, and a Cap below Base raised
// to it.
func TestBackoffDefaults(t *testing.T) {
	d := BackoffConfig{}.withDefaults()
	if d.Base != 2*time.Second || d.Cap != time.Minute {
		t.Fatalf("defaults = %+v", d)
	}
	inv := BackoffConfig{Base: time.Minute, Cap: time.Second}.withDefaults()
	if inv.Cap < inv.Base {
		t.Fatalf("cap %s below base %s survived normalization", inv.Cap, inv.Base)
	}
}
