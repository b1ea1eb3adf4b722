package ratelimit

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// fakeClock is a mutex-protected virtual clock: sleeps advance it instead
// of blocking.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 7, 30, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
	return nil
}

// TestLimiterVirtualAdherence pins the exact pacing of unit reservations
// on a virtual clock: n admissions at rate r advance time by (n-burst)/r.
func TestLimiterVirtualAdherence(t *testing.T) {
	for _, tc := range []struct {
		rate  float64
		burst int
		n     int
	}{{10, 1, 21}, {100, 1, 101}, {50, 5, 55}} {
		clk := newFakeClock()
		l := New(tc.rate, float64(tc.burst))
		l.SetClock(clk.Now, clk.Sleep)
		start := clk.Now()
		for i := 0; i < tc.n; i++ {
			if err := l.Wait(context.Background(), 1); err != nil {
				t.Fatal(err)
			}
		}
		got := clk.Now().Sub(start)
		want := time.Duration(float64(tc.n-tc.burst) / tc.rate * float64(time.Second))
		if diff := got - want; diff < -time.Millisecond || diff > time.Millisecond {
			t.Errorf("rate=%v burst=%d: %d waits advanced %v, want %v",
				tc.rate, tc.burst, tc.n, got, want)
		}
	}
}

// TestLimiterWallClockAdherence checks the aggregate bound with
// concurrent waiters on the real clock: 8 goroutines must not beat the
// one limiter they share.
func TestLimiterWallClockAdherence(t *testing.T) {
	l := New(2000, 1)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				if err := l.Wait(context.Background(), 1); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// 119 paced admissions at 2000/s is ~59.5ms; allow generous scheduling
	// slop downward but catch a limiter that lets waiters run free.
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Errorf("120 admissions in %v: rate limit not enforced", elapsed)
	}
}

// TestLimiterFIFO freezes the clock and lets concurrent waiters reserve:
// whatever order they arrive in, each is handed its own consecutive slot —
// none shared, none skipped — which is FIFO admission in reservation
// order.
func TestLimiterFIFO(t *testing.T) {
	const waiters = 64
	clk := newFakeClock()
	var mu sync.Mutex
	var owed []time.Duration
	l := New(100, 1)
	l.SetClock(clk.Now, func(_ context.Context, d time.Duration) error {
		mu.Lock()
		owed = append(owed, d)
		mu.Unlock()
		return nil
	})
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = l.Wait(context.Background(), 1)
		}()
	}
	wg.Wait()
	// The first reservation owes nothing and so never sleeps.
	if len(owed) != waiters-1 {
		t.Fatalf("%d waiters slept, want %d", len(owed), waiters-1)
	}
	sort.Slice(owed, func(i, j int) bool { return owed[i] < owed[j] })
	for i, d := range owed {
		if want := time.Duration(i+1) * 10 * time.Millisecond; d != want {
			t.Fatalf("slot %d owes %v, want %v", i+1, d, want)
		}
	}
}

func TestLimiterCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := New(0, 0).Wait(ctx, 1); !errors.Is(err, context.Canceled) {
		t.Errorf("unlimited Wait on cancelled ctx = %v", err)
	}
	l := New(1, 1) // 1/s: the second Wait must block, then abort
	if err := l.Wait(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel2()
	if err := l.Wait(ctx2, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("blocked Wait = %v, want deadline exceeded", err)
	}
}

// TestLimiterWeightedVirtualClock drives weighted reservations on a
// synthetic clock: inside the burst nothing is owed, beyond it the debt
// equals the deficit over the rate, and idle time refills up to the burst
// and no further.
func TestLimiterWeightedVirtualClock(t *testing.T) {
	clk := newFakeClock()
	l := New(10, 10) // 10 units/s, burst 10
	l.SetClock(clk.Now, clk.Sleep)

	if w := l.Reserve(10); w != 0 {
		t.Fatalf("burst reservation owes %s", w)
	}
	// Allowance spent: 5 more units owe 500ms at 10/s.
	if w := l.Reserve(5); w != 500*time.Millisecond {
		t.Fatalf("deficit reservation owes %s, want 500ms", w)
	}
	// Two seconds later the allowance refilled (capped at burst 10): a
	// 10-unit reservation passes free again.
	_ = clk.Sleep(context.Background(), 2*time.Second)
	if w := l.Reserve(10); w != 0 {
		t.Fatalf("post-refill reservation owes %s", w)
	}
	// Refill never exceeds the burst: after a long idle gap one burst is
	// free, the next charge owes immediately.
	_ = clk.Sleep(context.Background(), time.Hour)
	l.Reserve(10)
	if w := l.Reserve(10); w != time.Second {
		t.Fatalf("burst-capped reservation owes %s, want 1s", w)
	}
}

// TestLimiterDisabled pins the zero-rate bypass.
func TestLimiterDisabled(t *testing.T) {
	if w := New(0, 0).Reserve(1e9); w != 0 {
		t.Fatalf("disabled limiter owes %s", w)
	}
}

// TestLimiterNeverExceedsRatePlusBurst is the property both former
// limiters promised and neither suite stated: for any seeded sequence of
// weighted reservations (idle gaps, bursts, oversize items) on a virtual
// clock, the weight admitted over any interval t is at most rate·t +
// burst — except that a window opening on an oversize reservation may
// carry that one item whole, after which every later admission is paid
// for in full (no burst credit until the debt is gone).
func TestLimiterNeverExceedsRatePlusBurst(t *testing.T) {
	type admission struct {
		at     time.Duration // since start
		weight float64
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rate := []float64{3, 15, 1000, 1 << 20}[rng.Intn(4)]
		burst := float64(1 + rng.Intn(50))
		clk := newFakeClock()
		start := clk.Now()
		l := New(rate, burst)
		l.SetClock(clk.Now, clk.Sleep)

		var adm []admission
		for i := 0; i < 400; i++ {
			var w float64
			switch rng.Intn(10) {
			case 0: // oversize
				w = burst * (1 + 3*rng.Float64())
			case 1, 2, 3:
				w = 1
			default:
				w = burst * rng.Float64()
			}
			if rng.Intn(4) == 0 { // idle gap, sometimes long enough to refill
				_ = clk.Sleep(context.Background(), time.Duration(rng.Float64()*2*burst/rate*float64(time.Second)))
			}
			if err := l.Wait(context.Background(), w); err != nil {
				t.Fatal(err)
			}
			adm = append(adm, admission{clk.Now().Sub(start), w})
		}

		// Durations are whole nanoseconds: allow one tick of rate per
		// bound, plus float slack on the sums.
		eps := rate*2e-9 + 1e-6
		for i := range adm {
			sum := 0.0
			for j := i; j < len(adm); j++ {
				sum += adm[j].weight
				budget := rate*(adm[j].at-adm[i].at).Seconds() + burst
				if first := adm[i].weight; first > burst {
					budget += first - burst
				}
				if sum > budget*(1+1e-9)+eps {
					t.Fatalf("seed %d rate %v burst %v: admissions %d..%d carry %.3f in %v, budget %.3f",
						seed, rate, burst, i, j, sum, adm[j].at-adm[i].at, budget)
				}
			}
		}
	}
}
