package probe

import (
	"context"
	"errors"
	"hash/fnv"
	"net"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"servdisc/internal/campus"
	"servdisc/internal/netaddr"
)

// fakeClock is a mutex-protected virtual clock for deterministic limiter
// tests: sleeps advance it instead of blocking.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
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

// stubBackend classifies from fixed maps, counting probes.
type stubBackend struct {
	tcp    map[netaddr.V4]map[uint16]TCPState // default StateFiltered
	udp    map[netaddr.V4]map[uint16]UDPState // default UDPNoResponse
	probes atomic.Int64
	// work adds CPU-bound busywork per probe (benchmark use).
	work int
}

func (b *stubBackend) ProbeTCP(_ time.Time, addr netaddr.V4, port uint16) TCPState {
	b.probes.Add(1)
	b.spin(addr, port)
	if m, ok := b.tcp[addr]; ok {
		if s, ok := m[port]; ok {
			return s
		}
	}
	return StateFiltered
}

func (b *stubBackend) ProbeUDP(_ time.Time, addr netaddr.V4, port uint16) UDPState {
	b.probes.Add(1)
	b.spin(addr, port)
	if m, ok := b.udp[addr]; ok {
		if s, ok := m[port]; ok {
			return s
		}
	}
	return UDPNoResponse
}

func (b *stubBackend) spin(addr netaddr.V4, port uint16) {
	if b.work <= 0 {
		return
	}
	h := fnv.New64a()
	var buf [6]byte
	buf[0], buf[1], buf[2], buf[3] = byte(addr>>24), byte(addr>>16), byte(addr>>8), byte(addr)
	buf[4], buf[5] = byte(port>>8), byte(port)
	for i := 0; i < b.work; i++ {
		h.Write(buf[:])
	}
	_ = h.Sum64()
}

func addrs(n int) []netaddr.V4 {
	out := make([]netaddr.V4, n)
	base := netaddr.MustParseV4("10.0.0.1")
	for i := range out {
		out[i] = base + netaddr.V4(i)
	}
	return out
}

// TestSchedulerRateAdherenceVirtual runs a single-worker sweep on the
// virtual clock and checks the sweep occupies exactly the budgeted time.
func TestSchedulerRateAdherenceVirtual(t *testing.T) {
	backend := &stubBackend{}
	s := NewScheduler(backend, SchedulerConfig{
		Targets:  addrs(30),
		TCPPorts: []uint16{80, 443},
		UDPPorts: []uint16{53},
		Rate:     15,
		Workers:  1,
	})
	clk := &fakeClock{now: time.Date(2026, 7, 30, 0, 0, 0, 0, time.UTC)}
	s.clock = clk.Now
	s.limiter.SetClock(clk.Now, clk.Sleep)

	rep, err := s.Sweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	probes := int64(30 * 3)
	if got := backend.probes.Load(); got != probes {
		t.Fatalf("probes = %d, want %d", got, probes)
	}
	want := time.Duration(float64(probes-1) / 15 * float64(time.Second))
	got := rep.Finished.Sub(rep.Started)
	if diff := got - want; diff < -time.Millisecond || diff > time.Millisecond {
		t.Errorf("sweep occupied %v, want %v", got, want)
	}
}

// TestSchedulerRateAdherenceWallClock checks the aggregate bound holds
// with a concurrent worker pool on the real clock: 8 workers must not beat
// the shared token bucket.
func TestSchedulerRateAdherenceWallClock(t *testing.T) {
	backend := &stubBackend{}
	s := NewScheduler(backend, SchedulerConfig{
		Targets:  addrs(40),
		TCPPorts: []uint16{80, 443, 22},
		Rate:     2000,
		Workers:  8,
	})
	start := time.Now()
	rep, err := s.Sweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if got := len(rep.TCP); got != 120 {
		t.Fatalf("results = %d, want 120", got)
	}
	// 119 paced probes at 2000/s is ~59.5ms; allow generous scheduling
	// slop downward but catch a limiter that lets workers run free.
	if elapsed < 40*time.Millisecond {
		t.Errorf("sweep finished in %v: rate limit not enforced", elapsed)
	}
}

// TestSchedulerCancellationMidSweep cancels a rate-limited sweep partway
// and requires a well-formed, canonically-ordered partial report.
func TestSchedulerCancellationMidSweep(t *testing.T) {
	backend := &stubBackend{}
	s := NewScheduler(backend, SchedulerConfig{
		Targets:  addrs(100),
		TCPPorts: []uint16{80, 443},
		Rate:     200, // full sweep would take ~1s
		Workers:  4,
	})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	rep, err := s.Sweep(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Sweep = %v, want canceled", err)
	}
	if !rep.Truncated {
		t.Error("partial report not marked truncated")
	}
	if len(rep.TCP) == 0 || len(rep.TCP) >= 200 {
		t.Errorf("partial report has %d results", len(rep.TCP))
	}
	// Canonical order survives truncation: target-major, then port order.
	for i := 1; i < len(rep.TCP); i++ {
		a, b := rep.TCP[i-1], rep.TCP[i]
		if a.Addr > b.Addr || (a.Addr == b.Addr && a.Port >= b.Port) {
			t.Fatalf("result %d out of canonical order: %v:%d after %v:%d",
				i, b.Addr, b.Port, a.Addr, a.Port)
		}
	}
}

// TestSchedulerSweepDeadline lets the per-sweep deadline truncate sweeps
// while the schedule keeps running: Run still delivers every report.
func TestSchedulerSweepDeadline(t *testing.T) {
	backend := &stubBackend{}
	s := NewScheduler(backend, SchedulerConfig{
		Targets:      addrs(100),
		TCPPorts:     []uint16{80, 443},
		Rate:         500, // a full sweep would need 400ms
		Workers:      4,
		SweepTimeout: 50 * time.Millisecond,
	})
	var reports []*ScanReport
	err := s.Run(context.Background(), 0, 3, ReportFunc(func(rep *ScanReport) {
		reports = append(reports, rep)
	}))
	if err != nil {
		t.Fatalf("Run = %v", err)
	}
	if len(reports) != 3 {
		t.Fatalf("delivered %d reports, want 3", len(reports))
	}
	for i, rep := range reports {
		if rep.ID != i {
			t.Errorf("report %d has ID %d", i, rep.ID)
		}
		if !rep.Truncated {
			t.Errorf("report %d not truncated by the sweep deadline", i)
		}
		if len(rep.TCP) == 0 {
			t.Errorf("report %d is empty", i)
		}
	}
}

func TestSchedulerRunCancelled(t *testing.T) {
	s := NewScheduler(&stubBackend{}, SchedulerConfig{
		Targets:  addrs(50),
		TCPPorts: []uint16{80},
		Rate:     100,
		Workers:  2,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	var got int
	err := s.Run(ctx, time.Hour, 5, ReportFunc(func(*ScanReport) { got++ }))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run = %v, want deadline exceeded", err)
	}
	if got != 1 {
		t.Errorf("delivered %d reports before cancellation, want 1", got)
	}
}

// TestSchedulerDeterministicAcrossWorkerCounts fixes the clock and sweeps
// the simulated campus with 1, 2, and 8 workers: the reports must be
// identical, interleaving notwithstanding.
func TestSchedulerDeterministicAcrossWorkerCounts(t *testing.T) {
	network, err := campus.NewNetwork(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	backend := &SimBackend{Net: network}
	fixed := network.Config().Start
	targets := network.Plan().ProbeTargets()[:300]

	var ref *ScanReport
	for _, workers := range []int{1, 2, 8} {
		s := NewScheduler(backend, SchedulerConfig{
			Targets:  targets,
			TCPPorts: campus.SelectedTCPPorts,
			UDPPorts: []uint16{campus.UDPPortDNS},
			Workers:  workers,
		})
		s.clock = func() time.Time { return fixed }
		rep, err := s.Sweep(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = rep
			if rep.OpenAddrs().Len() == 0 {
				t.Fatal("sweep found no servers")
			}
			continue
		}
		rep.ID = ref.ID // IDs are per-scheduler; everything else must match
		if !reflect.DeepEqual(ref, rep) {
			t.Fatalf("workers=%d: report differs from single-worker reference", workers)
		}
	}
}

// TestSchedulerCompactMatchesFull checks compact-mode summaries aggregate
// exactly what full mode records.
func TestSchedulerCompactMatchesFull(t *testing.T) {
	network, err := campus.NewNetwork(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	backend := &SimBackend{Net: network}
	fixed := network.Config().Start
	targets := network.Plan().ProbeTargets()[:200]
	sweep := func(compact bool) *ScanReport {
		s := NewScheduler(backend, SchedulerConfig{
			Targets:  targets,
			TCPPorts: campus.SelectedTCPPorts,
			Workers:  4,
			Compact:  compact,
		})
		s.clock = func() time.Time { return fixed }
		rep, err := s.Sweep(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	full, compact := sweep(false), sweep(true)
	if len(compact.TCP) != 0 {
		t.Fatal("compact report kept per-probe results")
	}
	if len(compact.Summaries) != len(targets) {
		t.Fatalf("%d summaries, want %d", len(compact.Summaries), len(targets))
	}
	byAddr := make(map[netaddr.V4]*AddrSummary, len(targets))
	for i := range compact.Summaries {
		byAddr[compact.Summaries[i].Addr] = &compact.Summaries[i]
	}
	for _, res := range full.TCP {
		sum := byAddr[res.Addr]
		if sum == nil {
			t.Fatalf("no summary for %v", res.Addr)
		}
		switch res.State {
		case StateOpen:
			found := false
			for _, p := range sum.Open {
				found = found || p == res.Port
			}
			if !found {
				t.Fatalf("summary for %v missing open port %d", res.Addr, res.Port)
			}
		}
	}
	if full.OpenAddrs().Len() != compact.OpenAddrs().Len() {
		t.Fatalf("open addrs: full %d, compact %d",
			full.OpenAddrs().Len(), compact.OpenAddrs().Len())
	}
}

// TestSchedulerSimRealParity runs the same scheduler configuration against
// the real-network backend (on loopback listeners) and a simulated backend
// configured with the same ground truth, and requires the classifications
// to agree — the contract that lets experiments move between the sim and
// real deployments.
func TestSchedulerSimRealParity(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skip("cannot listen on loopback:", err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	_, portStr, _ := net.SplitHostPort(ln.Addr().String())
	open64, _ := strconv.ParseUint(portStr, 10, 16)
	openPort := uint16(open64)
	// Allocate-then-release a second port: (very likely) closed.
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skip(err)
	}
	_, p2Str, _ := net.SplitHostPort(ln2.Addr().String())
	closed64, _ := strconv.ParseUint(p2Str, 10, 16)
	closedPort := uint16(closed64)
	ln2.Close()

	lo := netaddr.MustParseV4("127.0.0.1")
	cfg := SchedulerConfig{
		Targets:  []netaddr.V4{lo},
		TCPPorts: []uint16{openPort, closedPort},
		Rate:     100,
		Workers:  4,
	}
	simulated := &stubBackend{tcp: map[netaddr.V4]map[uint16]TCPState{
		lo: {openPort: StateOpen, closedPort: StateClosed},
	}}

	realRep, err := NewScheduler(&NetBackend{Timeout: 2 * time.Second}, cfg).Sweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	simRep, err := NewScheduler(simulated, cfg).Sweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(realRep.TCP) != len(simRep.TCP) {
		t.Fatalf("result counts differ: real %d, sim %d", len(realRep.TCP), len(simRep.TCP))
	}
	for i := range realRep.TCP {
		r, s := realRep.TCP[i], simRep.TCP[i]
		if r.Addr != s.Addr || r.Port != s.Port || r.State != s.State {
			t.Errorf("result %d: real %v:%d=%v, sim %v:%d=%v",
				i, r.Addr, r.Port, r.State, s.Addr, s.Port, s.State)
		}
	}
}

// BenchmarkScanSweep compares the sequential sweep against the concurrent
// worker pool on a CPU-bound backend (rate limiting off): the concurrent
// scheduler must win on a multi-core runner.
func BenchmarkScanSweep(b *testing.B) {
	cfg := SchedulerConfig{
		Targets:  addrs(256),
		TCPPorts: []uint16{21, 22, 80, 443},
	}
	run := func(b *testing.B, workers int) {
		backend := &stubBackend{work: 400}
		c := cfg
		c.Workers = workers
		s := NewScheduler(backend, c)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Sweep(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		probes := float64(backend.probes.Load())
		b.ReportMetric(probes/b.Elapsed().Seconds(), "probes/s")
	}
	b.Run("sequential", func(b *testing.B) { run(b, 1) })
	b.Run(fmt_workers(), func(b *testing.B) { run(b, runtime.NumCPU()) })
}

func fmt_workers() string {
	return "concurrent-" + strconv.Itoa(runtime.NumCPU())
}

// TestSchedulerOnSweep pins the sweep observer: it fires once per sweep,
// in launch order, before Run hands the report to its sink, and carries
// the truncation cause for sweeps cut short.
func TestSchedulerOnSweep(t *testing.T) {
	var mu sync.Mutex
	var observed []int
	var errs []error
	sinkSeen := 0
	s := NewScheduler(&stubBackend{}, SchedulerConfig{
		Targets:  addrs(4),
		TCPPorts: []uint16{80},
		Workers:  2,
		OnSweep: func(rep *ScanReport, err error) {
			mu.Lock()
			defer mu.Unlock()
			if sinkSeen != len(observed) {
				t.Error("sink ran before the observer")
			}
			observed = append(observed, rep.ID)
			errs = append(errs, err)
		},
	})
	err := s.Run(context.Background(), 0, 3, ReportFunc(func(rep *ScanReport) {
		mu.Lock()
		sinkSeen++
		mu.Unlock()
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(observed) != 3 || sinkSeen != 3 {
		t.Fatalf("observer saw %d sweeps, sink %d, want 3/3", len(observed), sinkSeen)
	}
	for i, id := range observed {
		if id != i {
			t.Errorf("sweep %d observed out of order as %d", i, id)
		}
		if errs[i] != nil {
			t.Errorf("full sweep %d reported cause %v", i, errs[i])
		}
	}

	// A cancelled sweep still reaches the observer, with the cause.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var cancelled []error
	s2 := NewScheduler(&stubBackend{}, SchedulerConfig{
		Targets:  addrs(4),
		TCPPorts: []uint16{80},
		OnSweep: func(rep *ScanReport, err error) {
			if !rep.Truncated {
				t.Error("cancelled sweep not marked truncated")
			}
			cancelled = append(cancelled, err)
		},
	})
	if _, err := s2.Sweep(ctx); err == nil {
		t.Fatal("cancelled sweep returned no error")
	}
	if len(cancelled) != 1 || cancelled[0] == nil {
		t.Fatalf("observer on cancelled sweep: %v", cancelled)
	}
}
