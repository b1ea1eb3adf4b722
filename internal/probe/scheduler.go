package probe

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"time"

	"servdisc/internal/netaddr"
	"servdisc/internal/obs"
	"servdisc/internal/ratelimit"
)

// Metrics is the scheduler's optional telemetry bundle. All fields are
// nil-safe; a nil bundle skips the extra clock reads.
type Metrics struct {
	// RTT observes each probe's wall-clock round trip (TCP and UDP).
	RTT *obs.Histogram
	// Sweep observes whole-sweep wall durations.
	Sweep *obs.Histogram
	// Flight receives a sweep-completed trace event per sweep.
	Flight *obs.Recorder
}

// ReportSink consumes completed sweep reports — the active-side analogue
// of pipeline.BatchSink. core.ActiveDiscoverer and the engine core.NewHybrid
// builds implement it, which is how scan results flow into the discovery
// pipeline as a first-class source alongside passive capture.
type ReportSink interface {
	AddReport(rep *ScanReport)
}

// ReportFunc adapts a function to ReportSink.
type ReportFunc func(rep *ScanReport)

// AddReport implements ReportSink.
func (f ReportFunc) AddReport(rep *ScanReport) { f(rep) }

// SchedulerConfig shapes the concurrent scan scheduler.
type SchedulerConfig struct {
	// Targets are the addresses to sweep, in canonical report order.
	Targets []netaddr.V4
	// TCPPorts are probed with connect (or simulated half-open) probes.
	TCPPorts []uint16
	// UDPPorts are probed with generic UDP probes.
	UDPPorts []uint16
	// Rate is the aggregate probes-per-second budget across all workers,
	// enforced by one shared ratelimit.Limiter. <= 0 disables rate limiting.
	Rate float64
	// Burst is the token-bucket depth (default 1): how many probes may be
	// emitted back-to-back after an idle stretch before pacing kicks in.
	Burst int
	// Workers sizes the probe worker pool; <= 0 picks GOMAXPROCS. Each
	// worker owns an interleaved slice of the target list (worker w takes
	// targets w, w+Workers, ...), so an address's ports are always probed
	// by a single worker, contiguously.
	Workers int
	// SweepTimeout is the per-sweep deadline. A sweep that exceeds it is
	// truncated: Sweep returns the partial report with Truncated set.
	// Zero means no deadline.
	SweepTimeout time.Duration
	// Compact aggregates TCP results into per-address summaries instead of
	// recording every probe, as in ScanConfig.Compact.
	Compact bool
	// OnSweep, when set, observes every sweep as it completes — including
	// truncated ones — with the report and the truncation cause (nil for a
	// full sweep). It fires on the sweeping goroutine before Sweep returns
	// and before Run hands the report to its sink, so an observer sees
	// sweeps in launch order. This is the scheduler's emission point for
	// the engine's ScanCompleted events: reports handed to a reconciling
	// sink surface there automatically, and OnSweep covers consumers that
	// want the scheduler's own signal (progress logs, standalone sweeps).
	OnSweep func(rep *ScanReport, err error)
}

func (c *SchedulerConfig) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Scheduler executes concurrent, rate-limited scan sweeps against any
// Backend — the simulated campus and the real-network dialer behave
// identically. Where SimScanner paces virtual time inside the discrete-
// event engine, Scheduler runs on the wall clock with a worker pool and a
// shared rate limiter, which is the shape a production deployment runs.
//
// Reports are deterministic in everything but timestamps: results are
// assembled in target order regardless of how the workers interleave, so
// two sweeps over the same targets against the same backend state differ
// only in their Time fields.
type Scheduler struct {
	backend Backend
	cfg     SchedulerConfig
	limiter *ratelimit.Limiter

	// clock is injectable for deterministic tests (defaults to time.Now).
	clock func() time.Time

	// met is the optional telemetry bundle (see SetMetrics). Probe RTTs
	// are measured on the wall clock even under an injected test clock —
	// they report real backend latency, not simulated time.
	met *Metrics

	mu     sync.Mutex
	nextID int
}

// NewScheduler builds a scheduler sweeping cfg.Targets against backend.
// The backend must tolerate cfg.Workers concurrent Probe calls (both
// provided backends do: NetBackend dials independent connections and
// SimBackend reads immutable campus state).
func NewScheduler(backend Backend, cfg SchedulerConfig) *Scheduler {
	return &Scheduler{
		backend: backend,
		cfg:     cfg,
		limiter: ratelimit.New(cfg.Rate, float64(cfg.Burst)),
		clock:   time.Now,
	}
}

// SetMetrics attaches the telemetry bundle; call before sweeps start.
func (s *Scheduler) SetMetrics(m *Metrics) { s.met = m }

// addrOutcome is one worker's results for one target, tagged with the
// target's index so the merged report is in canonical order.
type addrOutcome struct {
	idx int
	tcp []TCPResult
	udp []UDPResult
	sum AddrSummary
	ok  bool // sum populated (compact mode)
}

// Sweep runs one full sweep: every target × every port, spread across the
// worker pool under the shared rate limit. It blocks until the sweep
// completes, the per-sweep deadline expires, or ctx is cancelled; in the
// latter two cases the partial report is returned with Truncated set,
// alongside the cause. The report's results are always in target order
// (then TCP-port, then UDP-port order) no matter how workers interleaved.
func (s *Scheduler) Sweep(ctx context.Context) (*ScanReport, error) {
	s.mu.Lock()
	id := s.nextID
	s.nextID++
	s.mu.Unlock()

	if s.cfg.SweepTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.SweepTimeout)
		defer cancel()
	}

	workers := s.cfg.workers()
	if workers > len(s.cfg.Targets) && len(s.cfg.Targets) > 0 {
		workers = len(s.cfg.Targets)
	}
	var w0 time.Time
	if s.met != nil {
		w0 = time.Now()
	}
	rep := &ScanReport{ID: id, Started: s.clock()}
	outs := make([][]addrOutcome, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			outs[w] = s.sweepWorker(ctx, w, workers)
		}(w)
	}
	wg.Wait()

	merged := make([]addrOutcome, 0, len(s.cfg.Targets))
	for _, part := range outs {
		merged = append(merged, part...)
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].idx < merged[j].idx })
	for _, o := range merged {
		rep.TCP = append(rep.TCP, o.tcp...)
		rep.UDP = append(rep.UDP, o.udp...)
		if o.ok {
			rep.Summaries = append(rep.Summaries, o.sum)
		}
	}
	rep.Finished = s.clock()
	err := ctx.Err()
	if err != nil {
		rep.Truncated = true
	}
	if m := s.met; m != nil {
		el := time.Since(w0)
		m.Sweep.Observe(el)
		m.Flight.Record(obs.TraceSweepCompleted, "",
			int64(len(rep.TCP)+len(rep.UDP)+len(rep.Summaries)), el.Microseconds())
	}
	if s.cfg.OnSweep != nil {
		s.cfg.OnSweep(rep, err)
	}
	return rep, err
}

// sweepWorker probes targets w, w+stride, ... and returns their outcomes.
// It stops between probes as soon as the context is done (the probe in
// flight, if any, still completes — NetBackend probes are bounded by their
// own timeout).
func (s *Scheduler) sweepWorker(ctx context.Context, w, stride int) []addrOutcome {
	var outs []addrOutcome
	for ti := w; ti < len(s.cfg.Targets); ti += stride {
		target := s.cfg.Targets[ti]
		out := addrOutcome{idx: ti}
		if s.cfg.Compact && len(s.cfg.TCPPorts) > 0 {
			out.sum = AddrSummary{Addr: target}
			out.ok = false // set on the first TCP probe below
		}
		done := false
		for _, port := range s.cfg.TCPPorts {
			if s.limiter.Wait(ctx, 1) != nil {
				done = true
				break
			}
			now := s.clock()
			var p0 time.Time
			if s.met != nil {
				p0 = time.Now()
			}
			state := s.backend.ProbeTCP(now, target, port)
			if m := s.met; m != nil {
				m.RTT.Observe(time.Since(p0))
			}
			if s.cfg.Compact {
				if !out.ok {
					out.sum.Time = now
					out.ok = true
				}
				switch state {
				case StateOpen:
					out.sum.Open = append(out.sum.Open, port)
				case StateClosed:
					out.sum.Closed++
				default:
					out.sum.Filtered++
				}
			} else {
				out.tcp = append(out.tcp, TCPResult{Time: now, Addr: target, Port: port, State: state})
			}
		}
		if !done {
			for _, port := range s.cfg.UDPPorts {
				if s.limiter.Wait(ctx, 1) != nil {
					done = true
					break
				}
				now := s.clock()
				var p0 time.Time
				if s.met != nil {
					p0 = time.Now()
				}
				state := s.backend.ProbeUDP(now, target, port)
				if m := s.met; m != nil {
					m.RTT.Observe(time.Since(p0))
				}
				out.udp = append(out.udp, UDPResult{
					Time: now, Addr: target, Port: port, State: state,
				})
			}
		}
		if len(out.tcp) > 0 || len(out.udp) > 0 || out.ok {
			outs = append(outs, out)
		}
		if done {
			break
		}
	}
	return outs
}

// Run executes periodic sweeps: one every interval (start-to-start; <= 0
// means back-to-back) until count sweeps have run (count <= 0: until ctx
// is cancelled). Each completed report — including ones truncated by the
// per-sweep deadline — is handed to sink before the next sweep starts, so
// downstream reconcilers see sweeps in launch order. Run returns nil after
// count sweeps, or ctx.Err() once cancelled.
func (s *Scheduler) Run(ctx context.Context, interval time.Duration, count int, sink ReportSink) error {
	for i := 0; count <= 0 || i < count; i++ {
		start := s.clock()
		rep, err := s.Sweep(ctx)
		if sink != nil && rep != nil {
			sink.AddReport(rep)
		}
		// A sweep truncated by its own deadline is expected: keep the
		// schedule. Parent cancellation ends the run.
		if ctx.Err() != nil {
			return ctx.Err()
		}
		_ = err
		if count > 0 && i == count-1 {
			break
		}
		if interval > 0 {
			if d := interval - s.clock().Sub(start); d > 0 {
				if err := ratelimit.Sleep(ctx, d); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
