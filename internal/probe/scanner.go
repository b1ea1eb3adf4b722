package probe

import (
	"time"

	"servdisc/internal/netaddr"
	"servdisc/internal/sim"
)

// ScanConfig shapes one sweep of the target space.
type ScanConfig struct {
	// Targets are the addresses to probe, in sweep order.
	Targets []netaddr.V4
	// TCPPorts are probed with half-open (or connect) probes.
	TCPPorts []uint16
	// UDPPorts are probed with generic UDP probes.
	UDPPorts []uint16
	// Rate is the probes-per-second budget across the whole scan. The
	// paper's scans covered 16,130 addresses × 5 ports in 90–120 minutes,
	// i.e. roughly 12–15 probes/second.
	Rate float64
	// Compact aggregates TCP results into per-address summaries instead
	// of recording every probe. Required for all-ports sweeps, where a
	// /24 × 65535 ports would otherwise materialize 16.7M result records.
	Compact bool
	// Shards splits the target list across this many scanning machines
	// working in parallel (the paper used two). Shard i takes targets
	// i, i+Shards, i+2·Shards, ... and all shards run concurrently, so
	// the wall-clock sweep time divides by Shards.
	Shards int
}

// AddrSummary aggregates one address's TCP outcomes within one sweep.
type AddrSummary struct {
	Addr netaddr.V4
	// Time is when the address was first probed in this sweep.
	Time time.Time
	// Open lists ports that answered SYN-ACK.
	Open []uint16
	// Closed and Filtered count RST and no-response ports.
	Closed, Filtered int
}

// ScanReport collects one sweep's observations.
type ScanReport struct {
	// ID is the sweep's sequence number as assigned by the scheduler.
	ID int
	// Started and Finished bound the sweep.
	Started, Finished time.Time
	// TCP holds every TCP observation (empty in compact mode).
	TCP []TCPResult
	// Summaries holds per-address aggregates (compact mode only).
	Summaries []AddrSummary
	// UDP holds every UDP observation.
	UDP []UDPResult
	// Truncated marks a sweep cut short by cancellation or its per-sweep
	// deadline (concurrent Scheduler only; SimScanner sweeps always run to
	// completion in virtual time).
	Truncated bool
}

// OpenAddrs returns the set of addresses with at least one open TCP port.
func (r *ScanReport) OpenAddrs() *netaddr.Set {
	s := netaddr.NewSet()
	for _, res := range r.TCP {
		if res.State == StateOpen {
			s.Add(res.Addr)
		}
	}
	for _, sum := range r.Summaries {
		if len(sum.Open) > 0 {
			s.Add(sum.Addr)
		}
	}
	return s
}

// SimScanner executes sweeps against a Backend on the simulation engine,
// pacing probes so a sweep occupies realistic wall-clock time — this is
// what makes Figure 1's "active probing needs more than an hour to find
// the popular servers" emerge from mechanics rather than assumption.
type SimScanner struct {
	backend Backend
	eng     *sim.Engine
	cfg     ScanConfig
	nextID  int
}

// NewSimScanner builds a scanner bound to an engine and backend.
func NewSimScanner(backend Backend, eng *sim.Engine, cfg ScanConfig) *SimScanner {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Rate <= 0 {
		cfg.Rate = 15
	}
	return &SimScanner{backend: backend, eng: eng, cfg: cfg}
}

// Schedule arranges a sweep to start at the given time; done receives the
// report when the sweep completes. Multiple scheduled sweeps may overlap
// freely (they share nothing but the backend).
func (s *SimScanner) Schedule(start time.Time, done func(*ScanReport)) {
	id := s.nextID
	s.nextID++
	s.eng.At(start, func(now time.Time) {
		s.runSweep(id, now, done)
	})
}

// ScheduleEvery arranges sweeps at a fixed interval from start until the
// given count have been launched (count <= 0 means until the engine stops).
func (s *SimScanner) ScheduleEvery(start time.Time, interval time.Duration, count int, done func(*ScanReport)) {
	launched := 0
	var tk *sim.Ticker
	tk = s.eng.Every(start, interval, func(now time.Time) {
		if count > 0 && launched >= count {
			tk.Stop()
			return
		}
		launched++
		id := s.nextID
		s.nextID++
		s.runSweep(id, now, done)
	})
}

// runSweep walks the shard-interleaved target list in one-second bursts.
func (s *SimScanner) runSweep(id int, start time.Time, done func(*ScanReport)) {
	rep := &ScanReport{ID: id, Started: start}
	perSecond := int(s.cfg.Rate * float64(s.cfg.Shards))
	if perSecond < 1 {
		perSecond = 1
	}
	// Probe order: shard k owns targets k, k+Shards, ...; since all
	// shards advance in lockstep at the same per-machine rate, their
	// round-robin interleaving reconstructs the original target order
	// walked at the aggregate rate (perSecond above). Jobs are derived
	// from a flat index rather than materialized — an all-ports sweep of
	// a /24 is 16.7M probes and must not allocate a job list.
	perAddr := len(s.cfg.TCPPorts) + len(s.cfg.UDPPorts)
	total := len(s.cfg.Targets) * perAddr

	idx := 0
	var cur *AddrSummary
	var burst func(now time.Time)
	burst = func(now time.Time) {
		for i := 0; i < perSecond && idx < total; i++ {
			target := s.cfg.Targets[idx/perAddr]
			pi := idx % perAddr
			idx++
			if pi < len(s.cfg.TCPPorts) {
				port := s.cfg.TCPPorts[pi]
				state := s.backend.ProbeTCP(now, target, port)
				if s.cfg.Compact {
					// Jobs walk each address's ports contiguously, so a
					// single open summary suffices.
					if cur == nil || cur.Addr != target {
						if cur != nil {
							rep.Summaries = append(rep.Summaries, *cur)
						}
						cur = &AddrSummary{Addr: target, Time: now}
					}
					switch state {
					case StateOpen:
						cur.Open = append(cur.Open, port)
					case StateClosed:
						cur.Closed++
					default:
						cur.Filtered++
					}
				} else {
					rep.TCP = append(rep.TCP, TCPResult{
						Time: now, Addr: target, Port: port, State: state,
					})
				}
			} else {
				port := s.cfg.UDPPorts[pi-len(s.cfg.TCPPorts)]
				rep.UDP = append(rep.UDP, UDPResult{
					Time: now, Addr: target, Port: port,
					State: s.backend.ProbeUDP(now, target, port),
				})
			}
		}
		if idx < total {
			s.eng.After(time.Second, burst)
			return
		}
		if cur != nil {
			rep.Summaries = append(rep.Summaries, *cur)
			cur = nil
		}
		rep.Finished = now
		if done != nil {
			done(rep)
		}
	}
	burst(start)
}
