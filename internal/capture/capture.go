// Package capture implements the passive-monitoring side of the system:
// taps on peering links, packet filters, fixed-duration sampling, and
// multi-link composition. It reproduces the paper's LANDER-style collection
// (Section 3.2): capture TCP SYN / SYN-ACK / RST packets plus all UDP
// traffic at the monitored peerings.
//
// A Monitor receives border traffic in batches (the pipeline.BatchSink
// contract) from the traffic generator or a replayed pcap trace, assigns
// each packet to a peering link, and forwards per-link sub-batches through
// each monitored link's tap — filter first, then sampler — to the tap's
// sink (typically a core discoverer, or a trace recorder). Tap and Monitor
// counters are backed by the pipeline's atomic stage counters, so a stats
// endpoint may read them while another goroutine ingests.
package capture

import (
	"fmt"
	"sync/atomic"

	"servdisc/internal/filter"
	"servdisc/internal/netaddr"
	"servdisc/internal/packet"
	"servdisc/internal/pipeline"
)

// PaperFilter is the collection filter of the paper's infrastructure:
// TCP connection-control packets and all UDP.
const PaperFilter = "syn or synack or rst or udp"

// LinkID identifies a peering link.
type LinkID uint8

// The university's three peerings (Section 5.2).
const (
	LinkCommercial1 LinkID = iota
	LinkCommercial2
	LinkInternet2
	numLinks
)

// String names the link as in Table 8.
func (l LinkID) String() string {
	switch l {
	case LinkCommercial1:
		return "Commercial 1"
	case LinkCommercial2:
		return "Commercial 2"
	case LinkInternet2:
		return "Internet2"
	default:
		return fmt.Sprintf("link(%d)", uint8(l))
	}
}

// Assigner routes each border packet to the peering it would traverse:
// Internet2 carries traffic of academic peers (a fixed address set); the
// rest hashes 2:1 across the commercial links, approximating the paper's
// observation that any single commercial link sees most servers.
type Assigner struct {
	campus   netaddr.Prefix
	academic map[netaddr.V4]struct{}
}

// NewAssigner builds an assigner. campus is the monitored address space;
// academic lists external addresses routed via Internet2.
func NewAssigner(campus netaddr.Prefix, academic []netaddr.V4) *Assigner {
	a := &Assigner{campus: campus, academic: make(map[netaddr.V4]struct{}, len(academic))}
	for _, x := range academic {
		a.academic[x] = struct{}{}
	}
	return a
}

// externalEndpoint picks the off-campus side of the packet, defaulting to
// the source when neither side is on campus.
func (a *Assigner) externalEndpoint(p *packet.Packet) netaddr.V4 {
	if !a.campus.Contains(p.IPv4.Src) {
		return p.IPv4.Src
	}
	return p.IPv4.Dst
}

// Route returns the link the packet traverses.
func (a *Assigner) Route(p *packet.Packet) LinkID {
	ext := a.externalEndpoint(p)
	if _, ok := a.academic[ext]; ok {
		return LinkInternet2
	}
	// Deterministic 2:1 split across the commercial peerings.
	h := uint32(ext)
	h ^= h >> 16
	h *= 0x45D9F3B
	h ^= h >> 13
	if h%3 < 2 {
		return LinkCommercial1
	}
	return LinkCommercial2
}

// Tap is one monitored link: a filter, an optional sampler, and a batch
// sink. A tap is fed by one goroutine at a time (its monitor's), but its
// counters may be read concurrently.
type Tap struct {
	Link    LinkID
	filter  *filter.Filter
	sampler Sampler
	sink    pipeline.BatchSink

	// counters: In = seen, Out = delivered; matched counts filter passes
	// before sampling.
	counters pipeline.StageCounters
	matched  atomic.Int64

	// scratch holds the kept sub-batch between filter and delivery.
	scratch []packet.Packet
}

// NewTap builds a tap. filterExpr may be empty (capture everything);
// sampler may be nil (continuous capture).
func NewTap(link LinkID, filterExpr string, sampler Sampler, sink pipeline.BatchSink) (*Tap, error) {
	f, err := filter.Compile(filterExpr)
	if err != nil {
		return nil, err
	}
	return &Tap{Link: link, filter: f, sampler: sampler, sink: sink}, nil
}

// Seen returns how many packets arrived at the tap.
func (t *Tap) Seen() int { return t.counters.In() }

// Matched returns how many packets passed the tap's filter.
func (t *Tap) Matched() int { return int(t.matched.Load()) }

// Delivered returns how many packets reached the tap's sink.
func (t *Tap) Delivered() int { return t.counters.Out() }

// Counters exposes the tap's stage counters (In = seen, Out = delivered,
// Dropped = filtered or sampled out).
func (t *Tap) Counters() *pipeline.StageCounters { return &t.counters }

// HandleBatch implements pipeline.BatchSink: filter and sample the batch,
// delivering the kept packets downstream as one sub-batch. When every
// packet is kept — the common case for a pre-filtered trace replay — the
// input slice is forwarded as-is, with no copying.
func (t *Tap) HandleBatch(batch []packet.Packet) {
	t.counters.AddIn(len(batch))
	// Fast path: scan for the first rejection; the kept prefix aliases
	// the input.
	i := 0
	for ; i < len(batch); i++ {
		p := &batch[i]
		if !t.filter.Match(p) || (t.sampler != nil && !t.sampler.Keep(p)) {
			break
		}
	}
	if i == len(batch) {
		t.matched.Add(int64(i))
		t.counters.AddOut(i)
		if i > 0 && t.sink != nil {
			t.sink.HandleBatch(batch)
		}
		return
	}

	// Slow path: compact the keepers into the tap's scratch, starting
	// from the all-kept prefix. The packet that broke the scan still
	// counts as matched if only the sampler rejected it.
	kept := append(t.scratch[:0], batch[:i]...)
	matched := i
	if t.filter.Match(&batch[i]) {
		matched++
	}
	for i++; i < len(batch); i++ {
		p := &batch[i]
		if !t.filter.Match(p) {
			continue
		}
		matched++
		if t.sampler != nil && !t.sampler.Keep(p) {
			continue
		}
		kept = append(kept, *p)
	}
	t.scratch = kept[:0]
	t.matched.Add(int64(matched))
	t.counters.AddOut(len(kept))
	t.counters.AddDropped(len(batch) - len(kept))
	if len(kept) > 0 && t.sink != nil {
		t.sink.HandleBatch(kept)
	}
}

// Monitor composes the assigner with per-link taps. Unmonitored links drop
// their traffic — exactly how the paper's study misses Internet2 flows in
// the semester datasets.
type Monitor struct {
	assigner *Assigner
	taps     [numLinks]*Tap
	mirrors  []pipeline.BatchSink

	// counters: In = packets offered, Out = packets on monitored links,
	// Dropped = packets on unmonitored links.
	counters pipeline.StageCounters

	// monitored collects the packets that had a tap, in arrival order,
	// for the mirrors (only populated when mirrors are registered).
	monitored []packet.Packet
}

// AddMirror registers a sink that receives every packet arriving on any
// monitored link, before tap filtering. Mirrors let several analysis
// pipelines (e.g. the sampling study's reduced captures) share one
// simulation while seeing exactly the traffic the monitor covers.
func (m *Monitor) AddMirror(s pipeline.BatchSink) { m.mirrors = append(m.mirrors, s) }

// NewMonitor builds a monitor over the given taps.
func NewMonitor(assigner *Assigner, taps ...*Tap) *Monitor {
	m := &Monitor{assigner: assigner}
	for _, t := range taps {
		m.taps[t.Link] = t
	}
	return m
}

// Tap returns the tap on a link, if monitored.
func (m *Monitor) Tap(l LinkID) (*Tap, bool) {
	if l >= numLinks || m.taps[l] == nil {
		return nil, false
	}
	return m.taps[l], true
}

// Dropped returns how many packets arrived on unmonitored links.
func (m *Monitor) Dropped() int { return m.counters.Dropped() }

// Counters exposes the monitor's stage counters.
func (m *Monitor) Counters() *pipeline.StageCounters { return &m.counters }

// HandleBatch implements pipeline.BatchSink: slice the batch into
// maximal runs of consecutive same-link packets and deliver each run to
// its tap as a sub-slice (no copying), then mirror the monitored traffic.
// Delivering runs in arrival order — rather than one fully-partitioned
// sub-batch per link — keeps the global packet order intact for sinks
// shared by several taps (the experiments' merged discoverer), so batched
// ingest observes the same sequence at any batch size.
func (m *Monitor) HandleBatch(batch []packet.Packet) {
	m.counters.AddIn(len(batch))
	mirror := len(m.mirrors) > 0
	if mirror {
		m.monitored = m.monitored[:0]
	}
	dropped := 0
	runStart, runLink, haveRun := 0, LinkID(0), false
	for i := range batch {
		link := m.assigner.Route(&batch[i])
		if m.taps[link] == nil {
			if haveRun {
				m.taps[runLink].HandleBatch(batch[runStart:i])
				haveRun = false
			}
			dropped++
			continue
		}
		if mirror {
			m.monitored = append(m.monitored, batch[i])
		}
		switch {
		case !haveRun:
			runStart, runLink, haveRun = i, link, true
		case link != runLink:
			m.taps[runLink].HandleBatch(batch[runStart:i])
			runStart, runLink = i, link
		}
	}
	if haveRun {
		m.taps[runLink].HandleBatch(batch[runStart:])
	}
	m.counters.AddDropped(dropped)
	m.counters.AddOut(len(batch) - dropped)
	if len(m.monitored) > 0 {
		for _, s := range m.mirrors {
			s.HandleBatch(m.monitored)
		}
	}
}

var (
	_ pipeline.BatchSink = (*Tap)(nil)
	_ pipeline.BatchSink = (*Monitor)(nil)
)
