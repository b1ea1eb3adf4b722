package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"servdisc/internal/campus"
	"servdisc/internal/capture"
	"servdisc/internal/core"
	"servdisc/internal/filter"
	"servdisc/internal/netaddr"
	"servdisc/internal/packet"
	"servdisc/internal/pipeline"
	"servdisc/internal/probe"
	"servdisc/internal/sim"
	"servdisc/internal/trace"
	"servdisc/internal/traffic"
)

// batchSize is the ingest batch granularity everywhere in the harness —
// the production default, so span counts and dispatch costs match what a
// replaying daemon pays.
const batchSize = pipeline.DefaultBatchSize

// synthPortsPerAddr fans synthetic services out over this many ports per
// address (ports 9000..9031), the layout the repo's inventory-scale
// benchmarks use.
const (
	synthPortsPerAddr = 32
	synthPortBase     = 9000
)

// freshAddrs is how many addresses past corpus.newBase are reserved for
// services minted while a stage runs (synthPortsPerAddr services each).
const freshAddrs = 0x8000

// corpus is one workload's generated input: a border stream as pcap bytes,
// the sweep reports that ride along, and the reference result a sequential
// discoverer computes from the same bytes. Everything in it derives from
// the seed; the program under test sees only these inputs.
type corpus struct {
	prefix   netaddr.Prefix
	academic []netaddr.V4
	pcap     []byte
	packets  int

	// reports[i] is injected once reportAt[i] packets have been read.
	reports  []*probe.ScanReport
	reportAt []int

	// refDump is the canonical dump of the sequential reference inventory
	// every replay pass must reproduce byte for byte; refKeys its keys.
	refDump []byte
	refKeys []core.ServiceKey

	// newBase is the first address of the range fresh services are minted
	// in during the fleet stage; it lies inside prefix and beyond anything
	// the corpus itself populates.
	newBase netaddr.V4

	// epoch is a point on the observation clock after the last corpus
	// packet; later stages stamp their synthetic packets from here on.
	epoch time.Time
}

// campusShape selects the traffic mix of a simulated campus corpus.
type campusShape struct {
	flowsPerDay     float64
	bigScanHours    []int // full-coverage external scans start at these hours
	smallScansDaily float64
	hybrid          bool // prebuild 12-hourly internal sweep reports
}

// flowDominated is the paper's own configuration: client flows on the
// border plus 12-hourly internal sweeps, no external scanners.
var flowDominated = campusShape{flowsPerDay: 100000, hybrid: true}

// scanDominated makes external scanners about four fifths of the packets:
// six full-coverage walks of the space and a steady arrival of partial
// scanners over a thin flow background. Passive only.
var scanDominated = campusShape{
	flowsPerDay:     20000,
	bigScanHours:    []int{2, 8, 14, 20, 26, 32},
	smallScansDaily: 150,
}

// newCampusCorpus simulates the campus border for the given hours and
// records every packet the generator emits — before link assignment and
// the capture filter, so unmonitored-link traffic and filter rejects are
// still in the stream the replay has to deal with. A hybrid shape also
// runs the internal sweeps that finish inside the window (three in 48 h).
func newCampusCorpus(seed uint64, shape campusShape, hours int) (*corpus, error) {
	cfg := campus.DefaultSemesterConfig()
	cfg.Seed = seed
	cfg.FlowsPerDay = shape.flowsPerDay
	cfg.SmallScannersPerDay = shape.smallScansDaily
	cfg.BigScans = nil
	scanPorts := campus.SelectedTCPPorts
	for i, h := range shape.bigScanHours {
		cfg.BigScans = append(cfg.BigScans, campus.ScanConfig{
			StartOffset: time.Duration(h) * time.Hour,
			Port:        scanPorts[i%len(scanPorts)],
			Coverage:    1,
		})
	}
	net, err := campus.NewNetwork(cfg)
	if err != nil {
		return nil, err
	}
	eng := sim.New(cfg.Start)
	campus.NewDynamics(net, eng)
	pfx, err := netaddr.NewPrefix(net.Plan().Base(), 16)
	if err != nil {
		return nil, err
	}
	c := &corpus{
		prefix:   pfx,
		academic: net.AcademicClients(),
		newBase:  pfx.Base() + freshAddrs,
	}
	if net.Plan().Total() >= freshAddrs {
		return nil, fmt.Errorf("campus plan (%d addresses) overlaps the fresh-service range", net.Plan().Total())
	}

	var buf bytes.Buffer
	w := trace.NewWriter(&buf, trace.LinkTypeRaw, 0)
	var werr error
	traffic.NewGenerator(net, eng, pipeline.BatchFunc(func(batch []packet.Packet) {
		for i := range batch {
			if err := w.WritePacket(batch[i].Timestamp, batch[i].Marshal()); err != nil && werr == nil {
				werr = err
			}
		}
		c.packets += len(batch)
	}))
	if sweeps := (hours - 2) / 12; shape.hybrid && sweeps > 0 {
		sc := probe.NewSimScanner(&probe.SimBackend{Net: net}, eng, probe.ScanConfig{
			Targets:  net.Plan().ProbeTargets(),
			TCPPorts: campus.SelectedTCPPorts,
			Rate:     7, // two machines ≈ 14 probes/s, the paper's ~96-minute sweeps
			Shards:   2,
		})
		sc.ScheduleEvery(cfg.Start.Add(12*time.Hour), 12*time.Hour, sweeps,
			func(rep *probe.ScanReport) { c.reports = append(c.reports, rep) })
	}
	end := cfg.Start.Add(time.Duration(hours) * time.Hour)
	eng.RunUntil(end)
	if werr == nil {
		werr = w.Flush()
	}
	if werr != nil {
		return nil, fmt.Errorf("encoding pcap: %w", werr)
	}
	c.pcap = buf.Bytes()
	c.epoch = end.Add(time.Hour)
	return c, c.computeReference()
}

// synthEndpoint is the i-th synthetic service of a prefix: addresses from
// base+1 upward, synthPortsPerAddr ports each.
func synthEndpoint(base netaddr.V4, i int) packet.Endpoint {
	return packet.Endpoint{
		Addr: base + netaddr.V4(1+i/synthPortsPerAddr),
		Port: uint16(synthPortBase + i%synthPortsPerAddr),
	}
}

// synthIndex inverts synthEndpoint; ok is false for keys outside the
// layout.
func synthIndex(base netaddr.V4, k core.ServiceKey) (int, bool) {
	if k.Addr <= base || k.Port < synthPortBase || k.Port >= synthPortBase+synthPortsPerAddr {
		return 0, false
	}
	return int(k.Addr-base-1)*synthPortsPerAddr + int(k.Port-synthPortBase), true
}

// newSynthCorpus fabricates n distinct services as one accept response
// each — a pure discovery stream where every packet creates a record. The
// seed scatters the order services appear in and the clients they answer,
// so the engine's maps and the index trees grow along a different path
// per seed. A corpus that only ever preloads a resident inventory skips
// the reference (dumping half a million services costs seconds and nothing
// would be compared against it).
func newSynthCorpus(seed uint64, n int, replayed bool) (*corpus, error) {
	pfx, err := netaddr.NewPrefix(netaddr.MustParseV4("10.16.0.0"), 16)
	if err != nil {
		return nil, err
	}
	c := &corpus{prefix: pfx, packets: n}
	c.newBase = pfx.Base() + netaddr.V4(1+(n+synthPortsPerAddr-1)/synthPortsPerAddr)
	if !pfx.Contains(c.newBase + freshAddrs) {
		return nil, fmt.Errorf("%d synthetic services leave no room for fresh ones in %s", n, pfx)
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	order := rng.Perm(n)
	clientBase := netaddr.MustParseV4("64.9.0.0")
	t0 := time.Date(2006, 9, 19, 10, 0, 0, 0, time.UTC)
	bld := packet.NewBuilder(0)
	var buf bytes.Buffer
	w := trace.NewWriter(&buf, trace.LinkTypeRaw, 0)
	for i, idx := range order {
		client := packet.Endpoint{Addr: clientBase + netaddr.V4(rng.Intn(1<<16)), Port: uint16(32768 + rng.Intn(28000))}
		p := bld.SynAck(t0.Add(time.Duration(i)*time.Microsecond), synthEndpoint(pfx.Base(), idx), client, 1, 1)
		if err := w.WritePacket(p.Timestamp, p.Marshal()); err != nil {
			return nil, fmt.Errorf("encoding pcap: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return nil, fmt.Errorf("encoding pcap: %w", err)
	}
	c.pcap = buf.Bytes()
	c.epoch = t0.Add(time.Hour)
	if !replayed {
		return c, nil
	}
	return c, c.computeReference()
}

// replay streams the pcap through trace.Reader.Next and packet.DecodeIP in
// ingest-sized batches and hands each batch to emit with the count of
// packets read before it. It returns packets read and records that failed
// to decode. The batch is reused: emit must not retain it.
func (c *corpus) replay(tr *tracer, emit func(batch []packet.Packet, before int)) (read, undecodable int, err error) {
	rd, err := trace.NewReader(bytes.NewReader(c.pcap))
	if err != nil {
		return 0, 0, err
	}
	recs := make([]trace.Record, 0, batchSize)
	batch := make([]packet.Packet, 0, batchSize)
	for eof := false; !eof; {
		tr.begin("trace.read")
		recs = recs[:0]
		for len(recs) < batchSize {
			rec, err := rd.Next()
			if err != nil {
				if !errors.Is(err, io.EOF) {
					tr.end()
					return read, undecodable, err
				}
				eof = true
				break
			}
			recs = append(recs, rec)
		}
		tr.end()

		tr.begin("packet.decode")
		batch = batch[:0]
		for i := range recs {
			p, err := packet.DecodeIP(recs[i].Data, recs[i].Time)
			if err != nil {
				undecodable++
				continue
			}
			batch = append(batch, *p)
		}
		tr.end()

		if len(batch) > 0 {
			emit(batch, read)
		}
		read += len(recs)
	}
	return read, undecodable, nil
}

// computeReference runs the corpus through a sequential passive
// discoverer (and, when sweep reports ride along, an active one) using
// nothing but the assigner's routing decision and the paper's capture
// filter — no batching, shards, snapshots or deltas. Every replay pass has
// to reproduce this dump exactly.
func (c *corpus) computeReference() error {
	flt, err := filter.Compile(capture.PaperFilter)
	if err != nil {
		return err
	}
	assign := capture.NewAssigner(c.prefix, c.academic)
	disc := core.NewPassiveDiscoverer(c.prefix, campus.SelectedUDPPorts)
	// times is only needed to place sweep reports in the stream.
	var times []time.Time
	read, bad, err := c.replay(nil, func(batch []packet.Packet, _ int) {
		for i := range batch {
			p := &batch[i]
			times = append(times, p.Timestamp)
			if assign.Route(p) != capture.LinkInternet2 && flt.Match(p) {
				disc.HandlePacket(p)
			}
		}
	})
	if err != nil {
		return fmt.Errorf("decoding generated pcap: %w", err)
	}
	if read != c.packets || bad != 0 {
		return fmt.Errorf("generated pcap read back %d packets (%d undecodable), wrote %d", read, bad, c.packets)
	}
	if !times[len(times)-1].Before(c.epoch) {
		return fmt.Errorf("corpus runs past its epoch")
	}

	var inv *core.Inventory
	if len(c.reports) > 0 {
		active := core.NewActiveDiscoverer(nil)
		for _, rep := range c.reports {
			active.AddReport(rep)
		}
		inv = core.NewHybridInventory(disc, active)
		// A report is injected at the first packet at or after the sweep
		// finished — where a live deployment would have reconciled it.
		c.reportAt = make([]int, len(c.reports))
		for i, rep := range c.reports {
			c.reportAt[i] = sort.Search(len(times), func(j int) bool { return !times[j].Before(rep.Finished) })
		}
	} else {
		inv = core.NewInventory(disc)
	}
	c.refDump = inv.Dump()
	c.refKeys = inv.Keys()
	if len(c.refKeys) == 0 {
		// The classic way to get here is writing Packet.Marshal output
		// under LinkTypeEthernet: it decodes cleanly to zero services.
		return fmt.Errorf("reference inventory is empty: the generated pcap carries no discoverable service")
	}
	return nil
}
