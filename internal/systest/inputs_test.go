package systest

import (
	"slices"
	"sync"
	"time"

	"servdisc/internal/campus"
	"servdisc/internal/capture"
	"servdisc/internal/netaddr"
	"servdisc/internal/packet"
	"servdisc/internal/pipeline"
	"servdisc/internal/probe"
	"servdisc/internal/sim"
	"servdisc/internal/traffic"
)

// inputs is everything a run reads, recorded once per test binary so the
// system under test and its reference read the same values.
type inputs struct {
	campus   netaddr.Prefix
	udpPorts []uint16
	tcpPorts []uint16
	start    time.Time
	// segs are the border packets a monitor on both commercial links kept,
	// sorted by timestamp and cut into segLen windows of simulated time;
	// links[i] are those of commercial link i alone, cut the same way.
	segs  [][]packet.Packet
	links [2][][]packet.Packet
	// sweeps are the active sweep reports in completion order; due[i] is
	// the segment after which sweep i has completed.
	sweeps []*probe.ScanReport
	due    []int
}

const (
	simHours   = 12
	segLen     = 30 * time.Minute
	sweepEvery = 3 * time.Hour
	sweepStart = time.Hour
)

var recorded = sync.OnceValue(record)

// record simulates simHours of a campus: border traffic from
// internal/traffic through a capture monitor, and a SimScanner sweep of
// the whole campus every sweepEvery, wired as examples/multicampus wires
// them. The campus's own scanner calendar has no burst in the first
// twelve hours, so one HTTP scan above the detection threshold is added.
func record() *inputs {
	cfg := campus.DefaultSemesterConfig()
	cfg.BigScans = []campus.ScanConfig{{StartOffset: 5 * time.Hour, Port: campus.PortHTTP, Coverage: 0.3}}
	net, err := campus.NewNetwork(cfg)
	if err != nil {
		panic(err)
	}
	eng := sim.New(cfg.Start)
	campus.NewDynamics(net, eng)
	pfx, err := netaddr.NewPrefix(net.Plan().Base(), 16)
	if err != nil {
		panic(err)
	}
	var pkts [2][]packet.Packet
	var taps []*capture.Tap
	for i, l := range []capture.LinkID{capture.LinkCommercial1, capture.LinkCommercial2} {
		keep := pipeline.BatchFunc(func(b []packet.Packet) { pkts[i] = append(pkts[i], b...) })
		tap, err := capture.NewTap(l, capture.PaperFilter, nil, keep)
		if err != nil {
			panic(err)
		}
		taps = append(taps, tap)
	}
	traffic.NewGenerator(net, eng, capture.NewMonitor(capture.NewAssigner(pfx, net.AcademicClients()), taps...))
	in := &inputs{campus: pfx, udpPorts: campus.SelectedUDPPorts, tcpPorts: campus.SelectedTCPPorts, start: cfg.Start}
	scanner := probe.NewSimScanner(&probe.SimBackend{Net: net}, eng, probe.ScanConfig{
		Targets:  net.Plan().ProbeTargets(),
		TCPPorts: in.tcpPorts,
		Rate:     50,
		Shards:   4,
	})
	scanner.ScheduleEvery(cfg.Start.Add(sweepStart), sweepEvery, 0, func(rep *probe.ScanReport) {
		in.sweeps = append(in.sweeps, rep)
	})
	end := cfg.Start.Add(simHours * time.Hour)
	eng.RunUntil(end)

	in.segs = cut(slices.Concat(pkts[0], pkts[1]), cfg.Start, end)
	for i := range pkts {
		in.links[i] = cut(pkts[i], cfg.Start, end)
	}
	for _, rep := range in.sweeps {
		in.due = append(in.due, int(rep.Finished.Sub(cfg.Start)/segLen))
	}
	return in
}

// cut sorts packets by timestamp, stably, and cuts them into segLen
// windows from start to end. Retention's independence from snapshot
// cadence holds only for a monotone observation clock.
func cut(pkts []packet.Packet, start, end time.Time) [][]packet.Packet {
	slices.SortStableFunc(pkts, func(a, b packet.Packet) int { return a.Timestamp.Compare(b.Timestamp) })
	var segs [][]packet.Packet
	for from := start; from.Before(end); from = from.Add(segLen) {
		i, _ := slices.BinarySearchFunc(pkts, from.Add(segLen), func(p packet.Packet, t time.Time) int { return p.Timestamp.Compare(t) })
		segs = append(segs, pkts[:i:i])
		pkts = pkts[i:]
	}
	return segs
}

// siteSegs is site i's share of a program with n sites: the whole border
// for one site, one commercial link each for two.
func (in *inputs) siteSegs(n, i int) [][]packet.Packet {
	if n == 1 {
		return in.segs
	}
	return in.links[i]
}
