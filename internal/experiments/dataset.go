// Package experiments assembles complete simulated datasets matching the
// paper's Table 1 and provides one runner per table and figure of the
// evaluation (see DESIGN.md §3 for the index). Each runner returns a
// renderable report; cmd/repro drives them and bench_test.go at the module
// root wraps each in a benchmark.
package experiments

import (
	"fmt"
	"time"

	"servdisc/internal/campus"
	"servdisc/internal/capture"
	"servdisc/internal/core"
	"servdisc/internal/netaddr"
	"servdisc/internal/packet"
	"servdisc/internal/pipeline"
	"servdisc/internal/probe"
	"servdisc/internal/sim"
	"servdisc/internal/traffic"
	"servdisc/internal/webcat"
)

// Dataset is one fully simulated observation campaign: the campus, its
// traffic, a passive monitor (merged, per-link and sampled variants), and
// a periodic active scan.
type Dataset struct {
	Cfg campus.Config
	Net *campus.Network
	Eng *sim.Engine

	Monitor *capture.Monitor
	Merged  *core.PassiveDiscoverer
	Active  *core.ActiveDiscoverer

	// Inventory freezes Merged and Active once the run completes: the hybrid
	// inventory every analysis reads. PerLink and Sampled are the per-link
	// and sampled monitors' passive inventories, frozen at the same point.
	Inventory *core.Inventory
	PerLink   map[capture.LinkID]*core.Inventory
	Sampled   map[time.Duration]*core.Inventory

	// WebContent maps discovered web servers to the category of the root
	// page fetched within a day of discovery (Table 5).
	WebContent map[netaddr.V4]webcat.Category

	Start, End time.Time
}

// BuildOptions shape a dataset.
type BuildOptions struct {
	Cfg  campus.Config
	Days float64
	// ScanStartOffset delays the first sweep (default 1h: the paper's
	// 11:00 scans against a 10:00 collection start).
	ScanStartOffset time.Duration
	// ScanEvery is the sweep interval (0 disables active scanning).
	ScanEvery time.Duration
	// ScanCount bounds the number of sweeps (0 = for the whole window).
	ScanCount int
	// ScanRate is probes/second per scanning machine; Shards the machine
	// count (the paper: two internal machines, 90–120 minute sweeps).
	ScanRate float64
	Shards   int
	// Links lists monitored peerings (default: the two commercial links).
	Links []capture.LinkID
	// SampleWindows adds fixed-window sampled captures (Figure 8).
	SampleWindows []time.Duration
	// FetchWeb enables root-page fetching of discovered web servers.
	FetchWeb bool
	// UDPPorts switches sweeps to generic UDP probing of these ports.
	UDPPorts []uint16
	// TCPPorts overrides the probed TCP port set (default: the paper's
	// five selected services; empty slice with UDPPorts set = UDP-only).
	TCPPorts []uint16
}

// Build constructs the dataset and runs the simulation to completion.
func Build(o BuildOptions) (*Dataset, error) {
	net, err := campus.NewNetwork(o.Cfg)
	if err != nil {
		return nil, err
	}
	return buildOn(net, o)
}

// buildOn assembles a dataset over an already-constructed (possibly
// custom-populated) network and runs it.
func buildOn(net *campus.Network, o BuildOptions) (*Dataset, error) {
	eng := sim.New(o.Cfg.Start)
	campus.NewDynamics(net, eng)

	d := &Dataset{
		Cfg:        o.Cfg,
		Net:        net,
		Eng:        eng,
		PerLink:    make(map[capture.LinkID]*core.Inventory),
		Sampled:    make(map[time.Duration]*core.Inventory),
		WebContent: make(map[netaddr.V4]webcat.Category),
		Start:      o.Cfg.Start,
		End:        o.Cfg.Start.Add(time.Duration(o.Days * 24 * float64(time.Hour))),
	}

	campusPfx, err := netaddr.NewPrefix(net.Plan().Base(), 16)
	if err != nil {
		return nil, err
	}
	assigner := capture.NewAssigner(campusPfx, net.AcademicClients())

	links := o.Links
	if len(links) == 0 {
		links = []capture.LinkID{capture.LinkCommercial1, capture.LinkCommercial2}
	}
	d.Merged = core.NewPassiveDiscoverer(campusPfx, campus.SelectedUDPPorts)
	perLink := make(map[capture.LinkID]*core.PassiveDiscoverer, len(links))
	taps := make([]*capture.Tap, 0, len(links))
	for _, link := range links {
		pl := core.NewPassiveDiscoverer(campusPfx, campus.SelectedUDPPorts)
		perLink[link] = pl
		tap, err := capture.NewTap(link, capture.PaperFilter, nil, pipeline.Fanout{d.Merged, pl})
		if err != nil {
			return nil, err
		}
		taps = append(taps, tap)
	}
	d.Monitor = capture.NewMonitor(assigner, taps...)

	// Sampled pipelines mirror the monitored links through their own
	// filter+sampler chains.
	sampled := make(map[time.Duration]*core.PassiveDiscoverer, len(o.SampleWindows))
	for _, w := range o.SampleWindows {
		pd := core.NewPassiveDiscoverer(campusPfx, campus.SelectedUDPPorts)
		sampled[w] = pd
		tap, err := capture.NewTap(capture.LinkCommercial1, capture.PaperFilter,
			capture.NewFixedWindowSampler(o.Cfg.Start, w), pd)
		if err != nil {
			return nil, err
		}
		d.Monitor.AddMirror(tap)
	}

	traffic.NewGenerator(net, eng, d.Monitor)

	tcpPorts := o.TCPPorts
	if tcpPorts == nil && len(o.UDPPorts) == 0 {
		tcpPorts = campus.SelectedTCPPorts
	}
	d.Active = core.NewActiveDiscoverer(tcpPorts)
	if o.ScanEvery > 0 {
		rate := o.ScanRate
		if rate <= 0 {
			rate = 7 // two shards ≈ 14 probes/s → ~96-minute sweeps
		}
		shards := o.Shards
		if shards <= 0 {
			shards = 2
		}
		scanner := probe.NewSimScanner(&probe.SimBackend{Net: net}, eng, probe.ScanConfig{
			Targets:  net.Plan().ProbeTargets(),
			TCPPorts: tcpPorts,
			UDPPorts: o.UDPPorts,
			Rate:     rate,
			Shards:   shards,
			Compact:  len(tcpPorts) > 64,
		})
		scanner.ScheduleEvery(o.Cfg.Start.Add(o.ScanStartOffset), o.ScanEvery, o.ScanCount,
			func(rep *probe.ScanReport) { d.Active.AddReport(rep) })
	}

	if o.FetchWeb {
		d.scheduleWebFetches()
	}

	eng.RunUntil(d.End)
	d.Inventory = core.NewHybridInventory(d.Merged, d.Active)
	for link, pd := range perLink {
		d.PerLink[link] = core.NewInventory(pd)
	}
	for w, pd := range sampled {
		d.Sampled[w] = core.NewInventory(pd)
	}
	return d, nil
}

// scheduleWebFetches polls for newly discovered web servers hourly and
// fetches each root page one day after discovery, as in the Table 5
// methodology ("each web server is contacted within a day of discovery").
func (d *Dataset) scheduleWebFetches() {
	cat := webcat.DefaultCategorizer()
	scheduled := make(map[netaddr.V4]bool)
	fetch := func(addr netaddr.V4) {
		d.Eng.After(24*time.Hour, func(now time.Time) {
			if _, done := d.WebContent[addr]; done {
				return
			}
			body, ok := d.Net.FetchRoot(now, addr)
			if !ok {
				d.WebContent[addr] = webcat.NoResponse
				return
			}
			d.WebContent[addr] = cat.Categorize(body)
		})
	}
	d.Eng.Every(d.Start.Add(time.Hour), time.Hour, func(now time.Time) {
		consider := func(key core.ServiceKey) {
			if key.Proto != packet.ProtoTCP || (key.Port != campus.PortHTTP && key.Port != campus.PortHTTPS) {
				return
			}
			if !scheduled[key.Addr] {
				scheduled[key.Addr] = true
				fetch(key.Addr)
			}
		}
		core.NewInventory(d.Merged).EachService(func(key core.ServiceKey, _ *core.PassiveRecord, _ core.Provenance, _, _ time.Time) bool {
			consider(key)
			return true
		})
		for key := range d.Active.Services() {
			consider(key)
		}
	})
}

// AllPortsAnalysis returns the unfiltered analysis (every port and
// protocol), the scope of the DTCPall and DUDP studies.
func (d *Dataset) AllPortsAnalysis() *core.Analysis {
	return &core.Analysis{Inventory: d.Inventory}
}

// Analysis returns the joined analysis restricted to the selected TCP
// service ports (the DTCP1* datasets' scope).
func (d *Dataset) Analysis() *core.Analysis {
	selected := make(map[uint16]bool, len(campus.SelectedTCPPorts))
	for _, p := range campus.SelectedTCPPorts {
		selected[p] = true
	}
	return &core.Analysis{
		Inventory: d.Inventory,
		Keep: func(k core.ServiceKey) bool {
			return k.Proto == packet.ProtoTCP && selected[k.Port]
		},
	}
}

// AnalysisFor returns an analysis restricted to a single TCP port.
func (d *Dataset) AnalysisFor(port uint16) *core.Analysis {
	return &core.Analysis{
		Inventory: d.Inventory,
		Keep: func(k core.ServiceKey) bool {
			return k.Proto == packet.ProtoTCP && k.Port == port
		},
	}
}

// ClassOf reports the address class, defaulting to static for off-plan
// addresses (which do not occur in practice).
func (d *Dataset) ClassOf(a netaddr.V4) campus.AddressClass {
	c, _ := d.Net.Plan().ClassOf(a)
	return c
}

// IsTransient reports whether the address belongs to a transient block.
func (d *Dataset) IsTransient(a netaddr.V4) bool {
	return d.ClassOf(a).Transient()
}

// Duration returns the observation window length.
func (d *Dataset) Duration() time.Duration { return d.End.Sub(d.Start) }

// String summarizes the dataset.
func (d *Dataset) String() string {
	return fmt.Sprintf("dataset[%s, %.1f days, %d scans]",
		d.Start.Format("2006-01-02"), d.Duration().Hours()/24, len(d.Active.Scans()))
}

// Semester18d builds the flagship DTCP1-18d dataset: 18 days of passive
// collection with sweeps every 12 hours (35 total).
func Semester18d() (*Dataset, error) {
	return Build(BuildOptions{
		Cfg:             campus.DefaultSemesterConfig(),
		Days:            18,
		ScanStartOffset: time.Hour,
		ScanEvery:       12 * time.Hour,
		ScanCount:       35,
		SampleWindows: []time.Duration{
			2 * time.Minute, 5 * time.Minute, 10 * time.Minute, 30 * time.Minute,
		},
		FetchWeb: true,
	})
}

// Semester90d builds DTCP1-90d: 90 days of passive-only observation, plus a
// final sweep to complete the union ground truth. Client flow volume is
// reduced 4× to keep the simulation tractable; popularity weighting is
// unaffected because discovery depends on rare-service rates, which are
// unchanged.
func Semester90d() (*Dataset, error) {
	cfg := campus.DefaultSemesterConfig()
	cfg.Start = time.Date(2006, 8, 10, 10, 0, 0, 0, time.UTC)
	cfg.FlowsPerDay /= 4
	return Build(BuildOptions{
		Cfg:             cfg,
		Days:            90,
		ScanStartOffset: time.Hour,
		ScanEvery:       89 * 24 * time.Hour, // one sweep at the start, one near the end
		ScanCount:       2,
	})
}

// Break11d builds DTCPbreak: 11 days over winter break with all three
// peerings monitored (including Internet2).
func Break11d() (*Dataset, error) {
	return Build(BuildOptions{
		Cfg:             campus.BreakConfig(),
		Days:            11,
		ScanStartOffset: time.Hour,
		ScanEvery:       12 * time.Hour,
		ScanCount:       22,
		Links: []capture.LinkID{
			capture.LinkCommercial1, capture.LinkCommercial2, capture.LinkInternet2,
		},
	})
}

// UDP1d builds DUDP: 24 hours of passive collection plus one generic UDP
// sweep of the four selected ports.
func UDP1d() (*Dataset, error) {
	cfg := campus.DefaultSemesterConfig()
	cfg.Start = time.Date(2006, 10, 18, 10, 0, 0, 0, time.UTC)
	cfg.Seed = 0xD0D5EED
	return Build(BuildOptions{
		Cfg:             cfg,
		Days:            1,
		ScanStartOffset: time.Hour,
		ScanEvery:       48 * time.Hour, // exactly one sweep in-window
		ScanCount:       1,
		ScanRate:        10,
		TCPPorts:        []uint16{},
		UDPPorts:        campus.SelectedUDPPorts,
	})
}
