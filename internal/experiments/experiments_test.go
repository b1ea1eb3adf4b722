package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"servdisc/internal/campus"
	"servdisc/internal/capture"
	"servdisc/internal/core"
	"servdisc/internal/netaddr"
	"servdisc/internal/report"
	"servdisc/internal/stats"
)

// smallConfig scales the campus down ~8× so an 18-day campaign simulates in
// a couple of seconds; proportions (and therefore every qualitative result)
// are preserved.
func smallConfig() campus.Config {
	c := campus.DefaultSemesterConfig()
	c.StaticAddrs = 1728
	c.DHCPAddrs = 128
	c.WirelessAddrs = 64
	c.PPPAddrs = 64
	c.VPNAddrs = 32
	c.StaticSubnets = 8
	c.StaticLiveHosts = 450
	c.StaticServers = 200
	c.PopularServers = 6
	c.StealthFirewalled = 5
	c.ServerDeaths = 2
	c.StaticServerBirthsPerDay = 2
	c.FlowsPerDay = 8000
	c.ClientPool = 5000
	c.DHCPHosts = 110
	c.PPPHosts = 52
	c.VPNHosts = 24
	c.WirelessHosts = 50
	c.SmallScanMinAddrs = 60
	c.SmallScanMaxAddrs = 300
	c.UDP.DNSServers = 12
	c.UDP.DNSGenericReply = 7
	c.UDP.WindowsHosts = 200
	c.UDP.NetBIOSGenericReply = 6
	c.UDP.NetBIOSLeaks = 2
	return c
}

func smallDataset(t *testing.T, days float64, scanCount int) *Dataset {
	t.Helper()
	ds, err := Build(BuildOptions{
		Cfg:             smallConfig(),
		Days:            days,
		ScanStartOffset: time.Hour,
		ScanEvery:       12 * time.Hour,
		ScanCount:       scanCount,
		ScanRate:        4,
		SampleWindows:   []time.Duration{2 * time.Minute, 30 * time.Minute},
		FetchWeb:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

var (
	cachedDS   *Dataset
	cachedDays = 18.0
)

func sharedSmall(t *testing.T) *Dataset {
	t.Helper()
	if cachedDS == nil {
		cachedDS = smallDataset(t, cachedDays, 35)
	}
	return cachedDS
}

func TestDatasetShapeMatchesPaper(t *testing.T) {
	ds := sharedSmall(t)
	an := ds.Analysis()

	// 12-hour column of Table 2: one scan dominates (paper: 98% vs 19%).
	row12 := an.Completeness(ds.Start.Add(12*time.Hour), 1)
	if row12.Union == 0 {
		t.Fatal("empty union")
	}
	activePct := float64(row12.Active) / float64(row12.Union)
	passivePct := float64(row12.Passive) / float64(row12.Union)
	if activePct < 0.9 {
		t.Errorf("active 12h completeness = %.2f, paper ~0.98", activePct)
	}
	if passivePct > 0.45 || passivePct < 0.05 {
		t.Errorf("passive 12h completeness = %.2f, paper ~0.19", passivePct)
	}

	// Full window: passive catches up substantially but stays below
	// active (paper: 71% vs 94%).
	full := an.Completeness(ds.End, 0)
	fullPassive := float64(full.Passive) / float64(full.Union)
	fullActive := float64(full.Active) / float64(full.Union)
	if fullPassive <= passivePct+0.2 {
		t.Errorf("passive never caught up: %.2f -> %.2f", passivePct, fullPassive)
	}
	if fullActive <= fullPassive {
		t.Errorf("active (%.2f) should stay ahead of passive (%.2f)", fullActive, fullPassive)
	}
	if full.PassiveOnly == 0 {
		t.Error("no passive-only servers (paper: 6.3%)")
	}
}

func TestWeightedDiscoveryIsFast(t *testing.T) {
	ds := sharedSmall(t)
	fig := Figure1(ds)
	// The passive flow-weighted series must reach 95% quickly (paper:
	// 99% of flow-weighted servers within 5 minutes).
	var flow, unw *stats.Series
	for _, s := range fig.Series {
		switch s.Name {
		case "passive-flow":
			flow = s
		case "passive-unweighted":
			unw = s
		}
	}
	if flow == nil || unw == nil {
		t.Fatal("series missing")
	}
	at, ok := flow.FirstReaching(95)
	if !ok {
		t.Fatal("flow-weighted never reached 95%")
	}
	if d := at.Sub(ds.Start); d > 2*time.Hour {
		t.Errorf("flow-weighted 95%% took %v, paper: minutes", d)
	}
	// Unweighted lags far behind at that moment.
	if unw.At(at) > 50 {
		t.Errorf("unweighted already at %.0f%% when flow hit 95%%", unw.At(at))
	}
}

func TestExternalScansBoostPassive(t *testing.T) {
	ds := sharedSmall(t)
	an := ds.Analysis()
	with := an.PassiveSeries(ds.Start, ds.End, nil)
	without := an.PassiveSeriesExcludingScanners(ds.Start, ds.End, nil)
	if without.Last() >= with.Last() {
		t.Errorf("scan removal did not reduce discovery: %v vs %v", without.Last(), with.Last())
	}
	drop := (with.Last() - without.Last()) / with.Last()
	if drop < 0.05 {
		t.Errorf("scan removal dropped only %.1f%%, paper: 36%%", 100*drop)
	}
}

func TestVPNAnomaly(t *testing.T) {
	ds := sharedSmall(t)
	an := ds.Analysis()
	inVPN := func(addr netaddr.V4) bool { return ds.ClassOf(addr) == campus.ClassVPN }
	p := an.PassiveSeries(ds.Start, ds.End, inVPN).Last()
	a := an.ActiveSeries(ds.Start, ds.End, inVPN).Last()
	if a < 3*p {
		t.Errorf("VPN active (%v) should dwarf passive (%v), paper ~10x", a, p)
	}
	if a == 0 {
		t.Error("no VPN servers found actively")
	}
}

func TestTablesRender(t *testing.T) {
	ds := sharedSmall(t)
	for name, tab := range map[string]interface{ Render() string }{
		"table1": Table1(),
		"table2": Table2(ds),
		"table3": Table3(ds),
		"table4": Table4(ds),
		"table5": Table5(ds),
		"table6": Table6(ds),
		"table8": Table8(ds, "Table 8 (semester links)"),
	} {
		out := tab.Render()
		if len(out) < 50 || !strings.Contains(out, "\n") {
			t.Errorf("%s render too small:\n%s", name, out)
		}
	}
}

func TestTable3Totals(t *testing.T) {
	ds := sharedSmall(t)
	an := ds.Analysis()
	tab := an.Categorize12h(ds.Start.Add(12*time.Hour), ds.Net.Plan().ProbeTargets())
	if tab.Total() != len(ds.Net.Plan().ProbeTargets()) {
		t.Errorf("Table 3 total %d != probed %d", tab.Total(), len(ds.Net.Plan().ProbeTargets()))
	}
	if tab.IdleServer <= tab.ActiveServer {
		t.Error("idle servers should dominate active ones (paper: 81% vs 16%)")
	}
}

func TestTable4CountsSumToSpace(t *testing.T) {
	ds := sharedSmall(t)
	an := ds.Analysis()
	rows := an.CategorizeLongitudinal(ds.Start.Add(12*time.Hour),
		ds.Net.Plan().ProbeTargets(), ds.IsTransient)
	sum := 0
	for _, r := range rows {
		sum += r.Count
	}
	if sum != len(ds.Net.Plan().ProbeTargets()) {
		t.Errorf("Table 4 sums to %d, want %d", sum, len(ds.Net.Plan().ProbeTargets()))
	}
}

func TestTable5HasContent(t *testing.T) {
	ds := sharedSmall(t)
	if len(ds.WebContent) == 0 {
		t.Fatal("no web pages fetched")
	}
	tab := Table5(ds)
	if len(tab.Rows()) != 7 {
		t.Errorf("Table 5 rows = %d", len(tab.Rows()))
	}
}

func TestFiguresRenderAndCSV(t *testing.T) {
	ds := sharedSmall(t)
	figs := map[string]*report.Figure{
		"fig1": Figure1(ds),
		"fig2": Figure2(ds),
		"fig4": Figure4(ds),
		"fig5": Figure5(ds),
		"fig6": Figure6(ds),
		"fig7": Figure7(ds),
		"fig8": Figure8(ds),
	}
	for name, f := range figs {
		if len(f.Series) == 0 {
			t.Errorf("%s has no series", name)
			continue
		}
		if out := f.Render(); len(out) < 40 {
			t.Errorf("%s render too small", name)
		}
		var buf bytes.Buffer
		if err := f.WriteCSV(&buf); err != nil {
			t.Errorf("%s CSV: %v", name, err)
		}
		if lines := strings.Count(buf.String(), "\n"); lines < 3 {
			t.Errorf("%s CSV only %d lines", name, lines)
		}
	}
}

func TestSamplingOrdering(t *testing.T) {
	ds := sharedSmall(t)
	an := ds.Analysis()
	full := len(an.PassiveAddrs())
	d2 := ds.Sampled[2*time.Minute]
	d30 := ds.Sampled[30*time.Minute]
	if d2 == nil || d30 == nil {
		t.Fatal("sampled inventories missing")
	}
	an2 := &core.Analysis{Inventory: d2, Keep: an.Keep}
	an30 := &core.Analysis{Inventory: d30, Keep: an.Keep}
	n2 := len(an2.PassiveAddrs())
	n30 := len(an30.PassiveAddrs())
	if !(n2 <= n30 && n30 <= full) {
		t.Errorf("sampling ordering violated: 2min=%d 30min=%d full=%d", n2, n30, full)
	}
	// 30-minute sampling keeps most of the discovery (paper: ~95%).
	if float64(n30) < 0.7*float64(full) {
		t.Errorf("30min sampling found only %d of %d", n30, full)
	}
}

func TestLabDatasetSmall(t *testing.T) {
	// A reduced lab run: fewer ports to keep the sweep fast.
	cfg := labConfig()
	net, err := campus.NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := buildLabPopulation(net, cfg); err != nil {
		t.Fatal(err)
	}
	ds, err := buildOn(net, BuildOptions{
		Cfg:             cfg,
		Days:            4,
		ScanStartOffset: time.Hour,
		ScanEvery:       10 * 24 * time.Hour,
		ScanCount:       1,
		ScanRate:        600,
		Shards:          2,
		TCPPorts:        allPorts(),
	})
	if err != nil {
		t.Fatal(err)
	}
	an := ds.AllPortsAnalysis()
	full := an.Completeness(ds.End, 0)
	if full.Union < 100 {
		t.Fatalf("lab union = %d", full.Union)
	}
	// NT-style local services must be active-only.
	if full.ActiveOnly == 0 {
		t.Error("no active-only services; NT local services should be invisible passively")
	}
	m := Fig11Matrix(ds)
	if len(m.Rows) < 100 {
		t.Errorf("Fig 11 rows = %d", len(m.Rows))
	}
	if tbl := Figure11(ds); len(tbl.Rows()) != len(m.Rows) {
		t.Error("Figure11 table rows mismatch")
	}
}

func TestUDPDatasetSmall(t *testing.T) {
	cfg := smallConfig()
	cfg.Seed = 0xD0D5EED
	ds, err := Build(BuildOptions{
		Cfg:             cfg,
		Days:            1,
		ScanStartOffset: time.Hour,
		ScanEvery:       48 * time.Hour,
		ScanCount:       1,
		ScanRate:        10,
		TCPPorts:        []uint16{},
		UDPPorts:        campus.SelectedUDPPorts,
	})
	if err != nil {
		t.Fatal(err)
	}
	an := ds.AllPortsAnalysis()
	table := an.UDPSummary(campus.SelectedUDPPorts, ds.Net.Plan().ProbeTargets())
	if table.ActiveDefinitelyOpenTotal == 0 {
		t.Error("no definitely-open UDP services")
	}
	if table.NoResponseAnyPort == 0 {
		t.Error("no dead space in UDP probe")
	}
	var netbios core.UDPPortSummary
	for _, ps := range table.Ports {
		if ps.Port == campus.UDPPortNetBIOS {
			netbios = ps
		}
	}
	if netbios.PossiblyOpen == 0 {
		t.Error("no possibly-open NetBIOS hosts (paper: 4,238)")
	}
	if tbl := Table7(ds); len(tbl.Rows()) != 5 {
		t.Errorf("Table 7 rows = %d", len(tbl.Rows()))
	}
}

func TestBreakDatasetSmall(t *testing.T) {
	cfg := smallConfig()
	cfg.Start = time.Date(2006, 12, 16, 10, 0, 0, 0, time.UTC)
	cfg.DHCPHosts = 25
	cfg.PPPHosts = 8
	cfg.VPNHosts = 4
	ds, err := Build(BuildOptions{
		Cfg:             cfg,
		Days:            11,
		ScanStartOffset: time.Hour,
		ScanEvery:       12 * time.Hour,
		ScanCount:       22,
		ScanRate:        4,
		Links: []capture.LinkID{
			capture.LinkCommercial1, capture.LinkCommercial2, capture.LinkInternet2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if fig := Figure12(ds); len(fig.Series) != 4 {
		t.Error("Figure 12 series missing")
	}
	tbl := Table8(ds, "Table 8 (break)")
	if len(tbl.Rows()) != 4 { // 3 links + total
		t.Errorf("Table 8 rows = %d", len(tbl.Rows()))
	}
	// Internet2 must see far fewer servers than the commercial links.
	i2 := ds.PerLink[capture.LinkInternet2]
	c1 := ds.PerLink[capture.LinkCommercial1]
	if len(i2.AddrFirstSeen(nil)) >= len(c1.AddrFirstSeen(nil)) {
		t.Error("Internet2 should see fewer servers than Commercial 1")
	}
}
