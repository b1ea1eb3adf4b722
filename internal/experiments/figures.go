package experiments

import (
	"fmt"
	"time"

	"servdisc/internal/campus"
	"servdisc/internal/core"
	"servdisc/internal/netaddr"
	"servdisc/internal/report"
	"servdisc/internal/stats"
)

// Figure1 reproduces the 12-hour weighted/unweighted cumulative discovery
// curves: passive finds 99% of flow-weighted servers within minutes while
// active probing needs over an hour.
func Figure1(ds *Dataset) *report.Figure {
	an := ds.Analysis()
	cut := ds.Start.Add(12 * time.Hour)

	passiveFirst := map[netaddr.V4]time.Time{}
	for addr, t := range an.PassiveAddrs() {
		if !t.After(cut) {
			passiveFirst[addr] = t
		}
	}
	activeFirst := map[netaddr.V4]time.Time{}
	if scans := ds.Active.Scans(); len(scans) > 0 {
		for addr, t := range an.ActiveAddrs() {
			if !t.After(scans[0].Finished) {
				activeFirst[addr] = t
			}
		}
	}

	mk := func(name string, first map[netaddr.V4]time.Time, kind core.WeightKind) *stats.Series {
		s := an.WeightedSeries(first, kind, ds.Start, cut)
		s.Name = name
		return s
	}
	return report.NewFigure(
		"Figure 1: weighted and unweighted cumulative server discovery over 12 hours",
		10*time.Minute,
		mk("passive-unweighted", passiveFirst, core.WeightNone),
		mk("passive-flow", passiveFirst, core.WeightFlows),
		mk("passive-client", passiveFirst, core.WeightClients),
		mk("active-unweighted", activeFirst, core.WeightNone),
		mk("active-flow", activeFirst, core.WeightFlows),
		mk("active-client", activeFirst, core.WeightClients),
	)
}

// Figure2 reproduces 18-day cumulative discovery over all and static-only
// addresses.
func Figure2(ds *Dataset) *report.Figure {
	an := ds.Analysis()
	static := func(a netaddr.V4) bool { return !ds.IsTransient(a) }
	p := an.PassiveSeries(ds.Start, ds.End, nil)
	p.Name = "passive (all hosts)"
	a := an.ActiveSeries(ds.Start, ds.End, nil)
	a.Name = "active (all hosts)"
	ps := an.PassiveSeries(ds.Start, ds.End, static)
	ps.Name = "passive (static only)"
	as := an.ActiveSeries(ds.Start, ds.End, static)
	as.Name = "active (static only)"
	return report.NewFigure(
		"Figure 2: cumulative server discovery over 18 days, all and non-transient addresses",
		6*time.Hour, p, a, ps, as)
}

// Figure3 compares 90-day and 18-day passive discovery.
func Figure3(ds90, ds18 *Dataset) *report.Figure {
	static90 := func(a netaddr.V4) bool { return !ds90.IsTransient(a) }
	an90 := ds90.Analysis()
	an18 := ds18.Analysis()
	s90 := an90.PassiveSeries(ds90.Start, ds90.End, nil)
	s90.Name = "TCP1-90d (all hosts)"
	s90s := an90.PassiveSeries(ds90.Start, ds90.End, static90)
	s90s.Name = "TCP1-90d (static only)"
	s18 := an18.PassiveSeries(ds18.Start, ds18.End, nil)
	s18.Name = "TCP1-18d (all hosts)"
	return report.NewFigure(
		"Figure 3: cumulative passive discovery over 90 vs 18 days",
		12*time.Hour, s90, s90s, s18)
}

// Figure4 reproduces passive discovery with and without external scans.
func Figure4(ds *Dataset) *report.Figure {
	an := ds.Analysis()
	with := an.PassiveSeries(ds.Start, ds.End, nil)
	with.Name = "with external scans"
	without := an.PassiveSeriesExcludingScanners(ds.Start, ds.End, nil)
	without.Name = "external scans mitigated"
	return report.NewFigure(
		"Figure 4: cumulative passive discovery with and without external scans",
		6*time.Hour, with, without)
}

// Figure5 reproduces per-address-class discovery (DHCP/PPP/VPN), each as
// percent of that class's union.
func Figure5(ds *Dataset) *report.Figure {
	an := ds.Analysis()
	var series []*stats.Series
	for _, class := range []campus.AddressClass{campus.ClassDHCP, campus.ClassPPP, campus.ClassVPN} {
		inClass := func(a netaddr.V4) bool { return ds.ClassOf(a) == class }
		p := an.PassiveSeries(ds.Start, ds.End, inClass)
		a := an.ActiveSeries(ds.Start, ds.End, inClass)
		union := unionSize(an, inClass)
		if union == 0 {
			union = 1
		}
		p = p.Scale(100 / float64(union))
		a = a.Scale(100 / float64(union))
		p.Name = fmt.Sprintf("passive %s", class)
		a.Name = fmt.Sprintf("active %s", class)
		series = append(series, p, a)
	}
	return report.NewFigure(
		"Figure 5: server discovery grouped by transience of address block (percent of class union)",
		6*time.Hour, series...)
}

func unionSize(an *core.Analysis, ok func(netaddr.V4) bool) int {
	u := netaddr.NewSet()
	for a := range an.PassiveAddrs() {
		if ok == nil || ok(a) {
			u.Add(a)
		}
	}
	for a := range an.ActiveAddrs() {
		if ok == nil || ok(a) {
			u.Add(a)
		}
	}
	return u.Len()
}

// Figure6 reproduces per-protocol discovery curves (percent of each
// service's union).
func Figure6(ds *Dataset) *report.Figure {
	var series []*stats.Series
	for _, port := range []uint16{campus.PortHTTP, campus.PortFTP, campus.PortSSH, campus.PortMySQL} {
		an := ds.AnalysisFor(port)
		union := unionSize(an, nil)
		if union == 0 {
			union = 1
		}
		p := an.PassiveSeries(ds.Start, ds.End, nil).Scale(100 / float64(union))
		a := an.ActiveSeries(ds.Start, ds.End, nil).Scale(100 / float64(union))
		p.Name = "passive " + campus.ServiceName(port)
		a.Name = "active " + campus.ServiceName(port)
		series = append(series, p, a)
	}
	return report.NewFigure(
		"Figure 6: server discovery over time by protocol (percent of service union)",
		6*time.Hour, series...)
}

// Figure7 reproduces the time-of-day probing study: day-only, night-only,
// alternating, and full every-12h probing, as percent of the dataset's
// total (union) servers.
func Figure7(ds *Dataset) *report.Figure {
	an := ds.Analysis()
	union := unionSize(an, nil)
	if union == 0 {
		union = 1
	}
	scans := ds.Active.Scans()

	subset := func(name string, pick func(i int, m core.ScanMeta) bool) *stats.Series {
		ids := map[int]bool{}
		for i, m := range scans {
			if pick(i, m) {
				ids[m.ID] = true
			}
		}
		first := ds.Active.AddrFirstOpenForScans(ids, an.Keep)
		s := stats.NewSeries(name)
		s.Add(ds.Start, 0)
		// Build the cumulative curve.
		times := make([]time.Time, 0, len(first))
		for _, t := range first {
			times = append(times, t)
		}
		sortTimes(times)
		for i, t := range times {
			s.Add(t, 100*float64(i+1)/float64(union))
		}
		return s
	}
	day := func(m core.ScanMeta) bool { h := m.Started.Hour(); return h >= 8 && h < 20 }
	return report.NewFigure(
		"Figure 7: network scanning at different times of day (percent of union found)",
		12*time.Hour,
		subset("every 12 hours", func(int, core.ScanMeta) bool { return true }),
		subset("every 24h day", func(_ int, m core.ScanMeta) bool { return day(m) }),
		subset("every 24h night", func(_ int, m core.ScanMeta) bool { return !day(m) }),
		subset("alternating day/night", func(i int, _ core.ScanMeta) bool { return i%4 == 0 || i%4 == 3 }),
	)
}

func sortTimes(ts []time.Time) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j].Before(ts[j-1]); j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}

// Figure8 reproduces fixed-duration sampling: discovery under 2/5/10/30
// minute-per-hour captures as percent of what continuous monitoring found.
func Figure8(ds *Dataset) *report.Figure {
	an := ds.Analysis()
	full := an.PassiveAddrs()
	total := len(full)
	if total == 0 {
		total = 1
	}
	var series []*stats.Series
	windows := make([]time.Duration, 0, len(ds.Sampled))
	for w := range ds.Sampled {
		windows = append(windows, w)
	}
	for i := 1; i < len(windows); i++ {
		for j := i; j > 0 && windows[j] < windows[j-1]; j-- {
			windows[j], windows[j-1] = windows[j-1], windows[j]
		}
	}
	for _, w := range windows {
		san := &core.Analysis{Inventory: ds.Sampled[w], Keep: an.Keep}
		s := san.PassiveSeries(ds.Start, ds.End, nil).Scale(100 / float64(total))
		s.Name = fmt.Sprintf("%d min", int(w.Minutes()))
		series = append(series, s)
	}
	fullSeries := an.PassiveSeries(ds.Start, ds.End, nil).Scale(100 / float64(total))
	fullSeries.Name = "no sampling"
	series = append(series, fullSeries)
	return report.NewFigure(
		"Figure 8: cumulative discovery under fixed-period sampling (percent of continuous)",
		6*time.Hour, series...)
}

// Figure9 reproduces the 24-hour weighted/unweighted discovery on the
// all-ports lab dataset.
func Figure9(lab *Dataset) *report.Figure {
	an := lab.AllPortsAnalysis()
	cut := lab.Start.Add(24 * time.Hour)
	passiveFirst := map[netaddr.V4]time.Time{}
	for addr, t := range an.PassiveAddrs() {
		if !t.After(cut) {
			passiveFirst[addr] = t
		}
	}
	activeFirst := map[netaddr.V4]time.Time{}
	for addr, t := range an.ActiveAddrs() {
		if !t.After(cut) {
			activeFirst[addr] = t
		}
	}
	mk := func(name string, first map[netaddr.V4]time.Time, kind core.WeightKind) *stats.Series {
		s := an.WeightedSeries(first, kind, lab.Start, cut)
		s.Name = name
		return s
	}
	return report.NewFigure(
		"Figure 9: weighted and unweighted cumulative discovery over 24 hours, all ports (DTCPall)",
		time.Hour,
		mk("passive-unweighted", passiveFirst, core.WeightNone),
		mk("passive-flow", passiveFirst, core.WeightFlows),
		mk("passive-client", passiveFirst, core.WeightClients),
		mk("active-unweighted", activeFirst, core.WeightNone),
		mk("active-flow", activeFirst, core.WeightFlows),
		mk("active-client", activeFirst, core.WeightClients),
	)
}

// Figure10 reproduces ten-day cumulative discovery over all known ports.
func Figure10(lab *Dataset) *report.Figure {
	an := lab.AllPortsAnalysis()
	p := an.PassiveSeries(lab.Start, lab.End, nil)
	p.Name = "passive"
	a := an.ActiveSeries(lab.Start, lab.End, nil)
	a.Name = "active"
	return report.NewFigure(
		"Figure 10: cumulative server discovery over 10 days, all ports (DTCPall)",
		6*time.Hour, p, a)
}

// Figure11 renders the host × open-port scatter as a table (the paper's
// scatter plot); the CSV form is the plottable artifact.
func Figure11(lab *Dataset) *report.Table {
	m := Fig11Matrix(lab)
	t := report.NewTable("Figure 11: open ports per host (DTCPall)",
		"host", "active ports", "passive ports")
	base := lab.Net.Plan().Base()
	for _, row := range m.Rows {
		t.AddRow(int(row.Addr-base), fmt.Sprint(row.Active), fmt.Sprint(row.Passive))
	}
	return t
}

// Figure12 reproduces winter-break discovery, all vs non-transient.
func Figure12(brk *Dataset) *report.Figure {
	an := brk.Analysis()
	static := func(a netaddr.V4) bool { return !brk.IsTransient(a) }
	p := an.PassiveSeries(brk.Start, brk.End, nil)
	p.Name = "passive (all)"
	a := an.ActiveSeries(brk.Start, brk.End, nil)
	a.Name = "active (all)"
	ps := an.PassiveSeries(brk.Start, brk.End, static)
	ps.Name = "passive (static)"
	as := an.ActiveSeries(brk.Start, brk.End, static)
	as.Name = "active (static)"
	return report.NewFigure(
		"Figure 12: cumulative server discovery over 11 days during winter break",
		6*time.Hour, p, a, ps, as)
}
