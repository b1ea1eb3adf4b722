package core

import (
	"sort"
	"time"

	"servdisc/internal/netaddr"
	"servdisc/internal/stats"
)

// Analysis reads the evaluation artifacts off one frozen inventory — the
// same Inventory the daemons serve — joining its passive store with its
// active view. All address-level computations treat "server" as the paper
// does: an IP address with at least one discovered service.
type Analysis struct {
	// Inventory is the hybrid inventory analysed (NewHybridInventory, or a
	// Snapshot of a Hybrid engine); a passive-only one (NewInventory) serves
	// the passive reads alone.
	Inventory *Inventory
	// Keep restricts both sides to services of interest (nil keeps
	// everything). Experiments use it to select the studied port set or a
	// single protocol.
	Keep func(ServiceKey) bool
}

// PassiveAddrs returns per-address first passive discovery times.
func (a *Analysis) PassiveAddrs() map[netaddr.V4]time.Time {
	return a.Inventory.AddrFirstSeen(a.Keep)
}

// ActiveAddrs returns per-address first active discovery times.
func (a *Analysis) ActiveAddrs() map[netaddr.V4]time.Time {
	return a.Inventory.active.AddrFirstOpen(a.Keep)
}

// CompletenessRow is one column of Table 2: completeness of both methods
// against the union ground truth at a given observation budget.
type CompletenessRow struct {
	// PassiveCut bounds passive observation; ScanCut bounds the number of
	// sweeps considered (first N by start time).
	PassiveCut time.Time
	ScanCut    int

	// Union counts servers found by either method (the ground truth the
	// rest are measured against); Both / ActiveOnly / PassiveOnly split
	// the union, and Active / Passive are each method's totals.
	Union       int
	Both        int
	ActiveOnly  int
	PassiveOnly int
	Active      int
	Passive     int
}

// Completeness computes a row using passive evidence up to passiveCut and
// the first scanCut sweeps (scanCut <= 0 means all).
func (a *Analysis) Completeness(passiveCut time.Time, scanCut int) CompletenessRow {
	row := CompletenessRow{PassiveCut: passiveCut, ScanCut: scanCut}

	var scanEnd time.Time
	scans := a.Inventory.Scans()
	if scanCut <= 0 || scanCut > len(scans) {
		scanCut = len(scans)
	}
	if scanCut > 0 {
		scanEnd = scans[scanCut-1].Finished
	}

	passive := netaddr.NewSet()
	for addr, t := range a.PassiveAddrs() {
		if !t.After(passiveCut) {
			passive.Add(addr)
		}
	}
	active := netaddr.NewSet()
	for addr, t := range a.ActiveAddrs() {
		if scanCut > 0 && !t.After(scanEnd) {
			active.Add(addr)
		}
	}

	row.Passive = passive.Len()
	row.Active = active.Len()
	row.Both = passive.Intersect(active).Len()
	row.Union = passive.Union(active).Len()
	row.ActiveOnly = row.Active - row.Both
	row.PassiveOnly = row.Passive - row.Both
	return row
}

// DiscoverySeries returns cumulative unique server addresses discovered
// over time by one method. from/to bound the series; addrOK (may be nil)
// filters addresses (e.g. static-only, one address class).
func discoverySeries(name string, first map[netaddr.V4]time.Time, from, to time.Time, addrOK func(netaddr.V4) bool) *stats.Series {
	var events []time.Time
	for addr, t := range first {
		if addrOK != nil && !addrOK(addr) {
			continue
		}
		if t.Before(from) || t.After(to) {
			continue
		}
		events = append(events, t)
	}
	sort.Slice(events, func(i, j int) bool { return events[i].Before(events[j]) })
	s := stats.NewSeries(name)
	s.Add(from, 0)
	for i, t := range events {
		s.Add(t, float64(i+1))
	}
	return s
}

// PassiveSeries returns the cumulative passive discovery curve.
func (a *Analysis) PassiveSeries(from, to time.Time, addrOK func(netaddr.V4) bool) *stats.Series {
	return discoverySeries("passive", a.PassiveAddrs(), from, to, addrOK)
}

// ActiveSeries returns the cumulative active discovery curve.
func (a *Analysis) ActiveSeries(from, to time.Time, addrOK func(netaddr.V4) bool) *stats.Series {
	return discoverySeries("active", a.ActiveAddrs(), from, to, addrOK)
}

// PassiveSeriesExcludingScanners recomputes the passive curve with detected
// scanners' traffic removed (Figure 4).
func (a *Analysis) PassiveSeriesExcludingScanners(from, to time.Time, addrOK func(netaddr.V4) bool) *stats.Series {
	first := a.Inventory.AddrFirstSeenExcluding(a.Inventory.ScannerSet(), a.Keep)
	return discoverySeries("passive-noscan", first, from, to, addrOK)
}

// WeightKind selects the completeness weighting of Section 4.1.2.
type WeightKind uint8

// Weighting modes.
const (
	// WeightNone counts servers.
	WeightNone WeightKind = iota
	// WeightFlows weights each server by its total observed flows.
	WeightFlows
	// WeightClients weights each server by its distinct client count.
	WeightClients
)

// String names the weighting.
func (w WeightKind) String() string {
	switch w {
	case WeightFlows:
		return "flow-weighted"
	case WeightClients:
		return "client-weighted"
	default:
		return "unweighted"
	}
}

// WeightedSeries returns a discovery curve as percent of the union's total
// weight. Weights come from passive observation over the full dataset, as
// in the paper ("we add the number of clients this IP address serves
// throughout the study"); servers never seen passively carry zero weight.
func (a *Analysis) WeightedSeries(first map[netaddr.V4]time.Time, kind WeightKind, from, to time.Time) *stats.Series {
	flows, clients := a.Inventory.AddrWeights()
	weight := func(addr netaddr.V4) float64 {
		switch kind {
		case WeightFlows:
			return float64(flows[addr])
		case WeightClients:
			return float64(clients[addr])
		default:
			return 1
		}
	}
	// The union defines total weight.
	union := netaddr.NewSet()
	for addr := range a.PassiveAddrs() {
		union.Add(addr)
	}
	for addr := range a.ActiveAddrs() {
		union.Add(addr)
	}
	var total float64
	for _, addr := range union.Sorted() {
		total += weight(addr)
	}

	type ev struct {
		t time.Time
		w float64
	}
	var events []ev
	for addr, t := range first {
		if t.Before(from) || t.After(to) {
			continue
		}
		events = append(events, ev{t: t, w: weight(addr)})
	}
	sort.Slice(events, func(i, j int) bool { return events[i].t.Before(events[j].t) })

	s := stats.NewSeries(kind.String())
	s.Add(from, 0)
	cum := 0.0
	for _, e := range events {
		cum += e.w
		if total > 0 {
			s.Add(e.t, 100*cum/total)
		}
	}
	return s
}

// FirewallCandidates returns addresses seen passively but never actively —
// the paper's "possible firewall" population — with both confirmation
// signals evaluated (Section 4.2.4).
type FirewallFinding struct {
	Addr netaddr.V4
	// MixedResponse: in one sweep the host RST some ports and dropped
	// others (method 1).
	MixedResponse bool
	// ActiveDuringScan: passive activity was observed while a sweep that
	// got no answer from the host was running (method 2).
	ActiveDuringScan bool
}

// FirewallCandidates evaluates both confirmation methods for every
// passive-only address.
func (a *Analysis) FirewallCandidates() []FirewallFinding {
	activeAddrs := a.ActiveAddrs()
	var out []FirewallFinding
	for addr := range a.PassiveAddrs() {
		if _, found := activeAddrs[addr]; found {
			continue
		}
		f := FirewallFinding{Addr: addr}
		f.MixedResponse = a.Inventory.active.MixedResponse(addr)
		for _, scan := range a.Inventory.Scans() {
			if a.Inventory.ActiveDuring(addr, scan.Started, scan.Finished) {
				f.ActiveDuringScan = true
				break
			}
		}
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// TimeTo returns how long after start the series first reached pct percent
// of its final value (Figure 1's "99% of flow-weighted servers in 5
// minutes").
func TimeTo(s *stats.Series, start time.Time, pct float64) (time.Duration, bool) {
	target := s.Last() * pct / 100
	if target <= 0 {
		return 0, false
	}
	at, ok := s.FirstReaching(target)
	if !ok {
		return 0, false
	}
	return at.Sub(start), true
}
