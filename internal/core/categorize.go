package core

import (
	"time"

	"servdisc/internal/netaddr"
)

// Category12h labels the four-way classification of Table 3.
type Category12h uint8

// Table 3 categories.
const (
	CatActiveServer    Category12h = iota // passive yes, active yes
	CatIdleServer                         // passive no, active yes
	CatFirewallOrBirth                    // passive yes, active no
	CatNonServer                          // neither
)

// String names the category as in Table 3.
func (c Category12h) String() string {
	switch c {
	case CatActiveServer:
		return "active server address"
	case CatIdleServer:
		return "idle server address"
	case CatFirewallOrBirth:
		return "firewalled address or birth"
	default:
		return "non-server address"
	}
}

// Table3 holds the classification counts over the whole probed space.
type Table3 struct {
	ActiveServer, IdleServer, FirewallOrBirth, NonServer int
}

// Total sums all categories (= the probed address space).
func (t Table3) Total() int {
	return t.ActiveServer + t.IdleServer + t.FirewallOrBirth + t.NonServer
}

// Categorize12h classifies every probed address by the first 12 hours of
// passive observation and the first sweep (Table 3).
func (a *Analysis) Categorize12h(cut time.Time, space []netaddr.V4) Table3 {
	passive := netaddr.NewSet()
	for addr, t := range a.PassiveAddrs() {
		if !t.After(cut) {
			passive.Add(addr)
		}
	}
	active := netaddr.NewSet()
	scans := a.Inventory.Scans()
	if len(scans) > 0 {
		end := scans[0].Finished
		for addr, t := range a.ActiveAddrs() {
			if !t.After(end) {
				active.Add(addr)
			}
		}
	}
	var out Table3
	for _, addr := range space {
		p, ac := passive.Contains(addr), active.Contains(addr)
		switch {
		case p && ac:
			out.ActiveServer++
		case !p && ac:
			out.IdleServer++
		case p && !ac:
			out.FirewallOrBirth++
		default:
			out.NonServer++
		}
	}
	return out
}

// Trait4 is one row key of Table 4: presence in the four observation sets
// plus address transience.
type Trait4 struct {
	Passive12h, Active12h   bool // first half-day (first sweep)
	PassiveRest, ActiveRest bool // remainder of the dataset
	Transient               bool
}

// Label reproduces the paper's interpretation column for each combination
// (Table 4). Combinations the paper's table does not enumerate fall back to
// a systematic name.
func (t Trait4) Label() string {
	switch {
	case t.Passive12h && t.Active12h:
		switch {
		case t.PassiveRest && t.ActiveRest:
			return "active server address"
		case !t.PassiveRest && !t.ActiveRest:
			return "server death"
		case t.PassiveRest && !t.ActiveRest:
			return "intermittent"
		default:
			return "mostly idle"
		}
	case !t.Passive12h && t.Active12h:
		if t.Transient {
			return "idle/intermittent"
		}
		if t.PassiveRest {
			return "semi-idle"
		}
		return "idle"
	case t.Passive12h && !t.Active12h:
		if t.Transient {
			return "intermittent"
		}
		switch {
		case t.PassiveRest && t.ActiveRest:
			return "birth"
		case t.PassiveRest && !t.ActiveRest:
			return "possible firewall"
		case !t.PassiveRest && !t.ActiveRest:
			return "death"
		default:
			return "birth/mostly idle"
		}
	default: // nothing in the first half-day
		switch {
		case !t.PassiveRest && !t.ActiveRest:
			return "non-server address"
		case t.PassiveRest && t.ActiveRest:
			if t.Transient {
				return "intermittent/active"
			}
			return "birth"
		case !t.PassiveRest && t.ActiveRest:
			if t.Transient {
				return "intermittent/idle"
			}
			return "birth/idle"
		default:
			if t.Transient {
				return "possible firewall/intermittent"
			}
			return "possible firewall/birth"
		}
	}
}

// Table4Row pairs a trait combination with its address count.
type Table4Row struct {
	Trait Trait4
	Count int
}

// CategorizeLongitudinal computes Table 4: each probed address classified
// by first-12h and remainder observations plus transience. transient
// reports whether an address belongs to a transient block.
func (a *Analysis) CategorizeLongitudinal(cut time.Time, space []netaddr.V4, transient func(netaddr.V4) bool) []Table4Row {
	pFirst := a.PassiveAddrs()
	aFirst := a.ActiveAddrs()

	var firstScanEnd time.Time
	if scans := a.Inventory.Scans(); len(scans) > 0 {
		firstScanEnd = scans[0].Finished
	}

	// Active rest: any open outcome in scans after the first.
	aRest := netaddr.NewSet()
	for _, addr := range activeAddrList(aFirst) {
		for _, out := range a.Inventory.active.Outcomes(addr) {
			if out.ScanID != 0 && len(out.Open) > 0 {
				aRest.Add(addr)
				break
			}
		}
	}

	counts := make(map[Trait4]int)
	for _, addr := range space {
		var tr Trait4
		if t, ok := pFirst[addr]; ok && !t.After(cut) {
			tr.Passive12h = true
		}
		if t, ok := aFirst[addr]; ok && !firstScanEnd.IsZero() && !t.After(firstScanEnd) {
			tr.Active12h = true
		}
		// Passive-rest: any contact after the cut — either discovered
		// after the cut, or (for servers found early) still showing
		// activity in the remainder of the window.
		if t, ok := pFirst[addr]; ok && t.After(cut) {
			tr.PassiveRest = true
		} else if last, ok := a.Inventory.LastActivity(addr); ok && last.After(cut) {
			tr.PassiveRest = true
		}
		tr.ActiveRest = aRest.Contains(addr)
		tr.Transient = transient != nil && transient(addr)
		counts[tr]++
	}

	rows := make([]Table4Row, 0, len(counts))
	for tr, c := range counts {
		rows = append(rows, Table4Row{Trait: tr, Count: c})
	}
	sortTable4(rows)
	return rows
}

func activeAddrList(m map[netaddr.V4]time.Time) []netaddr.V4 {
	out := make([]netaddr.V4, 0, len(m))
	for a := range m {
		out = append(out, a)
	}
	return out
}

func sortTable4(rows []Table4Row) {
	key := func(t Trait4) int {
		k := 0
		if t.Passive12h {
			k |= 16
		}
		if t.Active12h {
			k |= 8
		}
		if t.PassiveRest {
			k |= 4
		}
		if t.ActiveRest {
			k |= 2
		}
		if t.Transient {
			k |= 1
		}
		return -k
	}
	for i := 1; i < len(rows); i++ {
		for j := i; j > 0 && key(rows[j].Trait) < key(rows[j-1].Trait); j-- {
			rows[j], rows[j-1] = rows[j-1], rows[j]
		}
	}
}
