package core

import (
	"servdisc/internal/netaddr"
	"servdisc/internal/packet"
	"servdisc/internal/probe"
)

// UDPPortSummary is one column of Table 7: discovery outcomes for a single
// well-known UDP port.
type UDPPortSummary struct {
	Port uint16
	// Passive counts hosts observed sourcing traffic from the port.
	Passive int
	// DefinitelyOpen: a UDP reply answered the generic probe.
	DefinitelyOpen int
	// PossiblyOpen: no answer on this port, but the host answered
	// something on another probed port, so it is alive and may be
	// running a mute service.
	PossiblyOpen int
	// DefinitelyClosed: ICMP port unreachable.
	DefinitelyClosed int
}

// UDPTable is the full Table 7: per-port summaries plus the count of
// addresses that answered nothing on any probed port.
type UDPTable struct {
	Ports []UDPPortSummary
	// NoResponseAnyPort counts probed addresses with silence on every
	// port — indistinguishable dead space.
	NoResponseAnyPort int
	// PassiveTotal counts distinct addresses found passively on any of
	// the ports.
	PassiveTotal int
	// ActiveDefinitelyOpenTotal counts distinct addresses with at least
	// one definitely-open port.
	ActiveDefinitelyOpenTotal int
	// PassiveOnlyCount counts passive finds never confirmed open by the
	// generic probe.
	PassiveOnly int
}

// UDPSummary classifies every probed address per port, reproducing the
// Table 7 methodology (Section 4.5): a UDP reply is a true positive, ICMP
// port unreachable a true negative, and silence is "possibly open" only
// when the host proves alive elsewhere.
func (a *Analysis) UDPSummary(ports []uint16, probed []netaddr.V4) UDPTable {
	var table UDPTable

	// Passive inventory per port.
	passiveByPort := make(map[uint16]*netaddr.Set, len(ports))
	for _, p := range ports {
		passiveByPort[p] = netaddr.NewSet()
	}
	passiveAll := netaddr.NewSet()
	for _, k := range a.Inventory.Keys() { // probes never list a UDP key
		if k.Proto != packet.ProtoUDP {
			continue
		}
		if s, ok := passiveByPort[k.Port]; ok {
			s.Add(k.Addr)
			passiveAll.Add(k.Addr)
		}
	}
	table.PassiveTotal = passiveAll.Len()

	openAny := netaddr.NewSet()
	perPort := make(map[uint16]*UDPPortSummary, len(ports))
	for _, p := range ports {
		perPort[p] = &UDPPortSummary{Port: p, Passive: passiveByPort[p].Len()}
	}

	for _, addr := range probed {
		responded := false
		for _, p := range ports {
			if st, ok := a.Inventory.active.UDPOutcome(addr, p); ok && st != probe.UDPNoResponse {
				responded = true
				break
			}
		}
		if !responded {
			table.NoResponseAnyPort++
			continue
		}
		for _, p := range ports {
			st, ok := a.Inventory.active.UDPOutcome(addr, p)
			if !ok {
				continue
			}
			switch st {
			case probe.UDPOpen:
				perPort[p].DefinitelyOpen++
				openAny.Add(addr)
			case probe.UDPClosed:
				perPort[p].DefinitelyClosed++
			case probe.UDPNoResponse:
				perPort[p].PossiblyOpen++
			}
		}
	}
	table.ActiveDefinitelyOpenTotal = openAny.Len()
	table.PassiveOnly = passiveAll.Diff(openAny).Len()

	for _, p := range ports {
		table.Ports = append(table.Ports, *perPort[p])
	}
	return table
}
