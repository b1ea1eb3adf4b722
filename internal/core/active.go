package core

import (
	"maps"
	"sort"
	"time"

	"servdisc/internal/netaddr"
	"servdisc/internal/packet"
	"servdisc/internal/probe"
)

// ScanMeta summarizes one completed sweep. The JSON tags define the
// serialized form of the event feeds and the federation wire.
type ScanMeta struct {
	ID       int       `json:"id"`
	Started  time.Time `json:"started"`
	Finished time.Time `json:"finished"`
}

// AddrScanOutcome is one address's aggregate result in one sweep. The
// JSON tags define the checkpoint wire form (see export.go).
type AddrScanOutcome struct {
	ScanID int       `json:"scan_id"`
	Time   time.Time `json:"time"`
	// Open lists ports that answered SYN-ACK in this sweep.
	Open []uint16 `json:"open,omitempty"`
	// Closed and Filtered count RST and silent ports.
	Closed   int `json:"closed,omitempty"`
	Filtered int `json:"filtered,omitempty"`
}

// ActiveDiscoverer accumulates probe sweep reports into an inventory plus
// a per-address outcome history used by the firewall heuristics and the
// probe-subset analyses (Figure 7).
//
// Ingestion is order-independent: feeding the same set of reports in any
// order yields identical state (first-open times keep the earliest
// observation, sweep metadata and outcome histories are kept sorted).
// That property is what lets Hybrid reconcile concurrently-arriving scan
// reports deterministically. AddReport itself is single-writer; wrap with
// Hybrid (or external locking) for concurrent producers.
type ActiveDiscoverer struct {
	ports []uint16

	firstOpen map[ServiceKey]time.Time
	// lastOpen is each service's most recent probe answer — the timestamp
	// active retention deadlines are computed from (lastOpen + ActiveTTL).
	lastOpen map[ServiceKey]time.Time
	// tombs records expired services: key → the deadline that retired it.
	// Evidence at or after the deadline re-creates the service.
	tombs   map[ServiceKey]time.Time
	scans   []ScanMeta
	perAddr map[netaddr.V4][]AddrScanOutcome

	// respondedEver tracks addresses that ever answered anything (RST or
	// SYN-ACK) — the live-host estimate of Section 3.3.
	respondedEver *netaddr.Set

	// udp keeps the generic-UDP sweep outcomes per address and port.
	udp map[netaddr.V4]map[uint16]probe.UDPState

	// onDiscovered, when set, fires the first time a service answers a
	// probe, from the goroutine applying the report. onOpenEarlier fires
	// when an out-of-order report moves a known service's first-open time
	// earlier. Hybrid wires both into the engine's event stream.
	onDiscovered  func(key ServiceKey, t time.Time)
	onOpenEarlier func(key ServiceKey, t time.Time)

	// frozen marks a view produced by clone: immutable, so the
	// accessors skip their defensive copies. AddReport must never run on
	// a frozen view.
	frozen bool
	// cow flips on the live discoverer once a clone shares its outcome
	// histories and UDP maps; ownedAddr/ownedUDP list the entries already
	// copied back since, so each is copied at most once per clone.
	cow       bool
	ownedAddr map[netaddr.V4]bool
	ownedUDP  map[netaddr.V4]bool
}

// NewActiveDiscoverer builds a discoverer. ports documents the sweep's TCP
// port set (informational; reports carry their own ports).
func NewActiveDiscoverer(ports []uint16) *ActiveDiscoverer {
	return &ActiveDiscoverer{
		ports:         append([]uint16(nil), ports...),
		firstOpen:     make(map[ServiceKey]time.Time),
		lastOpen:      make(map[ServiceKey]time.Time),
		tombs:         make(map[ServiceKey]time.Time),
		perAddr:       make(map[netaddr.V4][]AddrScanOutcome),
		respondedEver: netaddr.NewSet(),
		udp:           make(map[netaddr.V4]map[uint16]probe.UDPState),
	}
}

// Ports returns the configured TCP port list.
func (d *ActiveDiscoverer) Ports() []uint16 { return d.ports }

// AddReport ingests one sweep, in either full or compact form.
func (d *ActiveDiscoverer) AddReport(rep *probe.ScanReport) {
	// Keep sweep metadata sorted by (Started, ID); as in insertOutcome,
	// reports normally arrive in order, so this is an O(1) tail append.
	d.scans = append(d.scans, ScanMeta{ID: rep.ID, Started: rep.Started, Finished: rep.Finished})
	for i := len(d.scans) - 1; i > 0 && scanBefore(d.scans[i], d.scans[i-1]); i-- {
		d.scans[i], d.scans[i-1] = d.scans[i-1], d.scans[i]
	}

	cur := make(map[netaddr.V4]*AddrScanOutcome)
	for _, res := range rep.TCP {
		out := cur[res.Addr]
		if out == nil {
			out = &AddrScanOutcome{ScanID: rep.ID, Time: res.Time}
			cur[res.Addr] = out
		}
		switch res.State {
		case probe.StateOpen:
			out.Open = append(out.Open, res.Port)
			d.recordOpen(res.Addr, res.Port, res.Time)
		case probe.StateClosed:
			out.Closed++
			d.respondedEver.Add(res.Addr)
		default:
			out.Filtered++
		}
	}
	for a, out := range cur {
		d.insertOutcome(a, *out)
	}

	for _, sum := range rep.Summaries {
		out := AddrScanOutcome{
			ScanID: rep.ID, Time: sum.Time,
			Open:   append([]uint16(nil), sum.Open...),
			Closed: sum.Closed, Filtered: sum.Filtered,
		}
		d.insertOutcome(sum.Addr, out)
		if sum.Closed > 0 {
			d.respondedEver.Add(sum.Addr)
		}
		for _, port := range sum.Open {
			d.recordOpen(sum.Addr, port, sum.Time)
		}
	}

	for _, res := range rep.UDP {
		m := d.udp[res.Addr]
		switch {
		case m == nil:
			m = make(map[uint16]probe.UDPState)
			d.udp[res.Addr] = m
		case d.cow && !d.ownedUDP[res.Addr]:
			// The per-address outcome map is shared with a frozen view:
			// copy before the first post-clone write.
			m = maps.Clone(m)
			d.udp[res.Addr] = m
			if d.ownedUDP == nil {
				d.ownedUDP = make(map[netaddr.V4]bool)
			}
			d.ownedUDP[res.Addr] = true
		}
		// Keep the most definitive outcome across retries: open beats
		// closed beats silence.
		prev, seen := m[res.Port]
		if !seen || betterUDP(res.State, prev) {
			m[res.Port] = res.State
		}
		if res.State != probe.UDPNoResponse {
			d.respondedEver.Add(res.Addr)
		}
	}
}

func (d *ActiveDiscoverer) recordOpen(addr netaddr.V4, port uint16, t time.Time) {
	d.respondedEver.Add(addr)
	key := ServiceKey{Addr: addr, Proto: packet.ProtoTCP, Port: port}
	// Keep the earliest observation, not the first-ingested one, so that
	// reports arriving out of sweep order converge on the same state.
	cur, seen := d.firstOpen[key]
	if !seen || t.Before(cur) {
		d.firstOpen[key] = t
	}
	if last, ok := d.lastOpen[key]; !ok || t.After(last) {
		d.lastOpen[key] = t
	}
	switch {
	case !seen && d.onDiscovered != nil:
		d.onDiscovered(key, t)
	case seen && t.Before(cur) && d.onOpenEarlier != nil:
		d.onOpenEarlier(key, t)
	}
}

// insertOutcome appends an outcome to the address's history, keeping it
// sorted by (Time, ScanID). Reports normally arrive in sweep order, so the
// insertion point is almost always the end. A history shared with a frozen
// view is copied before the first post-clone insert (the in-place
// insertion sort would otherwise disturb the view's aliased array).
func (d *ActiveDiscoverer) insertOutcome(addr netaddr.V4, out AddrScanOutcome) {
	outs := d.perAddr[addr]
	if d.cow && !d.ownedAddr[addr] {
		outs = append(make([]AddrScanOutcome, 0, len(outs)+1), outs...)
		if d.ownedAddr == nil {
			d.ownedAddr = make(map[netaddr.V4]bool)
		}
		d.ownedAddr[addr] = true
	}
	outs = append(outs, out)
	for i := len(outs) - 1; i > 0 && outcomeBefore(outs[i], outs[i-1]); i-- {
		outs[i], outs[i-1] = outs[i-1], outs[i]
	}
	d.perAddr[addr] = outs
}

// outcomeBefore orders outcomes by time, then scan ID.
func outcomeBefore(a, b AddrScanOutcome) bool {
	if !a.Time.Equal(b.Time) {
		return a.Time.Before(b.Time)
	}
	return a.ScanID < b.ScanID
}

// scanBefore orders sweep metadata by start time, then ID.
func scanBefore(a, b ScanMeta) bool {
	if !a.Started.Equal(b.Started) {
		return a.Started.Before(b.Started)
	}
	return a.ID < b.ID
}

func betterUDP(a, b probe.UDPState) bool {
	rank := func(s probe.UDPState) int {
		switch s {
		case probe.UDPOpen:
			return 2
		case probe.UDPClosed:
			return 1
		default:
			return 0
		}
	}
	return rank(a) > rank(b)
}

// Scans returns sweep metadata in start order.
func (d *ActiveDiscoverer) Scans() []ScanMeta { return d.scans }

// FirstOpen returns when a service first answered a probe.
func (d *ActiveDiscoverer) FirstOpen(key ServiceKey) (time.Time, bool) {
	t, ok := d.firstOpen[key]
	return t, ok
}

// Services returns the first-open inventory. On a live discoverer it is a
// fresh map the caller may keep and modify freely; a frozen view returned
// by Hybrid's snapshot machinery hands out its own immutable map instead
// of copying — treat that one as read-only.
func (d *ActiveDiscoverer) Services() map[ServiceKey]time.Time {
	if d.frozen {
		return d.firstOpen
	}
	return maps.Clone(d.firstOpen)
}

// RespondedEver returns the set of addresses that ever answered probes at
// all; mutating it does not affect the discoverer. On a frozen view the
// returned set shares storage copy-on-write instead of being copied — a
// caller's first mutation pays the copy, a read-only caller pays nothing.
func (d *ActiveDiscoverer) RespondedEver() *netaddr.Set {
	if d.frozen {
		return d.respondedEver.CloneShared()
	}
	return d.respondedEver.Clone()
}

// clone freezes the discoverer into a sealed view that later reports into
// the original cannot disturb — the active side of Hybrid's live
// snapshots. Instead of deep-copying, the view shares the per-address
// outcome histories, the UDP outcome maps and the responded set with the
// live discoverer, which marks them copy-on-write: AddReport copies an
// entry back the first time it touches it after the clone. Only the
// (small) top-level tables are copied eagerly. Emission hooks are not
// carried over.
func (d *ActiveDiscoverer) clone() *ActiveDiscoverer {
	c := &ActiveDiscoverer{
		ports:         d.ports,
		firstOpen:     maps.Clone(d.firstOpen),
		lastOpen:      maps.Clone(d.lastOpen),
		tombs:         maps.Clone(d.tombs),
		scans:         append([]ScanMeta(nil), d.scans...),
		perAddr:       maps.Clone(d.perAddr),
		respondedEver: d.respondedEver.CloneShared(),
		udp:           maps.Clone(d.udp),
		frozen:        true,
	}
	d.cow = true
	d.ownedAddr = nil
	d.ownedUDP = nil
	return c
}

// AddrFirstOpen rolls the inventory up to addresses, optionally restricted
// to services passing keep.
func (d *ActiveDiscoverer) AddrFirstOpen(keep func(ServiceKey) bool) map[netaddr.V4]time.Time {
	out := make(map[netaddr.V4]time.Time)
	for k, t := range d.firstOpen {
		if keep != nil && !keep(k) {
			continue
		}
		if cur, ok := out[k.Addr]; !ok || t.Before(cur) {
			out[k.Addr] = t
		}
	}
	return out
}

// AddrFirstOpenForScans rolls up first-open times considering only the
// given sweeps — the probe-subset machinery behind the time-of-day study
// (Section 5.1). keep filters services as elsewhere.
func (d *ActiveDiscoverer) AddrFirstOpenForScans(scanIDs map[int]bool, keep func(ServiceKey) bool) map[netaddr.V4]time.Time {
	out := make(map[netaddr.V4]time.Time)
	for addr, outs := range d.perAddr {
		for _, o := range outs {
			if !scanIDs[o.ScanID] || len(o.Open) == 0 {
				continue
			}
			match := keep == nil
			if !match {
				for _, port := range o.Open {
					if keep(ServiceKey{Addr: addr, Proto: packet.ProtoTCP, Port: port}) {
						match = true
						break
					}
				}
			}
			if !match {
				continue
			}
			if cur, ok := out[addr]; !ok || o.Time.Before(cur) {
				out[addr] = o.Time
			}
		}
	}
	return out
}

// Outcomes returns the per-scan outcome history of an address.
func (d *ActiveDiscoverer) Outcomes(addr netaddr.V4) []AddrScanOutcome {
	return d.perAddr[addr]
}

// UDPOutcome returns the recorded generic-UDP sweep state for (addr, port).
func (d *ActiveDiscoverer) UDPOutcome(addr netaddr.V4, port uint16) (probe.UDPState, bool) {
	m, ok := d.udp[addr]
	if !ok {
		return 0, false
	}
	s, ok := m[port]
	return s, ok
}

// UDPAddrs returns every address probed over UDP with at least one recorded
// outcome, sorted.
func (d *ActiveDiscoverer) UDPAddrs() []netaddr.V4 {
	out := make([]netaddr.V4, 0, len(d.udp))
	for a := range d.udp {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// MixedResponse reports whether the address, in a single sweep, returned
// RST on at least one port while staying silent on another — the paper's
// first firewall confirmation signal (Section 4.2.4).
func (d *ActiveDiscoverer) MixedResponse(addr netaddr.V4) bool {
	for _, out := range d.perAddr[addr] {
		if out.Closed > 0 && out.Filtered > 0 {
			return true
		}
	}
	return false
}
