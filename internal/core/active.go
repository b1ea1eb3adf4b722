package core

import (
	"cmp"
	"slices"
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
// That property is what lets the hybrid engine (NewHybrid) reconcile
// concurrently-arriving scan reports deterministically. AddReport itself is
// single-writer; the engine serializes its callers (or lock externally).
type ActiveDiscoverer struct {
	ports []uint16

	// The keyed stores, each a write layer over the tree the last flush
	// froze (layers, whose sealed map stays empty): each service's probe
	// answers, whose zero value retires the key; tombstones, expired
	// services → the deadline that retired them (evidence at or after it
	// re-creates the service); each address's outcome history; and its
	// generic-UDP outcomes, sorted by port. A value in a tree may be shared
	// with a view, so a key's first write since the flush copies it.
	probes  layers[ServiceKey, probeTimes]
	tombs   layers[ServiceKey, time.Time]
	perAddr layers[netaddr.V4, []AddrScanOutcome]
	udp     layers[netaddr.V4, []UDPPortState]
	scans   []ScanMeta

	// respondedEver tracks addresses that ever answered anything (RST or
	// SYN-ACK) — the live-host estimate of Section 3.3.
	respondedEver *netaddr.Set

	// view is what the last flush returned; every write drops it, so a
	// flush with nothing written since hands the same view out again.
	view *ActiveDiscoverer

	// onAnswer, when set, joins a key's first and any earlier probe answer,
	// and every one while ttl, the active TTL, is on, from the goroutine
	// applying the report. It reports whether the join found no live answer
	// for the key: any the store still holds has then lapsed, at its newest
	// answer plus ttl. NewHybrid wires onAnswer, SetRetention ttl.
	onAnswer func(key ServiceKey, t time.Time) (fresh bool)
	ttl      time.Duration
}

// probeTimes is one service's probe answers: the first and the newest
// (from which active retention deadlines run, last + ActiveTTL). ok tells
// an answer stamped time.Time{} from the zero value, which retires the key.
type probeTimes struct {
	first, last Instant
	ok          bool
}

// answered keeps the keys a probe answers for in a probes walk.
func answered(_ ServiceKey, p probeTimes) bool { return p.ok }

// every keeps every entry of a layers walk.
func every[K TreeKey, V any](K, V) bool { return true }

// NewActiveDiscoverer builds a discoverer. ports documents the sweep's TCP
// port set (informational; reports carry their own ports).
func NewActiveDiscoverer(ports []uint16) *ActiveDiscoverer {
	return &ActiveDiscoverer{
		ports:         append([]uint16(nil), ports...),
		respondedEver: netaddr.NewSet(),
	}
}

// AddReport ingests one sweep, in either full or compact form.
func (d *ActiveDiscoverer) AddReport(rep *probe.ScanReport) {
	d.view = nil
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
	if d.perAddr.live == nil { // a sweep writes most of its addresses' histories
		d.perAddr.live = make(map[netaddr.V4][]AddrScanOutcome, len(cur)+len(rep.Summaries))
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
		ports, mine := d.udp.live[res.Addr]
		if !mine {
			old, _ := d.udp.base.Get(res.Addr)
			ports = slices.Clone(old)
		}
		d.udp.put(res.Addr, mergeUDP(ports, res.Port, res.State))
		if res.State != probe.UDPNoResponse {
			d.respondedEver.Add(res.Addr)
		}
	}
}

// mergeUDP records st for port in ports (sorted by port, the caller's
// own), keeping the most definitive outcome across retries: open beats
// closed beats silence.
func mergeUDP(ports []UDPPortState, port uint16, st probe.UDPState) []UDPPortState {
	i, seen := udpAt(ports, port)
	switch {
	case !seen:
		return slices.Insert(ports, i, UDPPortState{Port: port, State: st})
	case betterUDP(st, ports[i].State):
		ports[i].State = st
	}
	return ports
}

// udpAt finds port in ports, which are sorted by port.
func udpAt(ports []UDPPortState, port uint16) (int, bool) {
	return slices.BinarySearchFunc(ports, port, func(p UDPPortState, port uint16) int { return cmp.Compare(p.Port, port) })
}

func (d *ActiveDiscoverer) recordOpen(addr netaddr.V4, port uint16, t time.Time) {
	d.respondedEver.Add(addr)
	key := ServiceKey{Addr: addr, Proto: packet.ProtoTCP, Port: port}
	at := ToInstant(t)
	cur, _ := d.probes.get(key)
	joins := d.ttl > 0 || !cur.ok || at < cur.first
	if d.onAnswer != nil && joins && d.onAnswer(key, t) && cur.ok {
		// The join holds no live answer, so the stored one lapsed: at this
		// report's settle, or at a touch whose freeze has not reached the
		// store yet.
		d.lapse(key)
		cur = probeTimes{}
	}
	// Keep the earliest observation, not the first-ingested one, so that
	// reports arriving out of sweep order converge on the same state.
	next := probeTimes{first: min(cur.first, at), last: max(cur.last, at), ok: true}
	if !cur.ok {
		next.first = at
	}
	if next != cur {
		d.probes.put(key, next)
	}
}

// insertOutcome appends an outcome to the address's history, keeping it
// sorted by (Time, ScanID). Reports normally arrive in sweep order, so the
// insertion point is almost always the end. A history not yet written since
// the flush may be shared with a view: it is clipped to its length, so the
// append copies it before the in-place insertion sort runs.
func (d *ActiveDiscoverer) insertOutcome(addr netaddr.V4, out AddrScanOutcome) {
	outs, mine := d.perAddr.live[addr]
	if !mine {
		outs, _ = d.perAddr.base.Get(addr)
		outs = outs[:len(outs):len(outs)]
	}
	outs = append(outs, out)
	for i := len(outs) - 1; i > 0 && outcomeBefore(outs[i], outs[i-1]); i-- {
		outs[i], outs[i-1] = outs[i-1], outs[i]
	}
	d.perAddr.put(addr, outs)
}

// lapse retires key's live answer, which the engine's join has expired, at
// its deadline (newest answer + ttl), leaving a tombstone.
func (d *ActiveDiscoverer) lapse(key ServiceKey) {
	if p, _ := d.probes.get(key); p.ok {
		d.view = nil
		d.probes.put(key, probeTimes{})
		d.tombs.put(key, p.last.Time().Add(d.ttl))
	}
}

// flush freezes everything written since the last flush: it patches each
// store's base tree with its write layer, which it empties, and returns the
// view over the new trees — a discoverer with empty write layers, which no
// later write reaches and any number of readers may share. probed lists,
// in key order, every service whose first answer appeared, moved earlier
// or was retired since the last flush, with its new times. With nothing
// written since, it returns the previous view and lists nothing.
func (d *ActiveDiscoverer) flush() (view *ActiveDiscoverer, probed []TreeEntry[ServiceKey, probeTimes]) {
	if d.view != nil {
		return d.view, nil
	}
	d.probes.flush(func(p probeTimes) bool { return !p.ok }, func(k ServiceKey, old, cur probeTimes) {
		if old.ok != cur.ok || old.first != cur.first {
			probed = append(probed, TreeEntry[ServiceKey, probeTimes]{Val: cur, Key: k})
		}
	})
	d.tombs.flush(nil, nil)
	d.perAddr.flush(nil, nil)
	d.udp.flush(nil, nil)
	// Every write layer is empty now: the view is d over the same trees,
	// with a sweep list and a responded set of its own.
	view = &ActiveDiscoverer{}
	*view = *d
	view.scans, view.respondedEver = slices.Clone(d.scans), d.respondedEver.CloneShared()
	d.view = view
	return view, probed
}

// outcomeBefore orders outcomes by time, then scan ID.
func outcomeBefore(a, b AddrScanOutcome) bool {
	return cmp.Or(a.Time.Compare(b.Time), cmp.Compare(a.ScanID, b.ScanID)) < 0
}

// scanBefore orders sweep metadata by start time, then ID.
func scanBefore(a, b ScanMeta) bool {
	return cmp.Or(a.Started.Compare(b.Started), cmp.Compare(a.ID, b.ID)) < 0
}

// betterUDP reports whether outcome a is more definitive than b: open beats
// closed beats silence (their declaration order), and an unknown state
// counts as silence.
func betterUDP(a, b probe.UDPState) bool {
	return min(a, probe.UDPNoResponse) < min(b, probe.UDPNoResponse)
}

// blank reports whether the view holds nothing at all: the active side
// of a hybrid engine that has taken no report and no restore.
func (d *ActiveDiscoverer) blank() bool {
	return len(d.scans) == 0 && d.respondedEver.Len() == 0 && d.probes.base.Len() == 0 &&
		d.tombs.base.Len() == 0 && d.perAddr.base.Len() == 0 && d.udp.base.Len() == 0
}

// Scans returns sweep metadata in start order.
func (d *ActiveDiscoverer) Scans() []ScanMeta { return d.scans }

// FirstOpen returns when a service first answered a probe.
func (d *ActiveDiscoverer) FirstOpen(key ServiceKey) (time.Time, bool) {
	p, _ := d.probes.get(key)
	return p.first.Time(), p.ok
}

// Services returns the first-open inventory, in a fresh map the caller may
// keep and modify freely.
func (d *ActiveDiscoverer) Services() map[ServiceKey]time.Time {
	out := make(map[ServiceKey]time.Time)
	d.probes.each(answered, func(k ServiceKey, p probeTimes) { out[k] = p.first.Time() })
	return out
}

// RespondedEver returns the set of addresses that ever answered probes at
// all; mutating it does not affect the discoverer. The set shares storage
// copy-on-write instead of being copied — a caller's first mutation pays
// the copy, a read-only caller pays nothing.
func (d *ActiveDiscoverer) RespondedEver() *netaddr.Set { return d.respondedEver.CloneShared() }

// AddrFirstOpen rolls the inventory up to addresses, optionally restricted
// to services passing keep.
func (d *ActiveDiscoverer) AddrFirstOpen(keep func(ServiceKey) bool) map[netaddr.V4]time.Time {
	out := make(map[netaddr.V4]time.Time)
	d.probes.each(answered, func(k ServiceKey, p probeTimes) {
		if keep != nil && !keep(k) {
			return
		}
		if cur, ok := out[k.Addr]; !ok || p.first.Time().Before(cur) {
			out[k.Addr] = p.first.Time()
		}
	})
	return out
}

// AddrFirstOpenForScans rolls up first-open times considering only the
// given sweeps — the probe-subset machinery behind the time-of-day study
// (Section 5.1). keep filters services as elsewhere.
func (d *ActiveDiscoverer) AddrFirstOpenForScans(scanIDs map[int]bool, keep func(ServiceKey) bool) map[netaddr.V4]time.Time {
	out := make(map[netaddr.V4]time.Time)
	d.perAddr.each(every, func(addr netaddr.V4, outs []AddrScanOutcome) {
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
	})
	return out
}

// Outcomes returns the per-scan outcome history of an address.
func (d *ActiveDiscoverer) Outcomes(addr netaddr.V4) []AddrScanOutcome {
	outs, _ := d.perAddr.get(addr)
	return outs
}

// UDPOutcome returns the recorded generic-UDP sweep state for (addr, port).
func (d *ActiveDiscoverer) UDPOutcome(addr netaddr.V4, port uint16) (probe.UDPState, bool) {
	ports, _ := d.udp.get(addr)
	if i, ok := udpAt(ports, port); ok {
		return ports[i].State, true
	}
	return 0, false
}

// UDPAddrs returns every address probed over UDP with at least one recorded
// outcome, sorted.
func (d *ActiveDiscoverer) UDPAddrs() []netaddr.V4 {
	var out []netaddr.V4
	d.udp.each(every, func(a netaddr.V4, _ []UDPPortState) { out = append(out, a) })
	slices.Sort(out)
	return out
}

// MixedResponse reports whether the address, in a single sweep, returned
// RST on at least one port while staying silent on another — the paper's
// first firewall confirmation signal (Section 4.2.4).
func (d *ActiveDiscoverer) MixedResponse(addr netaddr.V4) bool {
	for _, out := range d.Outcomes(addr) {
		if out.Closed > 0 && out.Filtered > 0 {
			return true
		}
	}
	return false
}
