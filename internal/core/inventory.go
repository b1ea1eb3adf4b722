package core

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"servdisc/internal/netaddr"
)

// Provenance classifies how a service entered a hybrid inventory: which
// discovery technique found it, and which got there first when both did —
// the axis of the paper's passive-vs-active comparison tables.
type Provenance uint8

// Provenance classes.
const (
	// PassiveOnly: seen in border traffic, never answered a probe (the
	// paper's "passive finds servers probing misses": firewalled services,
	// servers down at scan time, transient addresses).
	PassiveOnly Provenance = iota
	// ActiveOnly: answered a probe but generated no observed traffic
	// (idle or unpopular services, Section 3.3).
	ActiveOnly
	// PassiveFirst: found by both, passive monitoring saw it no later
	// than the first successful probe.
	PassiveFirst
	// ActiveFirst: found by both, a probe answered before any passive
	// evidence arrived.
	ActiveFirst
)

// provenanceNames are the stable wire names of the provenance classes
// (see eventKindNames for the rationale).
var provenanceNames = [...]string{
	PassiveOnly:  "passive-only",
	ActiveOnly:   "active-only",
	PassiveFirst: "passive-first",
	ActiveFirst:  "active-first",
}

// String names the provenance class (the same stable names MarshalText
// uses).
func (p Provenance) String() string {
	if int(p) < len(provenanceNames) {
		return provenanceNames[p]
	}
	return fmt.Sprintf("provenance(%d)", uint8(p))
}

// Valid reports whether p is one of the defined classes.
func (p Provenance) Valid() bool { return int(p) < len(provenanceNames) }

// MarshalText serializes the class as its stable string name.
func (p Provenance) MarshalText() ([]byte, error) {
	if p.Valid() {
		return []byte(provenanceNames[p]), nil
	}
	return nil, fmt.Errorf("core: cannot marshal unknown provenance %d", uint8(p))
}

// UnmarshalText parses the names written by MarshalText.
func (p *Provenance) UnmarshalText(text []byte) error {
	s := string(text)
	for i, name := range provenanceNames {
		if s == name {
			*p = Provenance(i)
			return nil
		}
	}
	return fmt.Errorf("core: unknown provenance %q", s)
}

// Inventory is a frozen, read-only view of a discovery run: the service
// records, detected scanners, and roll-up queries, with services in
// deterministic key order and scanner lists precomputed. An Inventory never
// mutates after construction, so it is safe to share across goroutines — the
// form live-query endpoints and the servdisc facade hand out.
//
// A passive-only inventory (NewInventory, or a snapshot of a plain
// ShardedPassive) covers what monitoring saw. A hybrid inventory
// (NewHybridInventory, or any snapshot of a Hybrid) additionally folds in
// active sweep results: its services are the union of both sides and each
// carries a Provenance.
type Inventory struct {
	d        *mergedStore
	active   *ActiveDiscoverer // a flushed view; nil for passive-only inventories
	scanners []ScannerInfo
}

// NewInventory freezes the discoverer's current state: the snapshot a
// one-shard engine would take at this point. The discoverer may keep
// ingesting; the inventory does not move.
func NewInventory(d *PassiveDiscoverer) *Inventory { return NewHybridInventory(d, nil) }

// NewHybridInventory freezes the union of a passive and an active run into
// one inventory with per-service provenance (a nil a gives a passive-only
// one). It takes the bulk path of a live engine's first snapshot: the
// discoverer is sealed whole — its records copied out — and merged into
// a fresh store with the active side's flushed view, so both may keep
// ingesting without disturbing the result. Provenance is not stored: it is a
// function of the two first-observation times, which Service reads.
func NewHybridInventory(d *PassiveDiscoverer, a *ActiveDiscoverer) *Inventory {
	if a != nil {
		a, _ = a.flush()
	}
	m, _, _ := mergeViews(nil, []shardDelta{d.seal(true)}, a, nil)
	return &Inventory{d: m, active: a, scanners: d.track.detect()}
}

// Len returns the number of discovered services (both sides in a hybrid
// inventory).
func (v *Inventory) Len() int { return v.d.services.Len() }

// Packets returns how many packets the underlying passive run consumed.
func (v *Inventory) Packets() int { return v.d.packets }

// Hybrid reports whether the inventory carries an active side.
func (v *Inventory) Hybrid() bool { return v.active != nil }

// Keys returns all discovered services in deterministic (addr, proto,
// port) order, in a fresh slice: an O(inventory) copy. Walk the services
// with EachServiceAfter instead where a walk will do.
func (v *Inventory) Keys() []ServiceKey {
	keys := make([]ServiceKey, 0, v.Len())
	v.d.services.WalkRef(nil, func(k ServiceKey, _ *PassiveRecord) bool {
		keys = append(keys, k)
		return true
	})
	return keys
}

// provenanceOf classifies a service one technique or both found. It
// reads the record only when both techniques saw the service: ties go
// passive, the probe must answer strictly earlier to win.
func provenanceOf(rec *PassiveRecord, activeAt time.Time, passive, probed bool) Provenance {
	switch {
	case passive && probed:
		if activeAt.Before(rec.FirstSeen()) {
			return ActiveFirst
		}
		return PassiveFirst
	case probed:
		return ActiveOnly
	}
	return PassiveOnly
}

// describe is provenanceOf plus the earliest discovery by either technique.
func describe(rec *PassiveRecord, activeAt time.Time, passive, probed bool) (prov Provenance, first time.Time) {
	prov = provenanceOf(rec, activeAt, passive, probed)
	if prov == PassiveOnly || prov == PassiveFirst {
		return prov, rec.FirstSeen()
	}
	return prov, activeAt
}

// Service returns everything the inventory holds about one service from a
// single descent of the record store (and, on a hybrid inventory, one of the
// active view's probe tree): the passive record (nil if passive monitoring
// never saw it; otherwise the store's own, read-only), the provenance
// class, the earliest discovery by either technique, and when it first
// answered a probe (meaningful unless prov is PassiveOnly). ok is false if
// the key is not in the inventory. On a passive-only inventory every
// present key is PassiveOnly. Record,
// Provenance, FirstDiscovered and ActiveFirstOpen each return one of these;
// a caller that wants several should call Service once, and one that wants
// them for every key should call EachService, which descends for none.
func (v *Inventory) Service(key ServiceKey) (rec *PassiveRecord, prov Provenance, first, activeAt time.Time, ok bool) {
	rec = v.d.services.Ref(key)
	if rec == nil {
		return nil, 0, time.Time{}, time.Time{}, false
	}
	if !rec.held() {
		rec = nil
	}
	activeAt, probed := v.ActiveFirstOpen(key)
	prov, first = describe(rec, activeAt, rec != nil, probed)
	return rec, prov, first, activeAt, true
}

// EachService visits every service in key order with exactly what
// Service(key) returns for it, until f returns false. It is the primitive
// for whole-inventory readers — an index rebuild, a bootstrap frame, a dump:
// one ordered walk of the record store and the probe tree in place of a
// descent per key.
func (v *Inventory) EachService(f func(key ServiceKey, rec *PassiveRecord, prov Provenance, first, activeAt time.Time) bool) {
	v.EachServiceAfter(nil, f)
}

// EachServiceAfter is EachService resumed after a key: it visits the
// services ordered after *after (every service when after is nil), whether
// or not after itself is in the inventory — a page cursor's walk.
func (v *Inventory) EachServiceAfter(after *ServiceKey, f func(key ServiceKey, rec *PassiveRecord, prov Provenance, first, activeAt time.Time) bool) {
	var probes TreeCursor[ServiceKey, probeTimes]
	if v.active != nil {
		probes = v.active.probes.base.Seek(after)
	}
	v.d.services.WalkRef(after, func(key ServiceKey, rec *PassiveRecord) bool {
		if !rec.held() {
			rec = nil
		}
		var activeAt time.Time
		p, probed := probes.Peek()
		if probed = probed && p.Key == key; probed {
			activeAt = p.Val.first.Time()
			probes.Next()
		}
		prov, first := describe(rec, activeAt, rec != nil, probed)
		return f(key, rec, prov, first, activeAt)
	})
}

// Record returns the passive record for one service, if passive monitoring
// saw it (ok is false for active-only services). Treat the record as
// read-only.
func (v *Inventory) Record(key ServiceKey) (*PassiveRecord, bool) {
	if rec := v.d.services.Ref(key); rec != nil && rec.held() {
		return rec, true
	}
	return nil, false
}

// Provenance classifies one service. ok is false if the key is not in the
// inventory. On a passive-only inventory every present key is PassiveOnly.
func (v *Inventory) Provenance(key ServiceKey) (Provenance, bool) {
	_, prov, _, _, ok := v.Service(key)
	return prov, ok
}

// EachTombstone visits every retention tombstone — services withdrawn by
// TTL expiry, with their expiry deadline and the evidence kind withdrawn
// (PassiveOnly or ActiveOnly) — in (key, kind) order until f returns false.
// Federation snapshot frames carry these so late-connecting aggregators
// withdraw expired state too.
func (v *Inventory) EachTombstone(f func(key ServiceKey, at time.Time, prov Provenance) bool) {
	ps := v.d.tombs.Seek(nil)
	var as TreeCursor[ServiceKey, time.Time]
	if v.active != nil {
		as = v.active.tombs.base.Seek(nil)
	}
	for {
		e, ok := ps.Peek()
		prov := PassiveOnly
		if a, aok := as.Peek(); aok && (!ok || a.Key.Before(e.Key)) {
			e, ok, prov = a, true, ActiveOnly
			as.Next()
		} else if ok {
			ps.Next()
		}
		if !ok || !f(e.Key, e.Val, prov) {
			return
		}
	}
}

// EachTombstoneSince visits the tombstones v holds that old, an earlier
// inventory of the same chain, lacks or holds at another deadline —
// passive ones in key order, then active ones — in O(tombstones moved):
// one tree diff per kind. Federation seal frames carry these.
func (v *Inventory) EachTombstoneSince(old *Inventory, f func(key ServiceKey, at time.Time, prov Provenance)) {
	diff := func(cur, was Tree[ServiceKey, time.Time], prov Provenance) {
		cur.Diff(was, time.Time.Equal, func(k ServiceKey) {
			if at, ok := cur.Get(k); ok {
				f(k, at, prov)
			}
		})
	}
	diff(v.d.tombs, old.d.tombs, PassiveOnly)
	if v.active != nil {
		var was Tree[ServiceKey, time.Time]
		if old.active != nil {
			was = old.active.tombs.base
		}
		diff(v.active.tombs.base, was, ActiveOnly)
	}
}

// ProvenanceCounts tallies services per provenance class, indexed by the
// Provenance constants. It descends the record store for no key: a
// passive-only inventory has one class, and a hybrid one classifies the
// store in one walk.
func (v *Inventory) ProvenanceCounts() [4]int {
	var out [4]int
	if v.active == nil {
		out[PassiveOnly] = v.Len()
		return out
	}
	v.EachService(func(_ ServiceKey, _ *PassiveRecord, prov Provenance, _, _ time.Time) bool {
		out[prov]++
		return true
	})
	return out
}

// FirstDiscovered returns the earliest discovery time for the service by
// either technique, ok=false if the key is not in the inventory.
func (v *Inventory) FirstDiscovered(key ServiceKey) (time.Time, bool) {
	_, _, first, _, ok := v.Service(key)
	return first, ok
}

// ActiveFirstOpen returns when the service first answered a probe, ok=false
// for passive-only inventories or never-probed services.
func (v *Inventory) ActiveFirstOpen(key ServiceKey) (time.Time, bool) {
	if v.active == nil {
		return time.Time{}, false
	}
	return v.active.FirstOpen(key)
}

// Scans returns the active side's sweep metadata in start order (nil for
// passive-only inventories). The slice is owned by the inventory.
func (v *Inventory) Scans() []ScanMeta {
	if v.active == nil {
		return nil
	}
	return v.active.Scans()
}

// Scanners returns the detected scanners, sorted by source address.
func (v *Inventory) Scanners() []ScannerInfo { return v.scanners }

// ScannerSet returns detected scanner sources as a membership map (a
// fresh map per call; the caller may modify it).
func (v *Inventory) ScannerSet() map[netaddr.V4]bool {
	out := make(map[netaddr.V4]bool, len(v.scanners))
	for _, s := range v.scanners {
		out[s.Source] = true
	}
	return out
}

// AddrFirstSeen rolls the passive inventory up to addresses: earliest
// positive evidence per address, optionally restricted to services passing
// keep.
func (v *Inventory) AddrFirstSeen(keep func(ServiceKey) bool) map[netaddr.V4]time.Time {
	return v.d.addrFirstSeen(keep)
}

// AddrFirstSeenExcluding recomputes per-address first discovery with the
// given peers' traffic removed (Figure 4). Addresses whose every stored
// contact came from excluded peers drop out entirely.
func (v *Inventory) AddrFirstSeenExcluding(excluded map[netaddr.V4]bool, keep func(ServiceKey) bool) map[netaddr.V4]time.Time {
	return v.d.addrFirstSeenExcluding(excluded, keep)
}

// AddrWeights sums flow and client weights per address across services.
func (v *Inventory) AddrWeights() (flows, clients map[netaddr.V4]int) {
	return v.d.addrWeights()
}

// ActiveDuring reports whether the address showed any passive activity
// within [from, to] — the paper's second firewall confirmation signal.
func (v *Inventory) ActiveDuring(addr netaddr.V4, from, to time.Time) bool {
	trail, lo, hi := v.d.trail(addr), ToInstant(from), ToInstant(to)
	i := sort.Search(len(trail), func(i int) bool { return trail[i] >= lo })
	return i < len(trail) && trail[i] <= hi
}

// LastActivity returns the most recent recorded passive activity time for
// the address, ok=false if it was never seen.
func (v *Inventory) LastActivity(addr netaddr.V4) (time.Time, bool) {
	trail := v.d.trail(addr)
	if len(trail) == 0 {
		return time.Time{}, false
	}
	return trail[len(trail)-1].Time(), true
}

// Dump renders the inventory into a canonical byte form: every service in
// key order with its provenance, discovery times and passive weights, then
// the scanner list and sweep metadata. Two inventories built from the same
// observations serialize identically — the property the hybrid determinism
// tests pin down — and the text doubles as a human-readable report for the
// command-line tools.
func (v *Inventory) Dump() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "services=%d packets=%d\n", v.Len(), v.d.packets)
	v.EachService(func(key ServiceKey, rec *PassiveRecord, p Provenance, _, activeAt time.Time) bool {
		fmt.Fprintf(&b, "%s %s", key, p)
		if rec != nil {
			fmt.Fprintf(&b, " passive=%s flows=%d clients=%d",
				rec.FirstSeen().Format(time.RFC3339Nano), rec.Flows, rec.Clients())
		}
		if p != PassiveOnly {
			fmt.Fprintf(&b, " active=%s", activeAt.UTC().Format(time.RFC3339Nano))
		}
		b.WriteByte('\n')
		return true
	})
	for _, s := range v.scanners {
		fmt.Fprintf(&b, "scanner %s window=%s dsts=%d rsts=%d\n", s.Source,
			s.Window.UTC().Format(time.RFC3339Nano), s.UniqueDsts, s.RstDsts)
	}
	for _, m := range v.Scans() {
		fmt.Fprintf(&b, "sweep %d %s..%s\n", m.ID,
			m.Started.UTC().Format(time.RFC3339Nano), m.Finished.UTC().Format(time.RFC3339Nano))
	}
	return b.Bytes()
}
