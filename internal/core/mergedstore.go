package core

import (
	"time"

	"servdisc/internal/netaddr"
)

// mergedStore is the union of every shard's sealed state, held in
// persistent trees — the only sealed copy there is, and the only store an
// Inventory reads. A merge patches the previous snapshot's trees with what
// the shards' seal deltas name (mergeViews); the result shares all untouched
// structure with its predecessor, so a changed snapshot is a handful of path
// copies — O(records changed), never an O(inventory) clone — while every
// previously returned Inventory stays valid forever.
//
// services is the inventory's key order itself: under a Hybrid it also holds
// every service only a probe found, as an entry with a nil record.
type mergedStore struct {
	packets  int
	services Tree[ServiceKey, *PassiveRecord]
	trails   Tree[netaddr.V4, []instant]
	tombs    Tree[ServiceKey, time.Time]
}

// svcEntry is one services entry.
type svcEntry = TreeEntry[ServiceKey, *PassiveRecord]

// trail returns one address's activity trail (nil if it was never seen).
func (m *mergedStore) trail(addr netaddr.V4) []instant {
	trail, _ := m.trails.Get(addr)
	return trail
}

// eachRecord visits every service passive monitoring saw, in key order.
func (m *mergedStore) eachRecord(f func(ServiceKey, *PassiveRecord)) {
	m.services.Walk(nil, func(k ServiceKey, rec *PassiveRecord) bool {
		if rec != nil {
			f(k, rec)
		}
		return true
	})
}

// addrFirstSeen is the earliest positive evidence per address, optionally
// restricted to services passing keep.
func (m *mergedStore) addrFirstSeen(keep func(ServiceKey) bool) map[netaddr.V4]time.Time {
	out := make(map[netaddr.V4]time.Time)
	m.eachRecord(func(k ServiceKey, rec *PassiveRecord) {
		if keep == nil || keep(k) {
			first := rec.FirstSeen()
			if cur, ok := out[k.Addr]; !ok || first.Before(cur) {
				out[k.Addr] = first
			}
		}
	})
	return out
}

// addrFirstSeenExcluding is addrFirstSeen with the given peers' contacts
// removed; an address whose every stored contact is excluded drops out.
func (m *mergedStore) addrFirstSeenExcluding(excluded map[netaddr.V4]bool, keep func(ServiceKey) bool) map[netaddr.V4]time.Time {
	out := make(map[netaddr.V4]time.Time)
	m.eachRecord(func(k ServiceKey, rec *PassiveRecord) {
		if keep != nil && !keep(k) {
			return
		}
		if t, ok := rec.FirstSeenExcluding(excluded); ok {
			if cur, seen := out[k.Addr]; !seen || t.Before(cur) {
				out[k.Addr] = t
			}
		}
	})
	return out
}

// addrWeights sums flow and client weights per address across services.
func (m *mergedStore) addrWeights() (flows, clients map[netaddr.V4]int) {
	flows = make(map[netaddr.V4]int)
	clients = make(map[netaddr.V4]int)
	m.eachRecord(func(k ServiceKey, rec *PassiveRecord) {
		flows[k.Addr] += rec.Flows
		clients[k.Addr] += rec.Clients()
	})
	return flows, clients
}

// reprobed is m with its probe-only entries redrawn for the active view a:
// the O(inventory) relisting a report or an active expiry costs.
func (m *mergedStore) reprobed(a *ActiveDiscoverer) *mergedStore {
	ents := make([]svcEntry, 0, m.services.Len())
	m.eachRecord(func(k ServiceKey, rec *PassiveRecord) { ents = append(ents, svcEntry{Val: rec, Key: k}) })
	c := *m
	c.services = BuildTree(withProbed(ents, a))
	return &c
}

// withProbed merges into ents (sorted passive entries) a nil-record entry
// for every service only a's probes found (a may be nil).
func withProbed(ents []svcEntry, a *ActiveDiscoverer) []svcEntry {
	if a == nil || len(a.firstOpen) == 0 {
		return ents
	}
	probed := make([]svcEntry, 0, len(a.firstOpen))
	for k := range a.firstOpen {
		probed = append(probed, svcEntry{Key: k})
	}
	probed = sortEntries(probed)
	out := make([]svcEntry, 0, len(ents)+len(probed))
	i := 0
	for _, p := range probed {
		for i < len(ents) && ents[i].Key.Before(p.Key) {
			out = append(out, ents[i])
			i++
		}
		if i == len(ents) || ents[i].Key != p.Key {
			out = append(out, p)
		}
	}
	return append(out, ents[i:]...)
}

// sortEntries orders entries by key with an LSD byte radix over the keys'
// Ord, at most 56 bits, skipping every byte all keys share (on one campus,
// most of the address and the protocol). It returns whichever of a and its
// scratch twin holds the result.
func sortEntries[K TreeKey, V any](a []TreeEntry[K, V]) []TreeEntry[K, V] {
	and, or := ^uint64(0), uint64(0)
	for i := range a {
		p := a[i].Key.Ord()
		and, or = and&p, or|p
	}
	b := make([]TreeEntry[K, V], len(a))
	for shift := uint(0); shift < 56; shift += 8 {
		if (and^or)>>shift&0xff == 0 {
			continue
		}
		var pos [257]int // pos[d+1] counts digit d, then pos[d] is where its run starts
		for i := range a {
			pos[a[i].Key.Ord()>>shift&0xff+1]++
		}
		for d := 1; d < 256; d++ {
			pos[d] += pos[d-1]
		}
		for i := range a {
			d := a[i].Key.Ord() >> shift & 0xff
			b[pos[d]] = a[i]
			pos[d]++
		}
		a, b = b, a
	}
	return a
}
