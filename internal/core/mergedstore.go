package core

import (
	"time"

	"servdisc/internal/netaddr"
)

// mergedStore is the union of every shard's sealed state, held in
// persistent maps — the only sealed copy there is, and the only passive
// store an Inventory reads. A merge starts builders from the previous
// snapshot's store and patches in what the shards' seal deltas name
// (mergeViews); the result shares all untouched structure with its
// predecessor, so a changed snapshot is a handful of path copies — O(records
// changed), never an O(inventory) clone — while every previously returned
// Inventory stays valid forever.
type mergedStore struct {
	packets  int
	services pmap[ServiceKey, *PassiveRecord]
	trails   pmap[netaddr.V4, []instant]
	tombs    pmap[ServiceKey, time.Time]
}

// trail returns one address's activity trail (nil if it was never seen).
func (m *mergedStore) trail(addr netaddr.V4) []instant {
	trail, _ := m.trails.Get(addr)
	return trail
}

// addrFirstSeen is the earliest positive evidence per address, optionally
// restricted to services passing keep.
func (m *mergedStore) addrFirstSeen(keep func(ServiceKey) bool) map[netaddr.V4]time.Time {
	out := make(map[netaddr.V4]time.Time)
	m.services.each(func(k ServiceKey, rec *PassiveRecord) bool {
		if keep == nil || keep(k) {
			first := rec.FirstSeen()
			if cur, ok := out[k.Addr]; !ok || first.Before(cur) {
				out[k.Addr] = first
			}
		}
		return true
	})
	return out
}

// addrFirstSeenExcluding is addrFirstSeen with the given peers' contacts
// removed; an address whose every stored contact is excluded drops out.
func (m *mergedStore) addrFirstSeenExcluding(excluded map[netaddr.V4]bool, keep func(ServiceKey) bool) map[netaddr.V4]time.Time {
	out := make(map[netaddr.V4]time.Time)
	m.services.each(func(k ServiceKey, rec *PassiveRecord) bool {
		if keep != nil && !keep(k) {
			return true
		}
		if t, ok := rec.FirstSeenExcluding(excluded); ok {
			if cur, seen := out[k.Addr]; !seen || t.Before(cur) {
				out[k.Addr] = t
			}
		}
		return true
	})
	return out
}

// addrWeights sums flow and client weights per address across services.
func (m *mergedStore) addrWeights() (flows, clients map[netaddr.V4]int) {
	flows = make(map[netaddr.V4]int)
	clients = make(map[netaddr.V4]int)
	m.services.each(func(k ServiceKey, rec *PassiveRecord) bool {
		flows[k.Addr] += rec.Flows
		clients[k.Addr] += rec.Clients()
		return true
	})
	return flows, clients
}
