package core

// invSource + mergedStore: the storage abstraction behind Inventory.
//
// A frozen Inventory reads its passive state through invSource. Two
// implementations exist: *PassiveDiscoverer (the single-threaded and
// terminal-merge paths, plain maps) and *mergedStore (the live sharded
// snapshot path), which keeps services, activity trails and tombstones in
// persistent HAMTs so a changed snapshot is a handful of path copies over
// the previous one — O(records changed), never an O(inventory) map clone —
// while every previously returned Inventory stays valid forever.

import (
	"time"

	"servdisc/internal/netaddr"
)

// invSource is the passive-state storage a frozen Inventory queries. All
// methods are read-only and safe for concurrent readers once the source is
// frozen.
type invSource interface {
	// NumPackets returns the cumulative packet count behind the state.
	NumPackets() int
	// Record returns one service's record, if present.
	Record(key ServiceKey) (*PassiveRecord, bool)
	// numServices returns the live (non-expired) service count.
	numServices() int
	// eachService visits every live service until f returns false.
	eachService(f func(ServiceKey, *PassiveRecord) bool)
	// eachTombstone visits every expiry tombstone (key, deadline) until f
	// returns false.
	eachTombstone(f func(ServiceKey, time.Time) bool)
	// ActiveDuring reports whether the address showed passive activity
	// within [from, to].
	ActiveDuring(addr netaddr.V4, from, to time.Time) bool
	// LastActivity returns the most recent recorded activity time.
	LastActivity(addr netaddr.V4) (time.Time, bool)
}

// mergedStore is the union of every shard's sealed state, held in
// persistent maps — the only sealed copy there is. A merge starts builders
// from the previous snapshot's store and patches in what the shards' seal
// deltas name (mergeViews); the result shares all untouched structure with
// its predecessor.
type mergedStore struct {
	packets  int
	services pmap[ServiceKey, *PassiveRecord]
	trails   pmap[netaddr.V4, []instant]
	tombs    pmap[ServiceKey, time.Time]
}

func (m *mergedStore) NumPackets() int { return m.packets }

func (m *mergedStore) numServices() int { return m.services.Len() }

func (m *mergedStore) Record(key ServiceKey) (*PassiveRecord, bool) {
	return m.services.Get(key)
}

func (m *mergedStore) eachService(f func(ServiceKey, *PassiveRecord) bool) {
	m.services.each(f)
}

func (m *mergedStore) eachTombstone(f func(ServiceKey, time.Time) bool) {
	m.tombs.each(f)
}

func (m *mergedStore) ActiveDuring(addr netaddr.V4, from, to time.Time) bool {
	trail, _ := m.trails.Get(addr)
	return activeDuring(trail, from, to)
}

func (m *mergedStore) LastActivity(addr netaddr.V4) (time.Time, bool) {
	trail, _ := m.trails.Get(addr)
	return lastActivity(trail)
}

// The address roll-ups, written once over eachService for both sources.

// addrFirstSeen is the earliest positive evidence per address, optionally
// restricted to services passing keep.
func addrFirstSeen(src invSource, keep func(ServiceKey) bool) map[netaddr.V4]time.Time {
	out := make(map[netaddr.V4]time.Time)
	src.eachService(func(k ServiceKey, rec *PassiveRecord) bool {
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
func addrFirstSeenExcluding(src invSource, excluded map[netaddr.V4]bool, keep func(ServiceKey) bool) map[netaddr.V4]time.Time {
	out := make(map[netaddr.V4]time.Time)
	src.eachService(func(k ServiceKey, rec *PassiveRecord) bool {
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
func addrWeights(src invSource) (flows, clients map[netaddr.V4]int) {
	flows = make(map[netaddr.V4]int)
	clients = make(map[netaddr.V4]int)
	src.eachService(func(k ServiceKey, rec *PassiveRecord) bool {
		flows[k.Addr] += rec.Flows
		clients[k.Addr] += rec.Clients()
		return true
	})
	return flows, clients
}

var (
	_ invSource = (*mergedStore)(nil)
	_ invSource = (*PassiveDiscoverer)(nil)
)
