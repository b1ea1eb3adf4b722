package core

import (
	"sort"
	"time"

	"servdisc/internal/netaddr"
	"servdisc/internal/packet"
)

// PassiveDiscoverer builds a service inventory from observed border
// traffic. It implements the capture.Sink contract and is driven entirely
// by HandlePacket; all accessors may be used at any point during or after
// collection.
type PassiveDiscoverer struct {
	campus netaddr.Prefix
	// udpPorts are the well-known UDP service ports considered evidence
	// when a campus host sources traffic from them.
	udpPorts map[uint16]bool

	services map[ServiceKey]*PassiveRecord

	// peers holds the distinct-peer identity set — the dedup behind
	// PassiveRecord.nClients — of each service with more than peerInline
	// clients. Smaller services (nearly all of them) have no entry: their
	// firstPeers already lists every distinct peer and is scanned instead
	// (see newPeer). The table lives here rather than in the record so
	// sealed snapshot views never carry (or copy) it: it belongs to the
	// live, ingesting side only.
	peers map[ServiceKey]map[netaddr.V4]struct{}

	// addrTimes records thinned per-address activity timestamps for the
	// firewall-confirmation heuristic ("activity observed during an
	// active scan", Section 4.2.4 method 2).
	addrTimes map[netaddr.V4][]instant

	// scan tracking state (scandetect.go).
	track *scanTracker

	// onService, when set, is invoked for the first positive evidence of
	// each service, from the goroutine applying the packet. ShardedPassive
	// wires it (and the tracker's onDetect) into the engine's event stream.
	onService func(key ServiceKey, t time.Time)

	// onRetire, when set, is invoked when an observe-side incarnation
	// split retires a record (see observe): the event stream clears its
	// seen entry synchronously so the new incarnation's discovery
	// announcement is not suppressed.
	onRetire func(key ServiceKey)

	// Retention state (retention.go). ttl=0 disables expiry entirely; the
	// maps and slices below then stay empty and cost nothing. tombs maps
	// each expired key to its expiry deadline (a later re-creation keeps
	// the tombstone — it only helps late federation consumers). expq is
	// the lazy deadline min-heap; pendingExpired accumulates expiries
	// until the next snapshot publishes them; deadKeys and tombDirty name
	// what the next seal must delete from / sync into the sealed view;
	// ckTombs are tombstones not yet exported to a checkpoint.
	ttl            time.Duration
	tombs          map[ServiceKey]time.Time
	expq           []expEntry
	pendingExpired []expiredSvc
	deadKeys       []ServiceKey
	tombDirty      []ServiceKey
	ckTombs        map[ServiceKey]time.Time

	// Copy-on-write snapshot machinery (sealView). sealed is the immutable
	// view shared with snapshot consumers: its records and activity trails
	// alias the live maps, and each seal patches in only what the dirty
	// sets name since the previous seal — O(churn), not O(inventory).
	// seals counts seals; a record whose seal field is behind it is shared
	// with the sealed layer and observe clones it before mutating. All
	// dirty tracking is off (nil maps, zero cost) until the first seal.
	sealed     *PassiveDiscoverer
	seals      uint64
	dirty      map[ServiceKey]struct{}
	dirtyAddrs map[netaddr.V4]struct{}
	newKeys    []ServiceKey

	// Checkpoint dirty tracking (export.go): which services and trails
	// changed since the last checkpoint export. Independent of the seal
	// dirty sets above — seals clear at every snapshot freeze, checkpoints
	// run on their own (usually much slower) cadence. Off (nil, zero cost)
	// until the first full export enables it.
	ckDirty      map[ServiceKey]struct{}
	ckDirtyAddrs map[netaddr.V4]struct{}

	// Packets counts everything handled.
	Packets int
}

// NewPassiveDiscoverer builds a discoverer for the given campus space.
// udpPorts lists the well-known UDP service ports of interest (may be nil
// for TCP-only studies).
func NewPassiveDiscoverer(campus netaddr.Prefix, udpPorts []uint16) *PassiveDiscoverer {
	d := &PassiveDiscoverer{
		campus:    campus,
		udpPorts:  make(map[uint16]bool, len(udpPorts)),
		services:  make(map[ServiceKey]*PassiveRecord),
		peers:     make(map[ServiceKey]map[netaddr.V4]struct{}),
		addrTimes: make(map[netaddr.V4][]instant),
		tombs:     make(map[ServiceKey]time.Time),
		track:     newScanTracker(),
	}
	for _, p := range udpPorts {
		d.udpPorts[p] = true
	}
	return d
}

// HandlePacket implements the legacy per-packet capture.Sink contract.
func (d *PassiveDiscoverer) HandlePacket(p *packet.Packet) {
	d.Packets++
	switch {
	case p.Has(packet.LayerTypeTCP):
		d.handleTCP(p)
	case p.Has(packet.LayerTypeUDP):
		d.handleUDP(p)
	}
}

// HandleBatch implements pipeline.BatchSink. The discoverer is single-
// writer: feed it from one goroutine (or shard it with ShardedPassive).
func (d *PassiveDiscoverer) HandleBatch(batch []packet.Packet) {
	for i := range batch {
		d.HandlePacket(&batch[i])
	}
}

// seedScanOrigin pins the scan detector's window origin, so sharded
// ingestion buckets every shard's windows identically to a single-threaded
// run (see ShardedPassive). A no-op once the tracker has started.
func (d *PassiveDiscoverer) seedScanOrigin(t time.Time) { d.track.seed(t) }

// sealDelta names what one seal changed: the record keys replaced or
// created and the activity trails that moved since the previous seal.
// ShardedPassive keeps a short history of these so a merged snapshot can
// be patched from the previous one instead of rebuilt (see mergeViewsDelta).
type sealDelta struct {
	// gen and prevGen are the shard generations of this seal and the one
	// before it, forming a chain a merger can walk backwards.
	gen, prevGen uint64
	keys         []ServiceKey
	newKeys      []ServiceKey
	// delKeys are the records expired since the previous seal: a merger
	// must remove them from the previous merged snapshot.
	delKeys []ServiceKey
	addrs   []netaddr.V4
	// full marks a seal whose delta was not tracked (the first seal, or a
	// churn burst too large to be worth patching): merge must rebuild.
	full bool
}

// sealView freezes the discoverer's inventory-facing state — service
// records, activity trails, and the packet count — into a view that later
// ingestion into the original cannot disturb, and reports what changed
// since the previous seal. Unlike a deep clone, the view shares every
// untouched record and trail with the live maps: records go copy-on-write
// (observe clones a shared record before its first post-seal mutation) and
// trails are append-only, so aliasing their backing arrays is safe — the
// sealed slice header never sees elements past its length. Seal cost is
// therefore O(records touched since the last seal), not O(inventory).
//
// The same *PassiveDiscoverer is returned (patched in place) on every
// call; callers that hand it to concurrent readers must make sure those
// reads complete before the next seal (ShardedPassive serializes seals
// and merges under its snapshot lock). The scan tracker is NOT part of
// the view (detection results are captured separately at freeze time).
func (d *PassiveDiscoverer) sealView() (*PassiveDiscoverer, sealDelta) {
	defer func() {
		d.seals++ // every pre-seal record is now shared: next write clones
	}()
	if d.sealed == nil {
		// First seal: build the view whole and switch dirty tracking on.
		s := NewPassiveDiscoverer(d.campus, nil)
		s.udpPorts = d.udpPorts
		s.Packets = d.Packets
		for k, rec := range d.services {
			s.services[k] = rec
		}
		for a, ts := range d.addrTimes {
			s.addrTimes[a] = ts
		}
		for k, at := range d.tombs {
			s.tombs[k] = at
		}
		d.sealed = s
		d.dirty = make(map[ServiceKey]struct{})
		d.dirtyAddrs = make(map[netaddr.V4]struct{})
		d.deadKeys, d.tombDirty = nil, nil
		return s, sealDelta{full: true}
	}
	delta := sealDelta{
		keys:  make([]ServiceKey, 0, len(d.dirty)),
		addrs: make([]netaddr.V4, 0, len(d.dirtyAddrs)),
	}
	// A churn burst touching most of the inventory is cheaper to re-merge
	// than to patch downstream; the seal itself still applies the delta.
	if len(d.dirty) > len(d.services)/2 {
		delta = sealDelta{full: true}
	}
	// Sync expiries first: tombstones move into the sealed view, expired
	// records leave it (and the delta tells the merger to drop them too).
	for _, k := range d.tombDirty {
		d.sealed.tombs[k] = d.tombs[k]
	}
	d.tombDirty = nil
	hadDead := len(d.deadKeys) > 0
	for _, k := range d.deadKeys {
		delete(d.sealed.services, k)
		if !delta.full {
			delta.delKeys = append(delta.delKeys, k)
		}
	}
	d.deadKeys = nil
	for k := range d.dirty {
		d.sealed.services[k] = d.services[k]
		if !delta.full {
			delta.keys = append(delta.keys, k)
		}
		delete(d.dirty, k)
	}
	for a := range d.dirtyAddrs {
		d.sealed.addrTimes[a] = d.addrTimes[a]
		if !delta.full {
			delta.addrs = append(delta.addrs, a)
		}
		delete(d.dirtyAddrs, a)
	}
	if !delta.full {
		delta.newKeys = d.newKeys
		if hadDead {
			// A key created and expired within one seal interval must not
			// leak into the merger's new-key list.
			delta.newKeys = nil
			for _, k := range d.newKeys {
				if _, live := d.services[k]; live {
					delta.newKeys = append(delta.newKeys, k)
				}
			}
		}
	}
	d.sealed.Packets = d.Packets
	d.newKeys = nil
	return d.sealed, delta
}

func (d *PassiveDiscoverer) handleTCP(p *packet.Packet) {
	srcIn := d.campus.Contains(p.IPv4.Src)
	dstIn := d.campus.Contains(p.IPv4.Dst)
	fl := p.TCP.Flags
	switch {
	case fl.Has(packet.FlagSYN | packet.FlagACK):
		// A campus host accepting a connection is a server
		// (Section 3.2: "any host sending a SYN-ACK is running a
		// service").
		if srcIn {
			key := ServiceKey{Addr: p.IPv4.Src, Proto: packet.ProtoTCP, Port: p.TCP.SrcPort}
			d.observe(key, p.Timestamp, p.IPv4.Dst)
		}
	case fl.Has(packet.FlagSYN):
		// Inbound connection attempts feed the scan detector.
		if dstIn && !srcIn {
			d.track.recordSyn(p.Timestamp, p.IPv4.Src, p.IPv4.Dst)
		}
	case fl.Has(packet.FlagRST):
		// RSTs leaving campus confirm "live host, no service" to the
		// external source — the detector's second signal.
		if srcIn && !dstIn {
			d.track.recordRst(p.Timestamp, p.IPv4.Dst, p.IPv4.Src)
		}
	}
}

func (d *PassiveDiscoverer) handleUDP(p *packet.Packet) {
	// A campus host sourcing traffic from a well-known UDP port is
	// offering that service (Section 3.2).
	if d.campus.Contains(p.IPv4.Src) && d.udpPorts[p.UDP.SrcPort] {
		key := ServiceKey{Addr: p.IPv4.Src, Proto: packet.ProtoUDP, Port: p.UDP.SrcPort}
		d.observe(key, p.Timestamp, p.IPv4.Dst)
	}
}

func (d *PassiveDiscoverer) observe(key ServiceKey, t time.Time, peer netaddr.V4) {
	rec := d.services[key]
	at := toInstant(t)
	if rec != nil && d.ttl > 0 && !t.Before(rec.LastSeen().Add(d.ttl)) {
		// Incarnation split: the old record's deadline passed before this
		// evidence arrived, so on the observation clock the service expired
		// and is now being rediscovered. Retiring it here — rather than
		// waiting for a snapshot-side sweep to notice — makes the final
		// state independent of snapshot cadence (for monotone observation
		// clocks): the fresh record below gets a new FirstSeen and reset
		// weights no matter how often anyone snapshotted in between. The
		// expiry event is queued for the next snapshot; the seen-table
		// entry is cleared synchronously (onRetire) so the rediscovery
		// announcement below is not suppressed.
		deadline := rec.LastSeen().Add(d.ttl)
		d.retire(key, deadline)
		d.pendingExpired = append(d.pendingExpired, expiredSvc{
			key: key, at: deadline, prov: PassiveOnly,
		})
		if d.onRetire != nil {
			d.onRetire(key)
		}
		rec = nil
	}
	switch {
	case rec == nil:
		rec = &PassiveRecord{first: at, seal: d.seals}
		d.services[key] = rec
		if d.sealed != nil {
			d.dirty[key] = struct{}{}
			d.newKeys = append(d.newKeys, key)
		}
		if d.ttl > 0 {
			d.expPush(t.Add(d.ttl), key)
		}
		if d.onService != nil {
			d.onService(key, t)
		}
	case rec.seal != d.seals:
		// The record is shared with the sealed snapshot layer: copy on
		// write, exactly once per seal epoch.
		rec = rec.cloneForWrite(d.seals)
		d.services[key] = rec
		d.dirty[key] = struct{}{}
	}
	rec.observe(at, peer, d.newPeer(key, rec, peer))
	if d.ckDirty != nil {
		d.ckDirty[key] = struct{}{}
	}

	// Thinned per-address activity trail (>=1-minute spacing). Appends
	// only — sealed views alias the backing array safely.
	times := d.addrTimes[key.Addr]
	if n := len(times); n == 0 || (at >= times[n-1] && at-times[n-1] >= instant(time.Minute)) {
		d.addrTimes[key.Addr] = append(times, at)
		if d.sealed != nil {
			d.dirtyAddrs[key.Addr] = struct{}{}
		}
		if d.ckDirtyAddrs != nil {
			d.ckDirtyAddrs[key.Addr] = struct{}{}
		}
	}
}

// peerInline is the client count up to which a service's peers are
// deduplicated by scanning rec.firstPeers; past it the service gets a map
// in d.peers (DESIGN.md §7 records the measurement that picked it). The
// scan is only exhaustive while firstPeers still records every peer.
const peerInline = 32

const _ = uint(maxFirstPeers - peerInline) // peerInline <= maxFirstPeers

// newPeer reports whether peer is contacting the service for the first
// time, and records it in d.peers if the service has one (rec.observe
// appends it to firstPeers). rec is writable here — observe has already
// cloned a sealed record — and firstPeers is append-only, so the scan is
// safe beside sealed views aliasing the same backing array.
func (d *PassiveDiscoverer) newPeer(key ServiceKey, rec *PassiveRecord, peer netaddr.V4) bool {
	if rec.nClients > peerInline {
		peers := d.peers[key]
		if _, seen := peers[peer]; seen {
			return false
		}
		peers[peer] = struct{}{}
		return true
	}
	for i := range rec.firstPeers {
		if rec.firstPeers[i].peer == peer {
			return false
		}
	}
	if rec.nClients == peerInline {
		// One past the inline count: the service moves to a map.
		peers := make(map[netaddr.V4]struct{}, 2*peerInline)
		for i := range rec.firstPeers {
			peers[rec.firstPeers[i].peer] = struct{}{}
		}
		peers[peer] = struct{}{}
		d.peers[key] = peers
	}
	return true
}

// Services returns the live inventory map (owned by the discoverer).
func (d *PassiveDiscoverer) Services() map[ServiceKey]*PassiveRecord { return d.services }

// NumPackets returns the cumulative packet count (invSource).
func (d *PassiveDiscoverer) NumPackets() int { return d.Packets }

// numServices returns the live service count (invSource).
func (d *PassiveDiscoverer) numServices() int { return len(d.services) }

// eachService visits every live service (invSource; map order).
func (d *PassiveDiscoverer) eachService(f func(ServiceKey, *PassiveRecord) bool) {
	for k, rec := range d.services {
		if !f(k, rec) {
			return
		}
	}
}

// eachTombstone visits every expiry tombstone (invSource; map order).
func (d *PassiveDiscoverer) eachTombstone(f func(ServiceKey, time.Time) bool) {
	for k, at := range d.tombs {
		if !f(k, at) {
			return
		}
	}
}

// Record returns the record for one service, if present.
func (d *PassiveDiscoverer) Record(key ServiceKey) (*PassiveRecord, bool) {
	r, ok := d.services[key]
	return r, ok
}

// Keys returns all discovered services, sorted for deterministic output.
func (d *PassiveDiscoverer) Keys() []ServiceKey {
	keys := make([]ServiceKey, 0, len(d.services))
	for k := range d.services {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Before(keys[j]) })
	return keys
}

// AddrFirstSeen rolls the inventory up to addresses: the earliest positive
// evidence per address, optionally restricted to services passing keep.
func (d *PassiveDiscoverer) AddrFirstSeen(keep func(ServiceKey) bool) map[netaddr.V4]time.Time {
	out := make(map[netaddr.V4]time.Time)
	for k, rec := range d.services {
		if keep != nil && !keep(k) {
			continue
		}
		first := rec.FirstSeen()
		if cur, ok := out[k.Addr]; !ok || first.Before(cur) {
			out[k.Addr] = first
		}
	}
	return out
}

// AddrWeights sums flow and client weights per address across services.
func (d *PassiveDiscoverer) AddrWeights() (flows, clients map[netaddr.V4]int) {
	flows = make(map[netaddr.V4]int)
	clients = make(map[netaddr.V4]int)
	for k, rec := range d.services {
		flows[k.Addr] += rec.Flows
		clients[k.Addr] += rec.Clients()
	}
	return flows, clients
}

// LastActivity returns the most recent recorded activity time for the
// address, ok=false if it was never seen.
func (d *PassiveDiscoverer) LastActivity(addr netaddr.V4) (time.Time, bool) {
	return lastActivity(d.addrTimes[addr])
}

// ActiveDuring reports whether the address showed any passive activity
// within [from, to] — the paper's second firewall confirmation signal.
func (d *PassiveDiscoverer) ActiveDuring(addr netaddr.V4, from, to time.Time) bool {
	return activeDuring(d.addrTimes[addr], from, to)
}

// lastActivity is LastActivity over one address's trail.
func lastActivity(trail []instant) (time.Time, bool) {
	if len(trail) == 0 {
		return time.Time{}, false
	}
	return trail[len(trail)-1].time(), true
}

// activeDuring is ActiveDuring over one address's (ascending) trail.
func activeDuring(trail []instant, from, to time.Time) bool {
	lo, hi := toInstant(from), toInstant(to)
	i := sort.Search(len(trail), func(i int) bool { return trail[i] >= lo })
	return i < len(trail) && trail[i] <= hi
}

// DetectScanners runs the scan detector over everything observed so far
// (see scandetect.go for the rule).
func (d *PassiveDiscoverer) DetectScanners() []ScannerInfo { return d.track.detect() }

// ScannerSet returns detected scanner sources as a membership map, the
// form the scan-removal analysis consumes.
func (d *PassiveDiscoverer) ScannerSet() map[netaddr.V4]bool {
	out := make(map[netaddr.V4]bool)
	for _, s := range d.track.detect() {
		out[s.Source] = true
	}
	return out
}

// AddrFirstSeenExcluding recomputes per-address first discovery with the
// given peers' traffic removed (Figure 4). Addresses whose every stored
// contact came from excluded peers drop out entirely.
func (d *PassiveDiscoverer) AddrFirstSeenExcluding(excluded map[netaddr.V4]bool, keep func(ServiceKey) bool) map[netaddr.V4]time.Time {
	out := make(map[netaddr.V4]time.Time)
	for k, rec := range d.services {
		if keep != nil && !keep(k) {
			continue
		}
		t, ok := rec.FirstSeenExcluding(excluded)
		if !ok {
			continue
		}
		if cur, seen := out[k.Addr]; !seen || t.Before(cur) {
			out[k.Addr] = t
		}
	}
	return out
}
