package core

import (
	"time"

	"servdisc/internal/netaddr"
	"servdisc/internal/packet"
)

// PassiveDiscoverer builds a service inventory from observed border
// traffic: the single-writer state one goroutine feeds through HandleBatch
// (HandlePacket is the one-packet form). It is write-side state only — one
// shard of a ShardedPassive, or the sequential reference — and has no read
// API: readers get a frozen Inventory (NewInventory, or a Snapshot of the
// engine), which is sealed from it (see seal).
type PassiveDiscoverer struct {
	campus netaddr.Prefix
	// udpPorts are the well-known UDP service ports considered evidence
	// when a campus host sources traffic from them.
	udpPorts map[uint16]bool

	services map[ServiceKey]*PassiveRecord

	// peers holds the distinct-peer identity set — the dedup behind
	// PassiveRecord.nClients — of each service with more than peerInline
	// clients. Smaller services (nearly all of them) have no entry: their
	// peer history already lists every distinct peer and is scanned instead
	// (see newPeer). The table lives here rather than in the record so
	// snapshots never carry (or copy) it: it belongs to the live, ingesting
	// side only.
	peers map[ServiceKey]*addrSet

	// addrTimes records thinned per-address activity timestamps for the
	// firewall-confirmation heuristic ("activity observed during an
	// active scan", Section 4.2.4 method 2).
	addrTimes map[netaddr.V4][]instant

	// scan tracking state (scandetect.go).
	track *scanTracker

	// onService, when set, is invoked for each record observe creates — the
	// first positive evidence of a service, or of a new incarnation after an
	// expiry — from the goroutine applying the packet. ShardedPassive wires
	// it (and the tracker's onDetect) into the engine's event stream.
	onService func(key ServiceKey, t time.Time)

	// Retention state (retention.go). ttl=0 disables expiry entirely; the
	// maps and slices below then stay empty and cost nothing. tombs maps
	// each expired key to its expiry deadline (a later re-creation keeps
	// the tombstone — it only helps late federation consumers). expq is
	// the lazy deadline min-heap; pendingExpired accumulates expiries
	// until the next snapshot publishes them; deadKeys and tombDirty name
	// the expired records and moved tombstones the next seal reports.
	ttl            time.Duration
	tombs          map[ServiceKey]time.Time
	expq           []expEntry
	pendingExpired []expiredSvc
	deadKeys       []ServiceKey
	tombDirty      []ServiceKey

	// Copy-on-write snapshot machinery (seal). The discoverer keeps no
	// sealed copy of its own: each seal hands the records and trails the
	// dirty sets name to the merged snapshot, which is the only sealed
	// store. seals counts seals; a record whose seal field is behind it is
	// shared with snapshots and observe clones it before mutating. dirty
	// maps each record touched since the previous seal to whether it was
	// born (created, or re-created after an expiry) in that interval. All
	// dirty tracking is off (nil maps, zero cost) until the first seal.
	seals      uint64
	dirty      map[ServiceKey]bool
	dirtyAddrs map[netaddr.V4]struct{}

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
		peers:     make(map[ServiceKey]*addrSet),
		addrTimes: make(map[netaddr.V4][]instant),
		tombs:     make(map[ServiceKey]time.Time),
		track:     newScanTracker(),
	}
	for _, p := range udpPorts {
		d.udpPorts[p] = true
	}
	return d
}

// HandlePacket applies one packet — the plain method HandleBatch loops
// over (and sequential reference implementations call); no interface
// names it.
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

// shardDelta is what one seal hands the merge, by value: everything the
// merged snapshot needs to move from the previous seal point to this one,
// with no reference back into the discoverer's maps. Records and trails are
// shared, not copied — records go copy-on-write at the seal and trails are
// append-only, so the slice headers captured here never see a later write.
type shardDelta struct {
	// packets is the discoverer's cumulative packet count at the seal.
	packets int
	recs    []sealedRec
	// dead are the records expired since the previous seal and not reborn
	// (empty in a whole-shard delta, which lists only what is live).
	dead   []ServiceKey
	trails []sealedTrail
	tombs  []TombState
	// scanners and expired are filled in by the shard freeze: detections as
	// of the seal, and the expiry notices the snapshot publishes.
	scanners []ScannerInfo
	expired  []expiredSvc
}

// sealedRec is one record as of a seal. born marks a record created since
// the previous seal, which is how a service that expired and came back
// within one interval still reads as new downstream.
type sealedRec struct {
	key  ServiceKey
	rec  *PassiveRecord
	born bool
}

// sealedTrail is one address's activity trail as of a seal.
type sealedTrail struct {
	addr  netaddr.V4
	trail []instant
}

// seal freezes the discoverer's inventory-facing state — service records,
// activity trails, tombstones and the packet count — as of now and returns
// what changed since the previous seal. With whole set it lists the entire
// shard instead — every record, trail and tombstone, born unset — for a
// merge that has no previous snapshot to patch (the first one, or the first
// after a checkpoint restore), and (re)starts the dirty sets. Sealing
// copies no record: every record existing now becomes shared with whoever
// holds the delta (observe clones a shared record before its first
// post-seal mutation) and trails are append-only, so a captured slice
// header never sees elements past its length. Cost is O(records touched
// since the last seal), or O(shard) when whole.
//
// Each delta is relative to the previous seal and is handed out once, so
// every partial seal must reach the one merge that patches the snapshot
// chain: only a shard freeze on behalf of ShardedPassive.advance seals
// partially. A whole seal stands alone — NewHybridInventory takes one of a
// discoverer no engine owns. The scan tracker is not part of a seal (the
// freeze captures detections beside it).
func (d *PassiveDiscoverer) seal(whole bool) shardDelta {
	delta := shardDelta{packets: d.Packets}
	if whole {
		delta.recs = make([]sealedRec, 0, len(d.services))
		for k, rec := range d.services {
			delta.recs = append(delta.recs, sealedRec{key: k, rec: rec})
		}
		delta.trails = make([]sealedTrail, 0, len(d.addrTimes))
		for a, ts := range d.addrTimes {
			delta.trails = append(delta.trails, sealedTrail{addr: a, trail: ts})
		}
		delta.tombs = make([]TombState, 0, len(d.tombs))
		for k, at := range d.tombs {
			delta.tombs = append(delta.tombs, TombState{Key: k, At: at})
		}
		// Everything is in the delta: switch dirty tracking on (first seal)
		// or start it over (restore).
		d.dirty = make(map[ServiceKey]bool)
		d.dirtyAddrs = make(map[netaddr.V4]struct{})
		d.deadKeys, d.tombDirty = nil, nil
	} else {
		if len(d.dirty) > 0 {
			delta.recs = make([]sealedRec, 0, len(d.dirty))
			for k, born := range d.dirty {
				delta.recs = append(delta.recs, sealedRec{key: k, rec: d.services[k], born: born})
			}
			clear(d.dirty)
		}
		if len(d.dirtyAddrs) > 0 {
			delta.trails = make([]sealedTrail, 0, len(d.dirtyAddrs))
			for a := range d.dirtyAddrs {
				delta.trails = append(delta.trails, sealedTrail{addr: a, trail: d.addrTimes[a]})
			}
			clear(d.dirtyAddrs)
		}
		for _, k := range d.tombDirty {
			delta.tombs = append(delta.tombs, TombState{Key: k, At: d.tombs[k]})
		}
		delta.dead, d.deadKeys, d.tombDirty = d.deadKeys, nil, nil
	}
	d.seals++ // every record is now shared: the next write clones
	return delta
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
		// expiry event is queued for the next snapshot; the record is gone
		// from services now, which is all the rediscovery announcement
		// below looks at.
		deadline := rec.LastSeen().Add(d.ttl)
		d.retire(key, deadline)
		d.pendingExpired = append(d.pendingExpired, expiredSvc{key: key, at: deadline, prov: PassiveOnly})
		rec = nil
	}
	switch {
	case rec == nil:
		rec = &PassiveRecord{first: at, seal: d.seals}
		d.services[key] = rec
		if d.dirty != nil {
			d.dirty[key] = true
		}
		if d.ttl > 0 {
			d.expPush(t.Add(d.ttl), key)
		}
		if d.onService != nil {
			d.onService(key, t)
		}
	case rec.seal != d.seals:
		// The record is shared with snapshots: copy on write, exactly once
		// per seal epoch. (A record born this epoch carries the current
		// seal, so this never overwrites a born mark.)
		rec = rec.cloneForWrite(d.seals)
		d.services[key] = rec
		d.dirty[key] = false
	}
	rec.observe(at, peer, d.newPeer(key, rec, peer))

	// Thinned per-address activity trail (>=1-minute spacing). Appends
	// only — snapshots alias the backing array safely.
	times := d.addrTimes[key.Addr]
	if n := len(times); n == 0 || (at >= times[n-1] && at-times[n-1] >= instant(time.Minute)) {
		d.addrTimes[key.Addr] = append(times, at)
		if d.dirtyAddrs != nil {
			d.dirtyAddrs[key.Addr] = struct{}{}
		}
	}
}

// peerInline is the client count up to which a service's peers are
// deduplicated by scanning the record's peer history; past it the service
// gets an addrSet in d.peers (DESIGN.md §7 records the measurement that
// picked it). The scan is only exhaustive while the history still records
// every peer.
const peerInline = 32

const _ = uint(maxFirstPeers - peerInline) // peerInline <= maxFirstPeers

// newPeer reports whether peer is contacting the service for the first
// time, and records it in d.peers if the service has one (rec.observe
// appends it to the peer history). rec is writable here — observe has
// already cloned a sealed record — and the history is append-only, so the
// scan is safe beside snapshots aliasing the same rest array.
func (d *PassiveDiscoverer) newPeer(key ServiceKey, rec *PassiveRecord, peer netaddr.V4) bool {
	if rec.nClients > peerInline {
		return d.peers[key].add(peer)
	}
	if rec.nClients > 0 && rec.peer0 == peer {
		return false
	}
	rest := rec.restPeers()
	for i := range rest {
		if rest[i].peer == peer {
			return false
		}
	}
	if rec.nClients == peerInline {
		// One past the inline count: the service moves to a set.
		peers := new(addrSet)
		peers.add(rec.peer0)
		for i := range rest {
			peers.add(rest[i].peer)
		}
		peers.add(peer)
		d.peers[key] = peers
	}
	return true
}
