package core

import (
	"maps"
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

	// The shard's three stores, each a write layer over the last frozen
	// tree (see layers): service records (see recordLayers), activity trails
	// and tombstones.
	// owns reports whether an address is this discoverer's (an engine's
	// shard owns the addresses that route to it), which is what filters a
	// base, the merged tree of every shard, when a store is listed whole.
	records    recordLayers
	trails     layers[netaddr.V4, []Instant]
	tombstones layers[ServiceKey, time.Time]
	owns       func(netaddr.V4) bool

	// peers holds the distinct-peer identity set — the dedup behind
	// PassiveRecord.nClients — of each service with more than peerInline
	// clients. Smaller services (nearly all of them) have no entry: their
	// peer history already lists every distinct peer and is scanned instead
	// (see newPeer). The table lives here rather than in the record so
	// snapshots never carry (or copy) it: it belongs to the live, ingesting
	// side only.
	peers map[ServiceKey]*addrSet

	// scan tracking state (scandetect.go).
	track *scanTracker

	// onService, when set, is invoked for each record observe creates — the
	// first positive evidence of a service, or of a new incarnation after an
	// expiry — from the goroutine applying the packet. onExpired, when set,
	// announces each retirement retention decides (retention.go).
	// ShardedPassive wires both (and the tracker's onDetect) into the
	// engine's event stream.
	onService func(key ServiceKey, t time.Time)
	onExpired func(key ServiceKey, deadline time.Time, prov Provenance)

	// answers is the event join's active half for the keys this discoverer
	// owns (events.go): present only while a probe answer is live, empty
	// outside a hybrid engine. withdrawn lists the answers expired since the
	// last freeze, which the freeze hands to the active side's store.
	answers   map[ServiceKey]answer
	withdrawn []ServiceKey

	// Retention state (retention.go). Zero TTLs disable expiry; the heap
	// then stays empty and costs nothing. Each passive expiry leaves a
	// tombstone at its deadline (a later re-creation keeps it — it only
	// helps late federation consumers). expq is the lazy deadline min-heap
	// of both techniques.
	ttl, activeTTL time.Duration
	expq           []expEntry

	// Packets counts everything handled.
	Packets int
}

// NewPassiveDiscoverer builds a discoverer for the given campus space.
// udpPorts lists the well-known UDP service ports of interest (may be nil
// for TCP-only studies).
func NewPassiveDiscoverer(campus netaddr.Prefix, udpPorts []uint16) *PassiveDiscoverer {
	d := &PassiveDiscoverer{
		campus:   campus,
		udpPorts: make(map[uint16]bool, len(udpPorts)),
		peers:    make(map[ServiceKey]*addrSet),
		answers:  make(map[ServiceKey]answer),
		owns:     func(netaddr.V4) bool { return true },
		track:    newScanTracker(),
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

// shardDelta is what one seal hands the merge, by value: the entries that
// move each tree of the merged store from the previous seal point to this
// one, with no reference back into the discoverer's maps (noRecord is a
// service that expired and was not reborn). Records are copied in; the
// arrays they and the trails point to are shared, not copied — both are
// append-only, so what a copy or a captured slice header covers never sees
// a later write.
type shardDelta struct {
	// packets is the discoverer's cumulative packet count at the seal.
	packets int
	recs    []svcEntry
	trails  []TreeEntry[netaddr.V4, []Instant]
	tombs   []TreeEntry[ServiceKey, time.Time]
	// scanners and withdrawn are filled in by the shard freeze: detections
	// as of the seal, and the probe answers expired since the last freeze.
	scanners  []ScannerInfo
	withdrawn []ServiceKey
}

// layers is one of a shard's stores in the shape of an LSM memtable. live
// holds what the shard wrote since its last seal; sealed is the previous
// interval's live map, kept until the merge that contains it is installed;
// base is the tree of the last inventory installed into the shard — the
// merged tree of every shard, of which only the keys the shard owns are
// ever read. A lookup reads live, then sealed, then base; every write goes
// to live. So once an install has happened a shard holds only what changed
// since: a key's first touch in an interval pays one descent of base, its
// repeats a small-map probe. A discoverer nobody installs into (the
// sequential one) keeps everything in its two maps.
type layers[K TreeKey, V any] struct {
	memtable[K, V]
	base Tree[K, V]
}

// memtable is a store's two maps, live and sealed (see layers).
type memtable[K comparable, V any] struct {
	live, sealed map[K]V
}

// lookup returns k's newest value in the maps, and whether either holds k.
func (m *memtable[K, V]) lookup(k K) (V, bool) {
	if v, ok := m.live[k]; ok {
		return v, true
	}
	v, ok := m.sealed[k]
	return v, ok
}

// put writes v under k.
func (m *memtable[K, V]) put(k K, v V) {
	if m.live == nil {
		m.live = make(map[K]V)
	}
	m.live[k] = v
}

// eachMapped visits, once, every key the maps hold whose newest value keep
// passes.
func (m *memtable[K, V]) eachMapped(keep func(K, V) bool, f func(K, V)) {
	for k, v := range m.live {
		if keep(k, v) {
			f(k, v)
		}
	}
	for k, v := range m.sealed {
		if _, over := m.live[k]; !over && keep(k, v) {
			f(k, v)
		}
	}
}

// shadows reports whether the maps hold k, hiding what base holds for it.
func (m *memtable[K, V]) shadows(k K) bool {
	_, over := m.live[k]
	_, under := m.sealed[k]
	return over || under
}

// get returns k's newest value, and whether any layer holds k.
func (l *layers[K, V]) get(k K) (V, bool) {
	if v, ok := l.lookup(k); ok {
		return v, true
	}
	return l.base.Get(k)
}

// each visits, once, every key a layer holds whose newest value keep passes.
func (l *layers[K, V]) each(keep func(K, V) bool, f func(K, V)) {
	l.eachMapped(keep, f)
	l.base.Walk(nil, func(k K, v V) bool {
		if keep(k, v) && !l.shadows(k) {
			f(k, v)
		}
		return true
	})
}

// seal returns the entries of the live map — of every layer, those keep
// passes, when whole — and hands the live map over to sealed.
func (l *layers[K, V]) seal(whole bool, keep func(K, V) bool) []TreeEntry[K, V] {
	out := make([]TreeEntry[K, V], 0, len(l.live)+len(l.sealed))
	add := func(k K, v V) { out = append(out, TreeEntry[K, V]{Val: v, Key: k}) }
	if whole {
		l.each(keep, add)
	} else {
		for k, v := range l.live {
			add(k, v)
		}
	}
	l.handover(whole)
	return out
}

// handover hands the live map to sealed as it is, once a seal has listed
// it. The new live map is sized for twice the interval just sealed, unless
// that was whole (a whole interval may be the whole shard); the old one is
// never cleared for reuse, since a Go map does not shrink. With no install
// since the previous seal the interval folds into the sealed map, so
// nothing is lost.
func (m *memtable[K, V]) handover(whole bool) {
	n := len(m.live)
	if m.sealed == nil {
		m.sealed = m.live
	} else {
		maps.Copy(m.sealed, m.live)
	}
	m.live = nil
	if n > 0 && !whole {
		m.live = make(map[K]V, 2*n)
	}
}

// flush seals and installs live at once (FlushLive): ActiveDiscoverer's way.
func (l *layers[K, V]) flush(retired func(V) bool, moved func(k K, old, cur V)) {
	l.base, l.live = FlushLive(l.base, l.live, retired, moved), nil
}

// recordLayers is layers for service records, which it holds in two forms:
// the maps hold each record on the heap, so a packet updates its interval's
// record in place with one map probe, and base holds them by value (see
// mergedStore). A lookup that reaches base returns the record in its leaf,
// which observe copies before its first write. nil in the maps is a retire
// marker hiding an older incarnation below it, and noRecord in base reads
// as nil.
type recordLayers struct {
	memtable[ServiceKey, *PassiveRecord]
	base Tree[ServiceKey, PassiveRecord]
}

// get returns k's newest record, nil when there is none.
func (l *recordLayers) get(k ServiceKey) *PassiveRecord {
	if rec, ok := l.lookup(k); ok {
		return rec
	}
	if rec := l.base.Ref(k); rec != nil && rec.held() {
		return rec
	}
	return nil
}

// each visits, once, every key a layer holds whose newest record keep
// passes.
func (l *recordLayers) each(keep func(ServiceKey, *PassiveRecord) bool, f func(ServiceKey, *PassiveRecord)) {
	l.eachMapped(keep, f)
	l.base.WalkRef(nil, func(k ServiceKey, rec *PassiveRecord) bool {
		if rec.held() && keep(k, rec) && !l.shadows(k) {
			f(k, rec)
		}
		return true
	})
}

// seal is layers.seal, with each record copied into its entry (noRecord for
// a retire marker): the delta holds no record the shard writes to.
func (l *recordLayers) seal(whole bool, keep func(ServiceKey, *PassiveRecord) bool) []svcEntry {
	out := make([]svcEntry, 0, len(l.live)+len(l.sealed))
	add := func(k ServiceKey, rec *PassiveRecord) {
		e := svcEntry{Val: noRecord, Key: k}
		if rec != nil {
			e.Val = *rec
		}
		out = append(out, e)
	}
	if whole {
		l.each(keep, add)
	} else {
		for k, rec := range l.live {
			add(k, rec)
		}
	}
	l.handover(whole)
	return out
}

// service returns key's live record, nil when there is none.
func (d *PassiveDiscoverer) service(key ServiceKey) *PassiveRecord {
	return d.records.get(key)
}

// eachService visits every live record the discoverer owns, in no order.
func (d *PassiveDiscoverer) eachService(f func(ServiceKey, *PassiveRecord)) {
	d.records.each(d.ownsRecord, f)
}

func (d *PassiveDiscoverer) ownsRecord(k ServiceKey, rec *PassiveRecord) bool {
	return rec != nil && d.owns(k.Addr)
}

// seal freezes the discoverer's inventory-facing state — service records,
// activity trails, tombstones and the packet count — as of now and returns
// what changed since the previous seal: each store's live layer, which it
// then hands over to sealed (see layers). With whole set it lists every
// live record, trail and tombstone the discoverer owns instead, for a merge
// that has no previous snapshot to patch (the first one, or the first after
// a checkpoint restore). Each record is copied into the delta by value, and
// peer histories and trails are append-only, so nothing the delta holds
// sees a later write (observe copies a sealed record before its first
// post-seal write). Cost is O(entries written since the last seal), or
// O(shard) when whole.
//
// Each delta is relative to the previous seal and is handed out once, so
// every partial seal must reach the one merge that patches the snapshot
// chain: only a shard freeze on behalf of ShardedPassive.advance seals
// partially, and advance installs the merged store into the shard before the
// next. A whole seal stands alone — NewHybridInventory takes one of a
// discoverer no engine owns. The scan tracker is not part of a seal (the
// freeze captures detections beside it).
func (d *PassiveDiscoverer) seal(whole bool) shardDelta {
	return shardDelta{
		packets: d.Packets,
		recs:    d.records.seal(whole, d.ownsRecord),
		trails:  d.trails.seal(whole, func(a netaddr.V4, _ []Instant) bool { return d.owns(a) }),
		tombs:   d.tombstones.seal(whole, func(k ServiceKey, _ time.Time) bool { return d.owns(k.Addr) }),
	}
}

// install makes m's trees the base of the discoverer's stores and drops the
// sealed layers: the merge that built m contains everything sealed so far.
func (d *PassiveDiscoverer) install(m *mergedStore) {
	d.records.base, d.records.sealed = m.services, nil
	d.trails.base, d.trails.sealed = m.trails, nil
	d.tombstones.base, d.tombstones.sealed = m.tombs, nil
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
	if d.ttl > 0 || d.activeTTL > 0 {
		// The packet's own time settles the key first: an incarnation whose
		// deadline it reaches is retired and announced ahead of the fresh
		// record below, whether or not a freeze got there first.
		d.settle(key, t)
	}
	rec, owned := d.records.live[key]
	if !owned {
		rec = d.service(key)
	}
	at := ToInstant(t)
	switch {
	case rec == nil:
		rec = &PassiveRecord{first: at}
		d.records.put(key, rec)
		if d.ttl > 0 {
			d.expPush(t.Add(d.ttl), key, PassiveOnly)
		}
		if d.onService != nil {
			d.onService(key, t)
		}
	case !owned:
		// A record below the write layer is the previous interval's or the
		// merged store's: copy on write, once per seal interval. The copy is
		// flat: it shares the append-only rest array (see PassiveRecord).
		c := *rec
		rec = &c
		d.records.put(key, rec)
	}
	rec.observe(at, peer, d.newPeer(key, rec, peer))

	// Thinned per-address activity trail (>=1-minute spacing), which
	// records the firewall-confirmation heuristic's "activity observed
	// during an active scan" (Section 4.2.4 method 2). Appends only —
	// snapshots alias the backing array safely.
	times, _ := d.trails.get(key.Addr)
	if n := len(times); n == 0 || (at >= times[n-1] && at-times[n-1] >= Instant(time.Minute)) {
		d.trails.put(key.Addr, append(times, at))
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
// already copied a sealed record — and the history is append-only, so the
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
