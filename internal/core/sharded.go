package core

import (
	"context"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"servdisc/internal/netaddr"
	"servdisc/internal/obs"
	"servdisc/internal/packet"
	"servdisc/internal/pipeline"
)

// EngineMetrics is the telemetry bundle a ShardedPassive reports into.
// Every field is optional (nil histograms and recorders are no-ops);
// the bundle itself may be nil, which skips the clock reads entirely so
// an uninstrumented engine pays nothing.
type EngineMetrics struct {
	// Dispatch observes the partition+scatter time of each HandleBatch
	// call (inline mode also includes the shard applies).
	Dispatch *obs.Histogram
	// Apply observes per-sub-batch shard apply time on the workers.
	Apply *obs.Histogram
	// Snapshot observes the freeze+merge time of each snapshot actually
	// built (the zero-churn cache fast path is deliberately untimed — it
	// must stay allocation- and work-free).
	Snapshot *obs.Histogram
	// Flight receives batch-dispatched (sampled 1/obs.BatchSample),
	// snapshot-sealed and expiry-sweep trace events.
	Flight *obs.Recorder
}

// ShardedPassive partitions passive discovery across N worker-owned
// PassiveDiscoverer shards, so ingest scales with cores while the merged
// result stays byte-for-byte identical to a single-threaded run.
//
// Every packet the discoverer cares about touches state keyed by exactly
// one address — the "owner":
//
//   - a SYN-ACK (or a server-sourced UDP datagram) updates the service
//     record of its campus source;
//   - an inbound SYN updates the scan tracker of its external source;
//   - an outbound RST updates the scan tracker of its external destination.
//
// Routing each packet to hash(owner) therefore confines all mutable state
// for any address to a single shard: shard maps are disjoint by
// construction and a snapshot's merge is a plain union of their seals, no
// conflict resolution needed (see mergeViews).
// The one piece of cross-shard state — the scan detector's tumbling-window
// origin, which a lone discoverer picks lazily from the first scan-relevant
// packet — is seeded identically into every shard by the dispatcher
// (shard-then-merge determinism).
//
// Lifecycle mirrors the pipeline runner: before Run, HandleBatch processes
// sub-batches inline on the caller's goroutine (deterministic, zero
// goroutines); after Run(ctx), sub-batches go to per-shard queues drained
// by worker goroutines that own their shard exclusively. Flush waits for
// the queues to drain; Close shuts the workers down.
//
// Snapshot is non-terminal and safe to call at any point, including while
// workers are ingesting: it freezes a consistent point-in-time Inventory
// without stopping the producer (see Snapshot). The engine also publishes
// a typed event stream — Subscribe delivers ServiceDiscovered and
// ScannerDetected events as the shards learn them.
type ShardedPassive struct {
	campus netaddr.Prefix
	shards []*passiveShard

	// scratch holds per-shard sub-batches during partitioning.
	scratch [][]packet.Packet

	// originSeeded flips once the first scan-relevant packet fixes every
	// shard's detection-window origin, origin. Guarded by dispatchMu.
	originSeeded bool
	origin       time.Time

	// events is the engine's typed discovery event stream; every shard's
	// discovery and detection hooks publish into it.
	events *eventStream

	// dispatchMu serializes batch dispatch (partition + enqueue/apply)
	// against snapshot-point insertion, so a snapshot never lands in the
	// middle of one batch's scatter across the shard queues: every batch
	// is entirely before or entirely after the snapshot point.
	dispatchMu sync.Mutex

	// snapMu serializes whole snapshots (freeze + merge + cache) against
	// each other. A shard's seal delta is relative to its previous seal and
	// is handed out once, so every freeze must be consumed by exactly one
	// merge, onto the snapshot the previous merge built: snapMu spans freeze
	// and merge (see advance).
	snapMu sync.Mutex

	// onSnap, when set, observes every snapshot built, with its delta (see
	// OnSnapshot). Guarded by snapMu.
	onSnap func(prev, inv *Inventory, delta SnapshotDelta)

	// overlay is the active side a Hybrid lays over the snapshot chain: set
	// once by NewHybrid before anything runs, nil on a passive-only engine,
	// whose inventories then carry no provenance beyond PassiveOnly.
	overlay activeSide

	// dispatched counts batch dispatches that reached any shard and agen the
	// overlay's changes (reports applied, active expiries, a restore; its
	// owner bumps it, and it stays 0 without one). The cached Inventory
	// remembers the pair it froze at; while both are unchanged, Snapshot
	// returns the cache without touching the shards at all — the zero-churn
	// fast path.
	dispatched atomic.Uint64
	agen       atomic.Uint64

	// Retention (retention.go). watermark is the maximum packet timestamp
	// ever dispatched — the observation clock expiry deadlines are
	// measured against. Maintained (under dispatchMu) only while retention
	// is on, so the partition loop stays branch-cheap when it is off.
	retention   RetentionPolicy
	retentionOn bool
	watermark   time.Time

	mu       sync.RWMutex
	running  bool
	closed   bool
	ctx      context.Context
	queues   []chan shardMsg
	workers  sync.WaitGroup
	inflight sync.WaitGroup

	// batchPool recycles the worker-queue copies of dispatched sub-batches.
	batchPool sync.Pool

	// snap holds the newest Inventory of the snapshot chain: the answer while
	// the engine is unchanged, and the base the next merge patches.
	snap snapCache

	// counters: In = packets offered, Out = packets dispatched to shards.
	counters pipeline.StageCounters

	// met is the optional telemetry bundle (see SetMetrics).
	met *EngineMetrics
}

// snapCache holds the newest Inventory of a snapshot chain together with
// the engine fingerprint it was frozen at. Safe for concurrent snapshotters.
type snapCache struct {
	mu  sync.Mutex
	inv *Inventory
	// dispatched and agen fingerprint the engine state the inventory froze
	// at: while no batch has been dispatched and no report applied since,
	// it is trivially current.
	dispatched uint64
	agen       uint64
}

// fast returns the cached Inventory when the engine fingerprint is
// unchanged — the zero-churn path, no shard traffic, no allocation.
func (c *snapCache) fast(dispatched, agen uint64) *Inventory {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.inv != nil && c.dispatched == dispatched && c.agen == agen {
		return c.inv
	}
	return nil
}

// peek returns the cached Inventory (nil when there is none) and its
// fingerprint.
func (c *snapCache) peek() (inv *Inventory, dispatched, agen uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inv, c.dispatched, c.agen
}

func (c *snapCache) put(inv *Inventory, dispatched, agen uint64) {
	c.mu.Lock()
	c.inv, c.dispatched, c.agen = inv, dispatched, agen
	c.mu.Unlock()
}

// invalidate drops the cached Inventory — checkpoint restore mutates
// shard state without moving the dispatch fingerprint, so any inventory
// frozen before the import must not be served after it, nor patched.
func (c *snapCache) invalidate() {
	c.mu.Lock()
	c.inv = nil
	c.mu.Unlock()
}

// passiveShard is one worker-owned shard: the discoverer and the active half
// of the event join for the keys it owns (events.go). The discoverer is
// touched only by the shard's owner — the worker goroutine while running,
// the dispatcher (under dispatchMu) inline and after shutdown — and by the
// install after each merge (advance), which it shares the merged store with.
type passiveShard struct {
	// mu is held across every write to the discoverer's stores and to
	// activeFirst — apply, a freeze, the install after a merge, checkpoint
	// import and the report reconciler's join calls — and across the
	// ServiceDiscovered or ProvenanceUpgraded each of them publishes. The
	// owner reads the stores without it; the reconciler reads under it.
	mu   sync.Mutex
	disc *PassiveDiscoverer
	// activeFirst holds the first-open time of every key of this shard with
	// a live probe answer, and nothing else: empty in a passive-only engine.
	activeFirst map[ServiceKey]instant
	events      *eventStream
}

// apply ingests one sub-batch.
func (sh *passiveShard) apply(batch []packet.Packet) {
	sh.mu.Lock()
	sh.disc.HandleBatch(batch)
	sh.mu.Unlock()
}

// freeze seals the shard at a snapshot point and returns the delta since
// its previous freeze (the whole shard when the merge has nothing to
// patch), plus the scanner detections and pending expiry notices as of the
// freeze. wm is the engine watermark at the snapshot point: deadlines at or
// before it expire first, so the seal reports them. Shard state is disjoint
// by owner address, so per-shard detection results concatenate into exactly
// the merged tracker's output.
func (sh *passiveShard) freeze(wm time.Time, whole bool) shardDelta {
	sh.mu.Lock()
	sh.disc.expireDue(wm)
	delta := sh.disc.seal(whole)
	sh.mu.Unlock()
	delta.scanners = sh.disc.track.detect()
	delta.expired, sh.disc.pendingExpired = sh.disc.pendingExpired, nil
	return delta
}

// shardMsg is one entry of a shard queue: a sub-batch to apply (batch
// points into a pooled buffer the worker recycles) or a boundary marker to
// run (see atBoundary); exactly one field is set.
type shardMsg struct {
	batch *[]packet.Packet
	at    func()
}

// activeSide is what a Hybrid lays over the snapshot chain, as the chain
// calls it: advance asks for the active expiries due at a freeze's watermark
// and then for the frozen active view, checkpoint export for the view,
// import for its inverse. *Hybrid is the implementation; it is an interface
// so that a test can stand between a freeze and the publication of its
// expiries, which is where expireActive runs.
type activeSide interface {
	expireActive(wm time.Time) []expiredSvc
	activeSnapshot() *activeView
	importActiveState(as *ActiveState)
}

// NewShardedPassive builds a discoverer sharded n ways (n < 1 is treated
// as 1). campus and udpPorts are as in NewPassiveDiscoverer.
func NewShardedPassive(campus netaddr.Prefix, udpPorts []uint16, n int) *ShardedPassive {
	if n < 1 {
		n = 1
	}
	s := &ShardedPassive{
		campus:  campus,
		shards:  make([]*passiveShard, n),
		scratch: make([][]packet.Packet, n),
		events:  newEventStream(),
	}
	for i := range s.shards {
		d := NewPassiveDiscoverer(campus, udpPorts)
		d.owns = func(a netaddr.V4) bool { return s.shardOf(a) == i }
		sh := &passiveShard{disc: d, activeFirst: make(map[ServiceKey]instant), events: s.events}
		d.onService = sh.passiveDiscovered
		d.track.onDetect = s.events.scannerDetected
		s.shards[i] = sh
	}
	return s
}

// SetRetention configures TTL expiry, seeding deadlines for anything the
// shards already hold (so it composes with checkpoint restore in either
// order). Call before Run and before ingest begins.
func (s *ShardedPassive) SetRetention(p RetentionPolicy) {
	s.dispatchMu.Lock()
	defer s.dispatchMu.Unlock()
	s.retention = p
	s.retentionOn = p.Enabled()
	for _, sh := range s.shards {
		sh.disc.setRetention(p.PassiveTTL)
	}
}

// NumShards returns the shard count.
func (s *ShardedPassive) NumShards() int { return len(s.shards) }

// Counters exposes ingest counters (safe for concurrent readers).
func (s *ShardedPassive) Counters() *pipeline.StageCounters { return &s.counters }

// EventCounters exposes the event stream's flow counters (published /
// delivered / dropped), safe for concurrent readers.
func (s *ShardedPassive) EventCounters() *pipeline.StageCounters { return s.events.hub.Counters() }

// Subscribe attaches a bounded subscriber to the engine's discovery event
// stream (buffer capacity buf). Events that do not fit the buffer are
// dropped for that subscriber and counted — a slow consumer loses events,
// it never stalls ingest. The channel closes when the engine closes or the
// subscription is cancelled.
func (s *ShardedPassive) Subscribe(buf int) *EventSub { return s.events.hub.Subscribe(buf) }

// SubscribeFiltered is Subscribe with a predicate pushed down into the
// hub's publish path: events keep rejects are never delivered and never
// consume the subscriber's drop budget, so a consumer watching one port
// does not pay for the whole stream. keep runs on publishing goroutines —
// it must be fast and safe for concurrent calls.
func (s *ShardedPassive) SubscribeFiltered(buf int, keep func(Event) bool) *EventSub {
	return s.events.hub.SubscribeFunc(buf, keep)
}

// ownerAddr returns the address whose state the packet would mutate; for
// packets the discoverer ignores it falls back to the source, which keeps
// routing deterministic without affecting results.
func (s *ShardedPassive) ownerAddr(p *packet.Packet) netaddr.V4 {
	// Mirrors the case order of PassiveDiscoverer.handleTCP exactly.
	if p.Has(packet.LayerTypeTCP) {
		fl := p.TCP.Flags
		switch {
		case fl.Has(packet.FlagSYN | packet.FlagACK):
			return p.IPv4.Src // service record of the campus source
		case fl.Has(packet.FlagSYN):
			return p.IPv4.Src // scan state of the external source
		case fl.Has(packet.FlagRST):
			return p.IPv4.Dst // scan state of the external destination
		}
	}
	return p.IPv4.Src // UDP service records key on the source too
}

// scanRelevant mirrors PassiveDiscoverer.handleTCP's tracker-touching
// cases: the first such packet in the stream fixes the detection-window
// origin.
func (s *ShardedPassive) scanRelevant(p *packet.Packet) bool {
	if !p.Has(packet.LayerTypeTCP) {
		return false
	}
	fl := p.TCP.Flags
	srcIn := s.campus.Contains(p.IPv4.Src)
	dstIn := s.campus.Contains(p.IPv4.Dst)
	switch {
	case fl.Has(packet.FlagSYN | packet.FlagACK):
		return false
	case fl.Has(packet.FlagSYN):
		return dstIn && !srcIn
	case fl.Has(packet.FlagRST):
		return srcIn && !dstIn
	}
	return false
}

// owner returns the shard that holds key's record and join state.
func (s *ShardedPassive) owner(key ServiceKey) *passiveShard {
	return s.shards[s.shardOf(key.Addr)]
}

// shardOf hashes the owner address to a shard.
func (s *ShardedPassive) shardOf(addr netaddr.V4) int {
	h := uint32(addr)
	h ^= h >> 16
	h *= 0x7FEB352D
	h ^= h >> 15
	h *= 0x846CA68B
	h ^= h >> 16
	return int(h % uint32(len(s.shards)))
}

// SetMetrics attaches the telemetry bundle. Call before any traffic or
// snapshots flow (it is read without synchronization on the hot paths);
// nil detaches. Typically wired by the facade, not called directly.
func (s *ShardedPassive) SetMetrics(m *EngineMetrics) { s.met = m }

// seedOrigins pins every shard's scan-window origin to t.
func (s *ShardedPassive) seedOrigins(t time.Time) {
	for _, sh := range s.shards {
		sh.disc.seedScanOrigin(t)
	}
	s.origin, s.originSeeded = t, true
}

// HandleBatch implements pipeline.BatchSink. Partitioning runs on the
// caller's goroutine; shard processing runs inline (before Run) or on the
// shard's worker (after Run). A single producer at a time; Snapshot (and
// only Snapshot) may run concurrently with the producer.
func (s *ShardedPassive) HandleBatch(batch []packet.Packet) {
	if len(batch) == 0 {
		return
	}
	s.counters.AddIn(len(batch))
	var t0 time.Time
	if s.met != nil {
		t0 = time.Now()
	}

	s.dispatchMu.Lock()
	defer s.dispatchMu.Unlock()
	for i := range s.scratch {
		s.scratch[i] = s.scratch[i][:0]
	}
	for i := range batch {
		p := &batch[i]
		if !s.originSeeded && s.scanRelevant(p) {
			s.seedOrigins(p.Timestamp)
		}
		if s.retentionOn && p.Timestamp.After(s.watermark) {
			s.watermark = p.Timestamp
		}
		idx := s.shardOf(s.ownerAddr(p))
		s.scratch[idx] = append(s.scratch[idx], *p)
	}

	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		s.counters.AddDropped(len(batch))
		return
	}
	d := s.dispatched.Add(1)
	for idx, sub := range s.scratch {
		if len(sub) == 0 {
			continue
		}
		s.counters.AddOut(len(sub))
		if !s.running {
			s.shards[idx].apply(sub)
			continue
		}
		cp := s.getBatchBuf(len(sub))
		copy(*cp, sub)
		s.inflight.Add(1)
		s.queues[idx] <- shardMsg{batch: cp}
	}
	if m := s.met; m != nil {
		m.Dispatch.Observe(time.Since(t0))
		if d%obs.BatchSample == 0 {
			m.Flight.Record(obs.TraceBatchDispatched, "", int64(len(batch)), int64(d))
		}
	}
}

// getBatchBuf takes a sub-batch copy buffer from the pool (workers return
// theirs after applying), trimming ingest-path allocations to the rare
// capacity misses. The pool holds pointers so Put never boxes a header.
func (s *ShardedPassive) getBatchBuf(n int) *[]packet.Packet {
	if v := s.batchPool.Get(); v != nil {
		if bp := v.(*[]packet.Packet); cap(*bp) >= n {
			*bp = (*bp)[:n]
			return bp
		}
	}
	buf := make([]packet.Packet, n, max(n, pipeline.DefaultBatchSize))
	return &buf
}

// Run starts one worker goroutine per shard. The context is an abort
// lever, not a graceful stop: after cancellation, queued sub-batches are
// drained without being applied (so Flush and Close never deadlock), and
// because each worker observes cancellation independently the shard state
// no longer corresponds to any prefix of the input — treat the run as
// abandoned and discard its results. For a clean shutdown, stop producing
// and call Close. No-op when already running or closed.
func (s *ShardedPassive) Run(ctx context.Context) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.running || s.closed {
		return
	}
	s.running = true
	s.ctx = ctx
	s.queues = make([]chan shardMsg, len(s.shards))
	for i := range s.shards {
		q := make(chan shardMsg, 64)
		s.queues[i] = q
		sh := s.shards[i]
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			for msg := range q {
				if msg.at != nil {
					// Boundary marker: everything enqueued before it has
					// been applied, so it sees exactly the shard's state at
					// the marker's dispatch point, and sees it race-free.
					msg.at()
					continue
				}
				if s.ctx.Err() == nil {
					if m := s.met; m != nil {
						t := time.Now()
						sh.apply(*msg.batch)
						m.Apply.Observe(time.Since(t))
					} else {
						sh.apply(*msg.batch)
					}
				}
				s.batchPool.Put(msg.batch)
				s.inflight.Done()
			}
		}()
	}
}

// Flush blocks until every sub-batch enqueued before the call has been
// applied to its shard. Synchronous mode: no-op. Flush must not race with
// a concurrent producer (Snapshot needs no Flush and has no such
// restriction).
func (s *ShardedPassive) Flush() { s.inflight.Wait() }

// Close flushes and stops the workers, then closes the event stream (so
// subscriber channels end); idempotent. After Close the discoverer is
// read-only: further HandleBatch calls are dropped, Snapshot keeps
// working.
func (s *ShardedPassive) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	running, queues := s.running, s.queues
	s.mu.Unlock()
	if running {
		for _, q := range queues {
			close(q)
		}
		s.workers.Wait()
	}
	s.events.close()
}

// atBoundary runs f(i, shard i) for every shard on the shard's owner, all
// at one whole-batch boundary of the producer's stream — the one way to reach
// a consistent cut of the engine, behind snapshots and checkpoint exports
// alike. While workers run, a marker is enqueued on every shard queue under
// the dispatch lock — atomically with respect to batch scatter, so the
// boundary falls exactly between two whole batches — and each worker runs f
// after applying everything enqueued before its marker; atBoundary returns
// when all have. Inline (or after Close) f runs directly under the dispatch
// lock. prep runs first, under the dispatch lock: it reads whatever must be
// exact at the boundary (the dispatch count, the watermark) and may return
// false to leave the shards alone.
func (s *ShardedPassive) atBoundary(prep func() bool, f func(i int, sh *passiveShard)) {
	s.dispatchMu.Lock()
	if !prep() {
		s.dispatchMu.Unlock()
		return
	}
	s.mu.RLock()
	if s.running && !s.closed {
		var done sync.WaitGroup
		done.Add(len(s.shards))
		for i, sh := range s.shards {
			s.queues[i] <- shardMsg{at: func() { f(i, sh); done.Done() }}
		}
		s.mu.RUnlock()
		s.dispatchMu.Unlock()
		done.Wait()
		return
	}
	s.mu.RUnlock()
	// Inline, or shut down. If workers ever ran, wait for their exit so
	// their final writes are visible here (Close already waits; this
	// covers a boundary racing Close).
	s.workers.Wait()
	for i, sh := range s.shards {
		f(i, sh)
	}
	s.dispatchMu.Unlock()
}

// freezeHook is what a checkpoint export hangs on a freeze: pin runs under
// the dispatch lock at the boundary, shard on shard i's owner right after its
// seal (with its delta, empty when no shard was sealed), when the shard's live
// state is exactly what the new inventory holds of it.
type freezeHook struct {
	pin   func()
	shard func(i int, sh *passiveShard, sd shardDelta)
}

// freezeShards seals every shard at one boundary and returns the shard
// deltas, the dispatch count at that point (the cache fingerprint) and the
// watermark. With whole unset and nothing dispatched since the count given,
// no shard is sealed and the deltas are nil; the boundary is then crossed
// only for hook. Callers must hold snapMu.
func (s *ShardedPassive) freezeShards(whole bool, since uint64, hook *freezeHook) (deltas []shardDelta, d0 uint64, wm time.Time) {
	s.atBoundary(func() bool {
		d0, wm = s.dispatched.Load(), s.watermark
		if whole || d0 != since {
			deltas = make([]shardDelta, len(s.shards))
		}
		if hook != nil {
			hook.pin()
		}
		return deltas != nil || hook != nil
	}, func(i int, sh *passiveShard) {
		var sd shardDelta
		if deltas != nil {
			deltas[i] = sh.freeze(wm, whole)
			sd = deltas[i]
		}
		if hook != nil {
			hook.shard(i, sh, sd)
		}
	})
	return deltas, d0, wm
}

// mergeViews builds the merged store for one snapshot point from the shard
// deltas alone: it patches base — the store the previous merge built — with
// exactly the records, trails and tombstones the deltas carry, as one
// path-copying Patch per tree, and combines the scanner lists (shard
// detections are disjoint by source, so concatenation + sort reproduces the
// merged tracker's output). A dead record whose key a probe of active (nil
// for a passive-only engine) still answers for stays, as a probe-only entry.
// With no base the deltas are whole shards — disjoint by owner address,
// nothing dead — and the trees are built bottom-up from them, with active's
// probe-only entries; the returned delta is then Full and lists nothing.
// Otherwise Added names the services that appeared or were reborn since base
// (a probe-only one passive monitoring now sees included; a record beside a
// tombstone of the same delta came back after expiring in the interval),
// Updated those whose record was touched but persisted (re-observations —
// LastSeen, flows or client counts moved — and records expired under a probe
// answer) and Removed those that left, all three in key order and mutually
// disjoint: a shard lists each key once.
func mergeViews(base *mergedStore, deltas []shardDelta, active *ActiveDiscoverer) (*mergedStore, []ScannerInfo, SnapshotDelta) {
	d := SnapshotDelta{Full: base == nil}
	m := &mergedStore{}
	var scanners []ScannerInfo
	var recs []svcEntry
	var trails []TreeEntry[netaddr.V4, []instant]
	var tombs []TreeEntry[ServiceKey, time.Time]
	for i := range deltas {
		sd := &deltas[i]
		m.packets += sd.packets
		scanners = append(scanners, sd.scanners...)
		recs, trails, tombs = append(recs, sd.recs...), append(trails, sd.trails...), append(tombs, sd.tombs...)
	}
	sort.Slice(scanners, func(i, j int) bool { return scanners[i].Source < scanners[j].Source })
	recs, trails, tombs = sortEntries(recs), sortEntries(trails), sortEntries(tombs)
	if d.Full {
		m.services = BuildTree(withProbed(recs, active))
		m.trails, m.tombs = BuildTree(trails), BuildTree(tombs)
		return m, scanners, d
	}
	// A record beside its key's tombstone came back after expiring.
	reborn := func(k ServiceKey) bool {
		_, found := slices.BinarySearchFunc(tombs, k, func(e TreeEntry[ServiceKey, time.Time], k ServiceKey) int { return e.Key.Compare(k) })
		return found
	}
	edits := make([]TreeEdit[ServiceKey, *PassiveRecord], len(recs))
	for i, r := range recs {
		probed := false
		if r.Val == nil && active != nil {
			_, probed = active.firstOpen[r.Key]
		}
		edits[i] = TreeEdit[ServiceKey, *PassiveRecord]{Key: r.Key, Val: r.Val, Del: r.Val == nil && !probed}
	}
	m.services = base.services.Patch(edits, func(i int, old *PassiveRecord, had bool) {
		switch r := recs[i]; {
		case edits[i].Del:
			if had {
				d.Removed = append(d.Removed, r.Key)
			}
		case r.Val == nil: // expired, but a probe still answers: downgraded, not removed
			if old != nil {
				d.Updated = append(d.Updated, r.Key)
			}
		case old == nil || reborn(r.Key):
			d.Added = append(d.Added, r.Key)
		default:
			d.Updated = append(d.Updated, r.Key)
		}
	})
	m.trails = base.trails.Patch(upserts(trails), nil)
	m.tombs = base.tombs.Patch(upserts(tombs), nil)
	return m, scanners, d
}

// upserts lists sorted entries as the edits that store them.
func upserts[K TreeKey, V any](ents []TreeEntry[K, V]) []TreeEdit[K, V] {
	edits := make([]TreeEdit[K, V], len(ents))
	for i, e := range ents {
		edits[i] = TreeEdit[K, V]{Key: e.Key, Val: e.Val}
	}
	return edits
}

// SnapshotDelta describes how one published snapshot differs from its
// predecessor — the O(churn) changed-key sets a snapshot observer needs
// to patch derived state (secondary indexes, caches) forward without
// rescanning the inventory. Added, Updated and Removed are sorted in
// canonical key order and mutually disjoint; a reborn service (expired
// and re-observed within one span) is Added, an expired key that
// survives on active evidence is Updated (its provenance downgraded).
// Full set means no delta could be derived (first snapshot, restore, or an
// active-side change — a report, an active expiry — that reclassifies
// everything) — consumers must rebuild from the new inventory.
type SnapshotDelta struct {
	Added   []ServiceKey
	Updated []ServiceKey
	Removed []ServiceKey
	Full    bool
}

// OnSnapshot registers fn to observe every snapshot newly built: it runs
// under the snapshot lock, after the new inventory is cached, with the
// previous inventory of the chain (nil on the first and after a restore),
// the new one, and the delta between them. Cache hits (snapshots of an
// unchanged engine) do not invoke it. There is one chain per engine and fn
// sees every link of it, so a non-Full delta is always relative to the
// inventory fn was handed last. Because fn blocks the snapshot path, it must
// be fast — O(delta) work, no waiting on queries. At most one observer; nil
// clears.
func (s *ShardedPassive) OnSnapshot(fn func(prev, inv *Inventory, delta SnapshotDelta)) {
	s.snapMu.Lock()
	s.onSnap = fn
	s.snapMu.Unlock()
}

// advance moves the snapshot chain to a new consistent point: it is the one
// place shards are frozen and merged. It freezes every shard, runs the
// overlay's active expiry at the same watermark, publishes both sides'
// expiries in one deterministic (time, key) order, freezes the overlay's
// active view — after its expiry, so the view and its generation reflect the
// deletions — patches the previous inventory's store forward with the shard
// deltas, and caches the new inventory under the fingerprint (dispatch
// count, active generation) it froze at. prev is the chain's inventory
// before the call (nil on the first snapshot and after a restore, when the
// shards are merged whole) and delta how inv differs from it.
//
// With an overlay the inventory is hybrid: its services tree is the union of
// both sides. While the active generation stands, that tree is patched like
// a passive one, except that an expired key a probe still answers for stays
// in it as a probe-only entry — an update, not a removal. When the
// generation moved, every classification may have: the probe-only entries
// are redrawn over the whole store and the delta is Full. With nothing
// dispatched and no generation moved since prev, advance returns inv == prev
// and an empty delta. hook, if any, rides the freeze (freezeShards). Callers
// hold snapMu.
func (s *ShardedPassive) advance(hook *freezeHook) (prev, inv *Inventory, delta SnapshotDelta) {
	prev, since, agen := s.snap.peek()
	deltas, d0, wm := s.freezeShards(prev == nil, since, hook)
	var exp []expiredSvc
	for i := range deltas {
		exp = append(exp, deltas[i].expired...)
	}
	if s.overlay != nil {
		exp = append(exp, s.overlay.expireActive(wm)...)
	}
	if len(exp) > 0 {
		sortExpired(exp)
		for _, e := range exp {
			s.events.serviceExpired(e.key, e.at, e.prov)
		}
		if m := s.met; m != nil {
			m.Flight.Record(obs.TraceExpirySweep, "", int64(len(exp)), 0)
		}
	}
	var m *mergedStore
	var scanners []ScannerInfo
	if prev != nil {
		m, scanners = prev.d, prev.scanners
	}
	var active *ActiveDiscoverer
	reprobe := false
	if s.overlay != nil {
		av := s.overlay.activeSnapshot()
		active = av.disc
		if av.gen != agen {
			agen, reprobe = av.gen, true
		}
	}
	if deltas == nil && !reprobe {
		return prev, prev, SnapshotDelta{}
	}
	if deltas != nil { // else only the active side moved: same passive state, same scanners
		m, scanners, delta = mergeViews(m, deltas, active)
	}
	if reprobe && !delta.Full {
		m, delta = m.reprobed(active), SnapshotDelta{Full: true}
	}
	inv = &Inventory{d: m, active: active, scanners: scanners}
	if deltas != nil {
		for _, sh := range s.shards {
			sh.mu.Lock()
			sh.disc.install(m)
			sh.mu.Unlock()
		}
	}
	s.snap.put(inv, d0, agen)
	return prev, inv, delta
}

// Snapshot freezes a consistent point-in-time Inventory. It is
// non-terminal and cheap to repeat: with nothing dispatched (and, under a
// Hybrid, no report applied) since the previous snapshot the cached
// Inventory is returned outright (no shard traffic, no allocation);
// otherwise every shard seals only the records touched since its last
// freeze, and the merged inventory is patched forward from the previous
// snapshot rather than rebuilt. On a running engine the snapshot point is a
// batch boundary of the producer's stream (everything dispatched before the
// call is included), and the result is byte-identical to pausing the
// producer, flushing, and snapshotting at that point. Safe to call from any
// goroutine at any lifecycle stage.
func (s *ShardedPassive) Snapshot() *Inventory {
	if inv := s.snap.fast(s.dispatched.Load(), s.agen.Load()); inv != nil {
		return inv
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	return s.snapshot(nil)
}

// snapshot is Snapshot past its fast path, shared with ExportDelta, which
// hangs hook on the freeze. Callers hold snapMu.
func (s *ShardedPassive) snapshot(hook *freezeHook) *Inventory {
	var t0 time.Time
	if s.met != nil {
		t0 = time.Now()
	}
	prev, inv, delta := s.advance(hook)
	if inv == prev {
		return inv // nothing moved: another snapshotter got here first
	}
	if s.onSnap != nil {
		s.onSnap(prev, inv, delta)
	}
	if m := s.met; m != nil {
		el := time.Since(t0)
		m.Snapshot.Observe(el)
		m.Flight.Record(obs.TraceSnapshotSealed, "", int64(inv.Len()), el.Microseconds())
	}
	return inv
}

var (
	_ pipeline.BatchSink = (*ShardedPassive)(nil)
)
