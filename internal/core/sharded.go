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
	// Flight receives batch-dispatched (sampled 1/obs.BatchSample) and
	// snapshot-sealed trace events.
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
// the queues to drain; Close shuts the workers down. A scan report (under
// NewHybrid, see hybrid.go) applies on its caller's goroutine either way.
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

	// active is the engine's active side (hybrid.go): set once by NewHybrid
	// before anything runs, nil on a passive-only engine, whose inventories
	// then carry no provenance beyond PassiveOnly. amu guards it: reports
	// write under it, snapshots retire lapsed answers and flush under it
	// (freezeActive), a checkpoint import replaces it under it. amu is taken
	// before any shard's mu. seenReports flips once any report is accepted,
	// so consumers can tell a hybrid run from a passive-only one without
	// locking.
	amu         sync.Mutex
	active      *ActiveDiscoverer
	seenReports atomic.Bool

	// dispatched counts what moved the engine: batch dispatches that reached
	// any shard, and reports applied to the active side. The
	// cached Inventory remembers the count it froze at; while that is
	// unchanged, Snapshot returns the cache without touching the shards at
	// all — the zero-churn fast path. batches counts the dispatches alone,
	// numbering them for the flight trace (under dispatchMu).
	dispatched atomic.Uint64
	batches    int64

	// Retention (retention.go). watermark is the maximum packet timestamp
	// ever dispatched — the observation clock expiry deadlines are
	// measured against. Maintained (under dispatchMu) only while retention
	// is on, so the partition loop stays branch-cheap when it is off; clock
	// is its copy (an Instant) for reports, which settle without that lock.
	retention   RetentionPolicy
	retentionOn bool
	watermark   time.Time
	clock       atomic.Uint64

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
	// dispatched fingerprints the engine state the inventory froze at:
	// while no batch has been dispatched and no report applied since, it is
	// trivially current.
	dispatched uint64
}

// fast returns the cached Inventory when the engine fingerprint is
// unchanged — the zero-churn path, no shard traffic, no allocation.
func (c *snapCache) fast(dispatched uint64) *Inventory {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.inv != nil && c.dispatched == dispatched {
		return c.inv
	}
	return nil
}

// peek returns the cached Inventory (nil when there is none) and its
// fingerprint.
func (c *snapCache) peek() (inv *Inventory, dispatched uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inv, c.dispatched
}

func (c *snapCache) put(inv *Inventory, dispatched uint64) {
	c.mu.Lock()
	c.inv, c.dispatched = inv, dispatched
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

// passiveShard is one worker-owned shard: the discoverer, which also holds
// the active half of the event join for the keys it owns (events.go). It is
// touched by the shard's owner (the worker goroutine while running, the
// dispatcher under dispatchMu inline and after shutdown), by the install
// after each merge (advance), which it shares the merged store with, and by
// a report's join calls for the keys it owns.
type passiveShard struct {
	// mu is held across every access to the discoverer's stores and join
	// entries — apply, a freeze and the export hook riding it, the install
	// after a merge, checkpoint import, SetRetention and a report's join
	// calls, whose settle writes the stores too — and across the service
	// events each of them publishes.
	mu     sync.Mutex
	disc   *PassiveDiscoverer
	events *eventStream
}

// apply ingests one sub-batch.
func (sh *passiveShard) apply(batch []packet.Packet) {
	sh.mu.Lock()
	sh.disc.HandleBatch(batch)
	sh.mu.Unlock()
}

// freeze seals the shard at a snapshot point and returns the delta since
// its previous freeze (the whole shard when the merge has nothing to
// patch), plus the scanner detections as of the freeze and the probe
// answers expired since the last. wm is the engine watermark at the
// snapshot point: every incarnation due at it is retired and announced
// first, so the seal reports it. Shard state is disjoint by owner address,
// so per-shard detection results concatenate into exactly the merged
// tracker's output. The caller holds sh.mu.
func (sh *passiveShard) freeze(wm time.Time, whole bool) shardDelta {
	sh.disc.expireDue(wm)
	delta := sh.disc.seal(whole)
	delta.withdrawn, sh.disc.withdrawn = sh.disc.withdrawn, nil
	delta.scanners = sh.disc.track.detect()
	return delta
}

// shardMsg is one entry of a shard queue: a sub-batch to apply (batch
// points into a pooled buffer the worker recycles) or a boundary marker to
// run (see atBoundary); exactly one field is set.
type shardMsg struct {
	batch *[]packet.Packet
	at    func()
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
		sh := &passiveShard{disc: d, events: s.events}
		d.onService = sh.passiveDiscovered
		d.onExpired = s.events.serviceExpired
		d.track.onDetect = s.events.scannerDetected
		s.shards[i] = sh
	}
	return s
}

// SetRetention configures TTL expiry, seeding deadlines for anything the
// shards already hold (so it composes with checkpoint restore in either
// order). The active side expires against the passive observation
// watermark, so active retention needs passive traffic to advance the
// clock. Call before Run and before ingest begins.
func (s *ShardedPassive) SetRetention(p RetentionPolicy) {
	s.dispatchMu.Lock()
	defer s.dispatchMu.Unlock()
	s.retention = p
	s.retentionOn = p.Enabled()
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.disc.setRetention(p)
		sh.mu.Unlock()
	}
	if s.active != nil {
		s.amu.Lock()
		s.active.ttl = p.ActiveTTL
		s.amu.Unlock()
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

// SubscribeSync attaches a synchronous subscriber to the same stream: fn
// runs on the publishing goroutine for every event, under whatever lock
// the publisher holds (a shard's, the active side's), so it
// misses none and must never block or call back into the engine (see
// pipeline.Hub.SubscribeSync).
func (s *ShardedPassive) SubscribeSync(fn func(Event)) *EventSub {
	return s.events.hub.SubscribeSync(fn)
}

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
//
// After Run a shard whose worker falls behind pushes back: once its queue
// holds shardQueueDepth sub-batches, HandleBatch blocks until the worker
// takes one, holding the dispatch lock, so a snapshot waits too. Nothing
// is dropped (Counters().Dropped() counts only packets offered after
// Close). The queued copies bound what a stall can pin: 64 sub-batches
// of max(B, 64) packets of 152 B (on 64-bit) per shard for producer
// batches of B packets, 608 KiB at the default 64.
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
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		// Dropped before it can move the watermark: after Close nothing
		// falls due.
		s.counters.AddDropped(len(batch))
		return
	}
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
	if s.retentionOn {
		s.clock.Store(uint64(ToInstant(s.watermark)))
	}
	s.dispatched.Add(1)
	s.batches++
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
		if s.batches%obs.BatchSample == 0 {
			m.Flight.Record(obs.TraceBatchDispatched, "", int64(len(batch)), s.batches)
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

// shardQueueDepth is how many sub-batches a shard's queue holds before
// HandleBatch blocks on it.
const shardQueueDepth = 64

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
		q := make(chan shardMsg, shardQueueDepth)
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

// Close flushes and stops the workers, settles what is due with one last
// freeze when retention is on, then closes the event stream (so subscriber
// channels end); idempotent. After Close the discoverer is read-only:
// further HandleBatch calls are dropped, so the watermark cannot move and
// nothing more falls due, and Snapshot keeps working.
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
	if s.retentionOn {
		s.snapMu.Lock()
		s.snapshot(nil)
		s.snapMu.Unlock()
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
// seal and in the same hold of its lock (with its delta, empty when no shard
// was sealed), when the shard's live state is exactly what the new inventory
// holds of it.
type freezeHook struct {
	pin   func()
	shard func(i int, sh *passiveShard, sd shardDelta)
}

// freezeShards seals every shard at one boundary, retiring what is due at
// its watermark (see freeze), and returns the shard deltas and the dispatch
// count at that point (the cache fingerprint). With whole unset and nothing
// dispatched since the count given, no shard is sealed and the deltas are
// nil; the boundary is then crossed only for hook. Callers must hold snapMu.
func (s *ShardedPassive) freezeShards(whole bool, since uint64, hook *freezeHook) (deltas []shardDelta, d0 uint64) {
	var wm time.Time
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
		sh.mu.Lock() // the hook reads what a report's settle writes
		defer sh.mu.Unlock()
		var sd shardDelta
		if deltas != nil {
			deltas[i] = sh.freeze(wm, whole)
			sd = deltas[i]
		}
		if hook != nil {
			hook.shard(i, sh, sd)
		}
	})
	return deltas, d0
}

// mergeViews builds the merged store for one snapshot point: it patches base
// — the store the previous merge built — with exactly the records, trails and
// tombstones the shard deltas carry and the probe keys the active flush moved
// (probed), one path-copying Patch per tree, and concatenates and sorts the
// shards' scanner lists (disjoint by source). A key active (the flushed view,
// nil for a passive-only engine) probes stays in the services tree, with a
// nil record once no passive one is left. With no base the deltas are whole
// shards, the trees are built bottom up with every probe of active patched
// in, and the delta is Full and lists nothing. Otherwise Added names the
// services that appeared or were reborn since base (beside a tombstone of the
// same delta), Removed those that left, and Updated the rest that a delta or
// the flush names: re-observed, expired under a probe answer, or with a first
// probe answer that appeared, moved or expired. All three are in key order
// and disjoint.
func mergeViews(base *mergedStore, deltas []shardDelta, active *ActiveDiscoverer, probed []TreeEntry[ServiceKey, probeTimes]) (*mergedStore, []ScannerInfo, SnapshotDelta) {
	full := base == nil
	m := &mergedStore{}
	var scanners []ScannerInfo
	var recs []svcEntry
	var trails []TreeEntry[netaddr.V4, []Instant]
	var tombs []TreeEntry[ServiceKey, time.Time]
	for i := range deltas {
		sd := &deltas[i]
		m.packets += sd.packets
		scanners = append(scanners, sd.scanners...)
		recs, trails, tombs = append(recs, sd.recs...), append(trails, sd.trails...), append(tombs, sd.tombs...)
	}
	sort.Slice(scanners, func(i, j int) bool { return scanners[i].Source < scanners[j].Source })
	recs, trails, tombs = sortEntries(recs), sortEntries(trails), sortEntries(tombs)
	if full {
		base = &mergedStore{services: BuildTree(recs), trails: BuildTree(trails), tombs: BuildTree(tombs)}
		recs, trails, tombs, probed = nil, nil, nil, nil
		if active != nil {
			active.probes.base.Walk(nil, func(k ServiceKey, p probeTimes) bool {
				probed = append(probed, TreeEntry[ServiceKey, probeTimes]{Val: p, Key: k})
				return true
			})
		}
	}
	// One edit per key a shard or the flush names: the shard's record (nil:
	// expired) or, for a key only the flush names, the one the tree holds. A
	// nil record leaves the tree unless a probe still answers for the key.
	edits := make([]TreeEdit[ServiceKey, *PassiveRecord], 0, len(recs)+len(probed))
	for i, j := 0, 0; i < len(recs) || j < len(probed); {
		var e TreeEdit[ServiceKey, *PassiveRecord]
		live, flushed := false, j < len(probed) && (i == len(recs) || !recs[i].Key.Before(probed[j].Key))
		if flushed {
			e.Key, live = probed[j].Key, probed[j].Val.ok
			j++
		}
		switch {
		case i < len(recs) && (!flushed || recs[i].Key == e.Key):
			e.Key, e.Val = recs[i].Key, recs[i].Val
			i++
			if !flushed && e.Val == nil && active != nil {
				_, live = active.FirstOpen(e.Key)
			}
		default:
			e.Val, _ = base.services.Get(e.Key)
		}
		e.Del = e.Val == nil && !live
		edits = append(edits, e)
	}
	// A record beside its key's tombstone came back after expiring.
	reborn := func(k ServiceKey) bool {
		_, found := slices.BinarySearchFunc(tombs, k, func(e TreeEntry[ServiceKey, time.Time], k ServiceKey) int { return e.Key.Compare(k) })
		return found
	}
	var d SnapshotDelta
	m.services = base.services.Patch(edits, func(i int, old *PassiveRecord, had bool) {
		switch e := &edits[i]; {
		case e.Del:
			if had {
				d.Removed = append(d.Removed, e.Key)
			}
		case !had || e.Val != nil && (old == nil || reborn(e.Key)):
			d.Added = append(d.Added, e.Key)
		default:
			d.Updated = append(d.Updated, e.Key)
		}
	})
	m.trails = base.trails.Patch(upserts(trails), nil)
	m.tombs = base.tombs.Patch(upserts(tombs), nil)
	if full {
		d = SnapshotDelta{Full: true}
	}
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
// predecessor — the O(churn) changed-key sets an observer needs to patch
// derived state (indexes, caches) forward without rescanning the inventory.
// Added, Updated and Removed are in canonical key order and disjoint; a
// reborn service is Added, and a key that survives expiry on the other
// technique's evidence, or whose first probe answer appeared or moved while
// it was listed, is Updated. Full is set exactly when there is no
// predecessor (the chain's first snapshot, or the first after a restore),
// and then the sets are empty: consumers build from the new inventory.
type SnapshotDelta struct {
	Added   []ServiceKey
	Updated []ServiceKey
	Removed []ServiceKey
	Full    bool
}

// OnSnapshot registers fn to observe every snapshot newly built: it runs
// under the snapshot lock, before the new inventory is cached (so any
// Snapshot call that returns the inventory finds fn done with it), with the
// previous inventory of the chain (nil on the first and after a restore),
// the new one, and the delta between them, which is Full exactly when prev
// is nil. Cache hits (snapshots of an unchanged engine) do not invoke it.
// There is one chain per engine and fn sees every link of it, so a
// non-Full delta is always relative to the inventory fn was handed last.
// Because fn blocks the snapshot path, it must be fast — O(delta) work, no
// waiting on queries. At most one observer; nil clears.
func (s *ShardedPassive) OnSnapshot(fn func(prev, inv *Inventory, delta SnapshotDelta)) {
	s.snapMu.Lock()
	s.onSnap = fn
	s.snapMu.Unlock()
}

// advance moves the snapshot chain to a new consistent point: it is the one
// place shards are frozen and merged. It freezes every shard, retiring what
// is due at the boundary's watermark, then the active side, patches the
// previous inventory's store forward (mergeViews), hands the new inventory
// and its delta to the observer, and then caches it under the dispatch count
// it froze at. prev is the chain's inventory before the call (nil on the
// first snapshot and after a restore, when everything is merged whole). With
// nothing dispatched and no report applied since prev, advance returns
// inv == prev: nothing can have fallen due (a report applied after the count
// was read may land in inv; the next advance then finds nothing more of it).
// hook, if any, rides the freeze (freezeShards). Callers hold snapMu.
func (s *ShardedPassive) advance(hook *freezeHook) (prev, inv *Inventory) {
	prev, since := s.snap.peek()
	deltas, d0 := s.freezeShards(prev == nil, since, hook)
	if deltas == nil {
		return prev, prev
	}
	var active *ActiveDiscoverer
	var probed []TreeEntry[ServiceKey, probeTimes]
	if s.active != nil {
		active, probed = s.freezeActive(deltas)
	}
	var base *mergedStore
	if prev != nil {
		base = prev.d
	}
	m, scanners, delta := mergeViews(base, deltas, active, probed)
	inv = &Inventory{d: m, active: active, scanners: scanners}
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.disc.install(m)
		sh.mu.Unlock()
	}
	if s.onSnap != nil {
		s.onSnap(prev, inv, delta)
	}
	s.snap.put(inv, d0)
	return prev, inv
}

// Snapshot freezes a consistent point-in-time Inventory. It is
// non-terminal and cheap to repeat: with nothing dispatched and no report
// applied since the previous snapshot the cached
// Inventory is returned outright (no shard traffic, no allocation);
// otherwise every shard seals only the records touched since its last
// freeze, and the merged inventory is patched forward from the previous
// snapshot rather than rebuilt. On a running engine the snapshot point is a
// batch boundary of the producer's stream (everything dispatched before the
// call is included), and the result is byte-identical to pausing the
// producer, flushing, and snapshotting at that point. Safe to call from any
// goroutine at any lifecycle stage. With retention on, the freeze retires
// and announces whatever is due at the boundary's watermark — what the
// key's next touch would retire anyway (retention.go) — so who snapshots,
// and how often, moves no key's events and no inventory.
func (s *ShardedPassive) Snapshot() *Inventory {
	if inv := s.snap.fast(s.dispatched.Load()); inv != nil {
		return inv
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	return s.snapshot(nil)
}

// snapshot is Snapshot past its fast path, shared with Close and
// ExportDelta, which hangs hook on the freeze. Callers hold snapMu.
func (s *ShardedPassive) snapshot(hook *freezeHook) *Inventory {
	var t0 time.Time
	if s.met != nil {
		t0 = time.Now()
	}
	prev, inv := s.advance(hook)
	if inv == prev {
		return inv // nothing moved: another snapshotter got here first
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
