package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"servdisc/internal/netaddr"
	"servdisc/internal/packet"
	"servdisc/internal/pipeline"
	"servdisc/internal/probe"
)

// Hybrid reconciles the two discovery techniques into one engine: passive
// border traffic flows into a ShardedPassive (as pipeline batches) while
// active sweep reports flow into an ActiveDiscoverer (as probe.ReportSink
// deliveries), and Snapshot merges both into a single hybrid Inventory
// with per-service provenance.
//
// Determinism: the passive side is shard-then-merge deterministic (see
// ShardedPassive) and the active side's ingestion is order-independent
// (see ActiveDiscoverer), so the snapshot is byte-identical for any
// interleaving of passive batches and scan reports carrying the same
// observations — property-tested in hybrid_test.go at 1, 2 and 8 shards.
//
// Lifecycle mirrors the pipeline runner: before Run, both HandleBatch and
// AddReport apply inline on the caller's goroutine; after Run(ctx),
// batches go to the shard workers and reports to a dedicated reconciler
// goroutine, so a live capture loop and a scan scheduler never block each
// other. Flush waits for both sides to drain; Close stops the workers
// (idempotent). As with ShardedPassive, the context is an abort lever, not
// a graceful stop — cancel only to abandon the run.
//
// Snapshot is non-terminal and concurrent-safe, and the engine publishes
// a typed event stream (Subscribe / the servdisc facade's Watch): the
// passive shards emit ServiceDiscovered, ProvenanceUpgraded and
// ScannerDetected, the active ingester ServiceDiscovered, ProvenanceUpgraded
// and ScanCompleted; whichever technique's evidence is applied second finds
// the other's under the owning shard's lock (events.go), so every service is
// discovered exactly once.
type Hybrid struct {
	passive *ShardedPassive

	// amu guards the active discoverer: reports write under it, snapshots
	// expire and flush under it (freezeActive). A report advances the
	// dispatch count, the snapshot fingerprint, so the next snapshot moves.
	amu    sync.Mutex
	active *ActiveDiscoverer

	// activeTTL, when positive, expires active-side records whose last
	// probe answer is older than the TTL at the passive observation
	// watermark (see RetentionPolicy). Guarded by amu.
	activeTTL time.Duration

	// seenReports flips once any report is accepted, so consumers can
	// tell a hybrid run from a passive-only one without locking.
	seenReports atomic.Bool

	// Report intake lifecycle, mirroring ShardedPassive's batch intake.
	mu       sync.RWMutex
	running  bool
	closed   bool
	ctx      context.Context
	reports  chan *probe.ScanReport
	worker   sync.WaitGroup
	inflight sync.WaitGroup
}

// NewHybrid builds a hybrid engine over the campus space: a passive side
// sharded n ways (as NewShardedPassive) watching the given well-known UDP
// ports, and an active side expecting sweeps of the given TCP ports
// (informational, as NewActiveDiscoverer).
func NewHybrid(campus netaddr.Prefix, udpPorts []uint16, shards int, tcpPorts []uint16) *Hybrid {
	h := &Hybrid{
		passive: NewShardedPassive(campus, udpPorts, shards),
		active:  NewActiveDiscoverer(tcpPorts),
	}
	h.passive.overlay = h
	// The join's active half lives on the shard that owns the key.
	h.active.onDiscovered = func(key ServiceKey, t time.Time) { h.passive.owner(key).activeDiscovered(key, t) }
	h.active.onOpenEarlier = func(key ServiceKey, t time.Time) { h.passive.owner(key).activeOpenEarlier(key, t) }
	return h
}

// Passive exposes the sharded passive side (counters, shard inspection).
func (h *Hybrid) Passive() *ShardedPassive { return h.passive }

// SetMetrics attaches the telemetry bundle to the underlying passive engine.
func (h *Hybrid) SetMetrics(m *EngineMetrics) { h.passive.SetMetrics(m) }

// Subscribe attaches a bounded subscriber to the engine's discovery event
// stream (see ShardedPassive.Subscribe for the drop contract).
func (h *Hybrid) Subscribe(buf int) *EventSub { return h.passive.Subscribe(buf) }

// SubscribeFiltered attaches a predicate-filtered subscriber (see
// ShardedPassive.SubscribeFiltered).
func (h *Hybrid) SubscribeFiltered(buf int, keep func(Event) bool) *EventSub {
	return h.passive.SubscribeFiltered(buf, keep)
}

// OnSnapshot is Passive().OnSnapshot: one engine, one observer slot.
func (h *Hybrid) OnSnapshot(fn func(prev, inv *Inventory, delta SnapshotDelta)) {
	h.passive.OnSnapshot(fn)
}

// EventCounters exposes the event stream's flow counters.
func (h *Hybrid) EventCounters() *pipeline.StageCounters { return h.passive.EventCounters() }

// HandleBatch implements pipeline.BatchSink by feeding the passive side.
func (h *Hybrid) HandleBatch(batch []packet.Packet) { h.passive.HandleBatch(batch) }

// applyReport reconciles one report into the active side and emits the
// sweep-completion event. Called inline (pre-Run) or from the reconciler
// worker.
func (h *Hybrid) applyReport(rep *probe.ScanReport) {
	h.amu.Lock()
	h.active.AddReport(rep)
	h.passive.dispatched.Add(1)
	h.amu.Unlock()
	h.passive.events.scanCompleted(
		ScanMeta{ID: rep.ID, Started: rep.Started, Finished: rep.Finished}, rep.Truncated)
}

// AddReport implements probe.ReportSink. Before Run it applies the report
// inline; after Run it enqueues for the reconciler goroutine. Reports
// added after Close are dropped, matching the passive side's contract.
func (h *Hybrid) AddReport(rep *probe.ScanReport) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if h.closed {
		return
	}
	h.seenReports.Store(true)
	if !h.running {
		h.applyReport(rep)
		return
	}
	h.inflight.Add(1)
	h.reports <- rep
}

// SeenReports reports whether any scan report has been accepted — whether
// this run is genuinely hybrid or passive-only so far.
func (h *Hybrid) SeenReports() bool { return h.seenReports.Load() }

// Run starts the passive shard workers and the report reconciler. No-op
// when already running or closed. See ShardedPassive.Run for the
// cancellation contract: a cancelled run should be abandoned.
func (h *Hybrid) Run(ctx context.Context) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.running || h.closed {
		return
	}
	h.running = true
	h.ctx = ctx
	h.reports = make(chan *probe.ScanReport, 16)
	h.worker.Add(1)
	go func() {
		defer h.worker.Done()
		for rep := range h.reports {
			if h.ctx.Err() == nil {
				h.applyReport(rep)
			}
			h.inflight.Done()
		}
	}()
	h.passive.Run(ctx)
}

// Flush blocks until every batch and report accepted before the call has
// been applied. Like ShardedPassive.Flush, it must not race with a
// concurrent producer; Snapshot needs no Flush.
func (h *Hybrid) Flush() {
	h.passive.Flush()
	h.inflight.Wait()
}

// Close flushes and stops both sides; idempotent. Afterwards the engine is
// read-only: further batches and reports are dropped, Snapshot keeps
// working, event subscribers see end-of-stream.
func (h *Hybrid) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	running, reports := h.running, h.reports
	h.mu.Unlock()
	if running {
		close(reports)
		h.worker.Wait()
	}
	h.passive.Close()
}

// SetRetention configures TTL-based expiry on both sides of the engine
// (see ShardedPassive.SetRetention). The active side expires against the
// passive observation watermark, so active retention needs passive
// traffic to advance the clock.
func (h *Hybrid) SetRetention(p RetentionPolicy) {
	h.passive.SetRetention(p)
	h.amu.Lock()
	h.activeTTL = p.ActiveTTL
	h.amu.Unlock()
}

// freezeActive retires the active-side records whose retention deadline
// (last answer + ActiveTTL) has passed at the observation watermark,
// recording tombstones, then flushes the active side (ActiveDiscoverer.flush)
// in the same hold of amu: it returns the expiry notices, the view and the
// probe keys that moved.
func (h *Hybrid) freezeActive(wm time.Time) (exp []expiredSvc, view *ActiveDiscoverer, probed []TreeEntry[ServiceKey, probeTimes]) {
	h.amu.Lock()
	defer h.amu.Unlock()
	if h.activeTTL > 0 && !wm.IsZero() {
		h.active.probes.each(answered, func(k ServiceKey, p probeTimes) {
			if deadline := p.last.time().Add(h.activeTTL); !deadline.After(wm) {
				exp = append(exp, expiredSvc{key: k, at: deadline, prov: ActiveOnly})
			}
		})
	}
	for _, e := range exp {
		h.active.retire(e.key, e.at)
		h.passive.owner(e.key).activeWithdrawn(e.key)
	}
	view, probed = h.active.flush()
	return exp, view, probed
}

// Snapshot freezes the reconciled hybrid inventory — the union of
// passively-seen and probe-answering services, each with its first-seen
// provenance — at a consistent point in time. It is Passive().Snapshot():
// the engine has one snapshot chain, and under a Hybrid every link of it is
// a hybrid inventory (see ShardedPassive.advance). An unchanged engine
// returns the previous Inventory; the first snapshot and the first after a
// restore build it whole; any other patches the services tree with the
// services that moved since on either side — a report costs its keys, not
// the store. On a running engine the result is byte-identical to pausing
// producers, flushing, and snapshotting at the same ingest point.
func (h *Hybrid) Snapshot() *Inventory { return h.passive.Snapshot() }

var (
	_ pipeline.BatchSink = (*Hybrid)(nil)
	_ probe.ReportSink   = (*Hybrid)(nil)
)
