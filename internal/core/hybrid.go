package core

import (
	"time"

	"servdisc/internal/netaddr"
	"servdisc/internal/probe"
)

// The active side of the engine: a ShardedPassive built by NewHybrid also
// reconciles active sweep reports (probe.ReportSink deliveries) into an
// ActiveDiscoverer, and every link of its snapshot chain is then a hybrid
// Inventory with per-service provenance — one inventory fed two ways.
//
// Determinism: the passive side is shard-then-merge deterministic and the
// active side's ingestion is order-independent (see ActiveDiscoverer), so
// the snapshot is byte-identical for any interleaving of passive batches
// and scan reports carrying the same observations — property-tested in
// hybrid_test.go at 1, 2 and 8 shards.
//
// A report applies on the caller's goroutine, before AddReport returns, at
// every lifecycle stage: a scan scheduler's goroutine is its own report
// worker, and a live capture loop never waits for it beyond the locks the
// join takes. The passive shards emit ServiceDiscovered, ProvenanceUpgraded
// and ScannerDetected, a report ServiceDiscovered, ProvenanceUpgraded and
// ScanCompleted; whichever technique's evidence is applied second finds the
// other's under the owning shard's lock (events.go), so every service is
// discovered exactly once.

// Hybrid is the engine's name where it carries an active side.
type Hybrid = ShardedPassive

// NewHybrid builds a hybrid engine over the campus space: a passive side
// sharded n ways (as NewShardedPassive) watching the given well-known UDP
// ports, and an active side expecting sweeps of the given TCP ports
// (informational, as NewActiveDiscoverer).
func NewHybrid(campus netaddr.Prefix, udpPorts []uint16, shards int, tcpPorts []uint16) *ShardedPassive {
	s := NewShardedPassive(campus, udpPorts, shards)
	s.active = NewActiveDiscoverer(tcpPorts)
	// The join's active half lives on the shard that owns the key.
	s.active.onAnswer = func(key ServiceKey, t time.Time) bool {
		return s.owner(key).activeAnswered(key, t, Instant(s.clock.Load()).Time())
	}
	return s
}

// Passive returns the engine itself: the passive side is the engine.
func (s *ShardedPassive) Passive() *ShardedPassive { return s }

// AddReport implements probe.ReportSink: it reconciles the report into the
// active side and publishes ScanCompleted before it returns, so the next
// Snapshot lists its services. Each key the report answers is settled first
// at the watermark the report reads (see retention.go). After Flush that is
// every batch dispatched before the call; a report racing ingest settles at
// whatever the dispatcher has reached, as racing reports already reorder
// events. A report after Close, after the Run context is cancelled, or to
// an engine without an active side is dropped, as a batch is.
func (s *ShardedPassive) AddReport(rep *probe.ScanReport) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.active == nil || s.closed || s.ctx != nil && s.ctx.Err() != nil {
		return
	}
	s.seenReports.Store(true)
	s.amu.Lock()
	// Counted before it applies, as a batch is: a Snapshot that reads the
	// count moved freezes the active side behind amu, so it reflects every
	// discovery the report has announced by then.
	s.dispatched.Add(1)
	s.active.AddReport(rep)
	s.amu.Unlock()
	s.events.scanCompleted(ScanMeta{ID: rep.ID, Started: rep.Started, Finished: rep.Finished}, rep.Truncated)
}

// SeenReports reports whether any scan report has been accepted — whether
// this run is genuinely hybrid or passive-only so far.
func (s *ShardedPassive) SeenReports() bool { return s.seenReports.Load() }

// freezeActive retires in the store the answers the shard freezes expired
// (each delta's withdrawn list), skipping any a report has since answered
// anew, then flushes the active side (ActiveDiscoverer.flush) in the same
// hold of amu: it returns the view and the probe keys that moved.
func (s *ShardedPassive) freezeActive(deltas []shardDelta) (view *ActiveDiscoverer, probed []TreeEntry[ServiceKey, probeTimes]) {
	s.amu.Lock()
	defer s.amu.Unlock()
	for i := range deltas {
		for _, key := range deltas[i].withdrawn {
			if !s.owner(key).answerLive(key) {
				s.active.lapse(key)
			}
		}
	}
	return s.active.flush()
}

var _ probe.ReportSink = (*ShardedPassive)(nil)
