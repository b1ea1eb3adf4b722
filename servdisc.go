package servdisc

// This file is the public facade over the internal wiring: NewPipeline
// assembles the standard passive-monitoring pipeline (link assigner →
// per-link taps → sharded discoverer), with the concurrent active-scan
// scheduler attached when Config.Scan is set, and Discover replays a pcap
// trace through it. cmd/ and examples/ build on these instead of
// assembling internal packages by hand. See doc.go for the package
// overview and DESIGN.md for the architecture.

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"time"

	"servdisc/internal/campus"
	"servdisc/internal/capture"
	"servdisc/internal/checkpoint"
	"servdisc/internal/core"
	"servdisc/internal/netaddr"
	"servdisc/internal/obs"
	"servdisc/internal/packet"
	"servdisc/internal/pipeline"
	"servdisc/internal/probe"
	"servdisc/internal/query"
	"servdisc/internal/trace"
)

// Re-exported result types, so facade users consume inventories without
// importing internal packages directly.
type (
	// Inventory is a frozen, read-only discovery result.
	Inventory = core.Inventory
	// ServiceKey identifies one discovered service (addr, proto, port).
	ServiceKey = core.ServiceKey
	// PassiveRecord is the per-service evidence accumulated passively.
	PassiveRecord = core.PassiveRecord
	// ScannerInfo describes one detected external scanner.
	ScannerInfo = core.ScannerInfo
	// Provenance classifies how a hybrid inventory found a service
	// (passive-only, active-only, passive-first, active-first).
	Provenance = core.Provenance
	// ScanReport is one active sweep's observations.
	ScanReport = probe.ScanReport
	// Event is one entry of the typed discovery event stream (see Watch).
	Event = core.Event
	// EventKind classifies a discovery event.
	EventKind = core.EventKind
	// EventSub is a bounded subscription to the event stream (see
	// Pipeline.Subscribe): Events yields the channel, Dropped the events
	// this subscriber missed, Cancel unsubscribes.
	EventSub = core.EventSub
	// StageCounters are concurrency-safe flow counters (In/Out/Dropped),
	// the form the monitoring endpoints read (see Pipeline.IngestCounters
	// and Pipeline.EventCounters).
	StageCounters = pipeline.StageCounters
	// CheckpointResult reports one checkpoint's effort (see
	// Pipeline.Checkpoint).
	CheckpointResult = checkpoint.Result
	// CheckpointStats aggregates a pipeline's lifetime checkpoint effort —
	// the numbers behind the /metrics checkpoint series.
	CheckpointStats = checkpoint.Stats
	// CheckpointManifest indexes a checkpoint directory (returned by
	// Pipeline.RestoreFromCheckpoint).
	CheckpointManifest = checkpoint.Manifest
	// RetentionPolicy configures TTL-based expiry of idle services (see
	// Config.Retention): per-evidence-kind TTLs on the observation clock.
	RetentionPolicy = core.RetentionPolicy
	// Query is a typed inventory query served by the secondary indexes
	// (see Pipeline.Query; requires Config.QueryIndex).
	Query = query.Query
	// QueryResult is one query answer: hits in canonical key order plus
	// the pagination cursor and the index epoch that served it.
	QueryResult = query.Result
	// QueryDoc is one indexed service as queries return it.
	QueryDoc = query.Doc
	// EventFilter is the predicate pushed down into the event hub by
	// SubscribeFiltered: a filtered subscriber neither receives nor pays
	// drop budget for events outside its slice.
	EventFilter = query.Filter
	// Telemetry is the typed metrics registry every pipeline carries
	// (internal/obs): counters, gauges, latency histograms and the
	// flight recorder, all scraped through WritePrometheus or served by
	// Handler / DebugHandler. Pipeline.Metrics returns a pipeline's;
	// daemon-level series register on it directly.
	Telemetry = obs.Registry
)

// Event kinds, re-exported from core: see core.EventKind for semantics.
const (
	// EventServiceDiscovered: first evidence for a service from either
	// technique — exactly once per service.
	EventServiceDiscovered = core.EventServiceDiscovered
	// EventProvenanceUpgraded: the other technique confirmed an
	// already-discovered service.
	EventProvenanceUpgraded = core.EventProvenanceUpgraded
	// EventScannerDetected: an external source crossed the scan-detection
	// thresholds.
	EventScannerDetected = core.EventScannerDetected
	// EventScanCompleted: an active sweep reconciled into the engine.
	EventScanCompleted = core.EventScanCompleted
	// EventServiceExpired: a service's evidence aged past its retention
	// TTL and left the inventory — exactly once per expiry, timestamped
	// with the retention deadline on the observation clock. Rediscovery
	// after expiry announces ServiceDiscovered again.
	EventServiceExpired = core.EventServiceExpired
)

// ScanOptions configure the active-scan side of a hybrid engine: what to
// probe, how fast, and on what schedule. Zero values pick conservative
// defaults; only Targets is required.
type ScanOptions struct {
	// Targets are the addresses to sweep, in canonical report order
	// (required).
	Targets []netaddr.V4
	// TCPPorts are probed per target. Defaults to the paper's five
	// selected TCP service ports when UDPPorts is empty.
	TCPPorts []uint16
	// UDPPorts are probed with generic UDP probes (optional).
	UDPPorts []uint16
	// Rate is the aggregate probes-per-second budget across all workers
	// (the paper ran 12–15). <= 0 disables rate limiting.
	Rate float64
	// Burst is the token-bucket depth (default 1).
	Burst int
	// Workers sizes the probe worker pool; <= 0 picks GOMAXPROCS.
	Workers int
	// Interval is the start-to-start sweep spacing for RunScans (the
	// paper swept every 12 hours). <= 0 runs sweeps back-to-back.
	Interval time.Duration
	// Sweeps bounds how many sweeps RunScans launches (<= 0: until the
	// context is cancelled).
	Sweeps int
	// SweepTimeout is the per-sweep deadline; an overrunning sweep is
	// truncated and reported partial. Zero means none.
	SweepTimeout time.Duration
	// Backend overrides the probe backend. Nil selects the real-network
	// connect-scan backend (2 s per probe); inject a probe.SimBackend to
	// scan a simulated campus.
	Backend probe.Backend
	// Compact aggregates TCP results into per-address summaries — required
	// for all-ports sweeps, where full per-probe records would not fit.
	Compact bool
	// OnSweep, when set, observes every completed sweep on the scheduler's
	// goroutine (see probe.SchedulerConfig.OnSweep). Sweeps also surface
	// on the event stream as ScanCompleted once their report reconciles
	// into the engine; OnSweep is the raw scheduler-side signal.
	OnSweep func(rep *ScanReport, err error)
}

func (o *ScanOptions) tcpPorts() []uint16 {
	if o.TCPPorts == nil && len(o.UDPPorts) == 0 {
		return campus.SelectedTCPPorts
	}
	return o.TCPPorts
}

func (o *ScanOptions) backend() probe.Backend {
	if o.Backend != nil {
		return o.Backend
	}
	return &probe.NetBackend{}
}

// Config shapes a discovery pipeline.
type Config struct {
	// Campus is the monitored address space in CIDR form (required),
	// e.g. "128.125.0.0/16".
	Campus string
	// UDPPorts lists the well-known UDP service ports considered server
	// evidence. Defaults to the paper's selected UDP services.
	UDPPorts []uint16
	// Filter is the tap capture filter. Empty means the paper's collection
	// filter for NewPipeline, and no filtering for Discover (a recorded
	// trace normally went through the filter when it was captured).
	Filter string
	// Shards is the passive-discoverer shard count; <= 0 picks a
	// hardware-sized default. Results are deterministic and identical for
	// every shard count (shard-then-merge, see DESIGN.md).
	Shards int
	// Links lists the monitored peerings for NewPipeline. Defaults to the
	// paper's two commercial links.
	Links []capture.LinkID
	// Academic lists external addresses routed via the Internet2 peering
	// (relevant only when LinkInternet2 is monitored).
	Academic []netaddr.V4
	// Scan configures the active-scan side: NewPipeline attaches the
	// scheduler (Pipeline.Scan, RunScans) so scan reports reconcile into
	// the same engine as the passive stream.
	Scan *ScanOptions
	// Checkpoint, when set, gives the pipeline durable state: call
	// RestoreFromCheckpoint before ingest to resume a previous run, and
	// Checkpoint periodically to persist incremental deltas (the library
	// itself checkpoints only when told to).
	Checkpoint *CheckpointOptions
	// QueryIndex, when true, maintains secondary indexes (port,
	// provenance, service category, freshness bucket; a prefix is a range
	// of the key order itself) over the live inventory and enables
	// Pipeline.Query. The indexes advance at each
	// Snapshot from the same O(churn) deltas that patch the snapshot
	// itself — never a full rescan — and each index epoch is an immutable
	// value read lock-free by any number of concurrent queries.
	QueryIndex bool
	// Retention, when enabled (any TTL > 0), expires services whose
	// evidence ages past its TTL, measured on the observation clock (the
	// newest packet timestamp ingested). Expired services leave Snapshot
	// inventories, emit EventServiceExpired on the event stream, and are
	// retracted from federation aggregators. Expiry is evaluated lazily
	// at each Snapshot, so take snapshots on the cadence expiries should
	// surface at.
	Retention RetentionPolicy
}

// CheckpointOptions configure the pipeline's durable-state subsystem
// (internal/checkpoint): where checkpoints live. The delta chain folds into
// a fresh baseline after checkpoint.DefaultMaxDeltas deltas.
type CheckpointOptions struct {
	// Dir is the checkpoint directory (required; created if absent).
	Dir string
}

func (c Config) campusPrefix() (netaddr.Prefix, error) {
	if c.Campus == "" {
		return netaddr.Prefix{}, fmt.Errorf("servdisc: Config.Campus is required")
	}
	return netaddr.ParsePrefix(c.Campus)
}

func (c Config) udpPorts() []uint16 {
	if c.UDPPorts == nil {
		return campus.SelectedUDPPorts
	}
	return c.UDPPorts
}

func (c Config) shardCount() int {
	if c.Shards > 0 {
		return c.Shards
	}
	if n := runtime.GOMAXPROCS(0); n < 8 {
		return n
	}
	return 8
}

// Pipeline is the standard discovery assembly: a link assigner routing
// border packets to per-link taps (filter + optional sampler), all feeding
// one hybrid engine whose passive side is sharded. Feed it batches (it
// implements pipeline.BatchSink — hand it to traffic.NewGenerator or a
// replay loop), feed it scan reports (it implements probe.ReportSink), and
// Snapshot the inventory.
type Pipeline struct {
	monitor *capture.Monitor
	engine  *core.ShardedPassive
	sched   *probe.Scheduler // nil unless Config.Scan was set
	scan    *ScanOptions

	ckpt    *checkpoint.Writer // nil unless Config.Checkpoint was set
	ckptDir string

	qix *query.Catalog // nil unless Config.QueryIndex was set

	// telemetry: the registry plus the facade-level instruments that are
	// observed from Pipeline methods (layer-internal instruments are
	// wired directly into their layers by NewPipeline).
	reg        *Telemetry
	ingestLat  *obs.Histogram // whole ingest path, per HandleBatch call
	restoreLat *obs.Histogram // RestoreFromCheckpoint wall time
	// queryLat maps query dimension → its latency histogram, pre-resolved
	// at construction so the query path never touches the registry lock.
	queryLat map[string]*obs.Histogram
	// epochLat maps an epoch-install path (query.PathBuild, PathPatch) to
	// its servdisc_query_epoch_seconds series.
	epochLat map[string]*obs.Histogram
	// coldStart is set once per cold start, when the first epoch is
	// installed, to the seconds since coldFrom: when NewPipeline, or the
	// last RestoreFromCheckpoint, began. coldFrom is nil once it is set.
	coldStart *obs.Gauge
	coldFrom  atomic.Pointer[time.Time]
}

// queryDimensions are the values Query.Dimension can return — the label
// space of servdisc_query_seconds, pre-registered so every dimension's
// series exists from the first scrape.
var queryDimensions = []string{
	"key", "prefix24", "port", "category", "prefix", "provenance", "freshness", "scan",
}

// NewPipeline assembles a pipeline from the config. With cfg.Scan set, the
// concurrent scan scheduler is attached (see Scan and RunScans); without it
// the pipeline is passive-only.
func NewPipeline(cfg Config) (*Pipeline, error) {
	start := time.Now()
	pfx, err := cfg.campusPrefix()
	if err != nil {
		return nil, err
	}
	var scanTCP []uint16
	if cfg.Scan != nil {
		if len(cfg.Scan.Targets) == 0 {
			return nil, fmt.Errorf("servdisc: Config.Scan.Targets is required")
		}
		scanTCP = cfg.Scan.tcpPorts()
	}
	engine := core.NewHybrid(pfx, cfg.udpPorts(), cfg.shardCount(), scanTCP)
	if cfg.Retention.Enabled() {
		engine.SetRetention(cfg.Retention)
	}
	links := cfg.Links
	if len(links) == 0 {
		links = []capture.LinkID{capture.LinkCommercial1, capture.LinkCommercial2}
	}
	filterExpr := cfg.Filter
	if filterExpr == "" {
		filterExpr = capture.PaperFilter
	}
	taps := make([]*capture.Tap, 0, len(links))
	for _, link := range links {
		tap, err := capture.NewTap(link, filterExpr, nil, engine)
		if err != nil {
			return nil, err
		}
		taps = append(taps, tap)
	}
	reg := obs.NewRegistry()
	p := &Pipeline{
		monitor: capture.NewMonitor(capture.NewAssigner(pfx, cfg.Academic), taps...),
		engine:  engine,
		scan:    cfg.Scan,
		reg:     reg,
	}
	p.ingestLat = reg.Histogram("servdisc_ingest_batch_seconds",
		"Whole ingest-path latency per packet batch: link assignment, taps and engine dispatch.")
	engine.SetMetrics(&core.EngineMetrics{
		Dispatch: reg.Histogram("servdisc_ingest_dispatch_seconds",
			"Engine batch partition+scatter latency (inline mode includes shard applies)."),
		Apply: reg.Histogram("servdisc_ingest_apply_seconds",
			"Per-shard sub-batch apply latency on the shard workers."),
		Snapshot: reg.Histogram("servdisc_snapshot_merge_seconds",
			"Snapshot freeze+merge latency per snapshot actually built (cache hits untimed)."),
		Flight: reg.Flight(),
	})
	if cfg.QueryIndex {
		// The indexes follow the engine's one snapshot chain: every snapshot
		// built reaches the observer once, with a delta against the one
		// before. It runs under the engine's snapshot lock, which serializes
		// catalog updates; Epoch() readers are lock-free.
		p.qix = query.NewCatalog(0)
		p.OnSnapshot(nil)
		qv := reg.HistogramVec("servdisc_query_seconds",
			"Query execution latency by the index dimension that served it.", "dim")
		p.queryLat = make(map[string]*obs.Histogram, len(queryDimensions))
		for _, d := range queryDimensions {
			p.queryLat[d] = qv.With(d)
		}
		ev := reg.HistogramVec("servdisc_query_epoch_seconds",
			"Index epoch install latency per snapshot: a bottom-up build (first epoch or full rebuild) or a patch over the delta.", "path")
		p.epochLat = map[string]*obs.Histogram{query.PathBuild: ev.With(query.PathBuild), query.PathPatch: ev.With(query.PathPatch)}
		p.coldStart = reg.Gauge("servdisc_cold_start_seconds",
			"Seconds from pipeline start, or from the start of the last checkpoint restore, to the first installed index epoch.")
		p.coldFrom.Store(&start)
	}
	if cfg.Checkpoint != nil {
		if cfg.Checkpoint.Dir == "" {
			return nil, fmt.Errorf("servdisc: Config.Checkpoint.Dir is required")
		}
		w, err := checkpoint.NewWriter(engine, cfg.Checkpoint.Dir, checkpoint.Options{})
		if err != nil {
			return nil, fmt.Errorf("servdisc: checkpoint dir: %w", err)
		}
		p.ckpt = w
		p.ckptDir = cfg.Checkpoint.Dir
		w.SetMetrics(&checkpoint.Metrics{
			Write: reg.Histogram("servdisc_checkpoint_write_seconds",
				"Checkpoint cut latency per chunk written (skipped checkpoints untimed)."),
			Flight: reg.Flight(),
		})
		p.restoreLat = reg.Histogram("servdisc_checkpoint_restore_seconds",
			"RestoreFromCheckpoint wall time per successful restore.")
	}
	if cfg.Scan != nil {
		p.sched = probe.NewScheduler(cfg.Scan.backend(), probe.SchedulerConfig{
			Targets:      cfg.Scan.Targets,
			TCPPorts:     cfg.Scan.tcpPorts(),
			UDPPorts:     cfg.Scan.UDPPorts,
			Rate:         cfg.Scan.Rate,
			Burst:        cfg.Scan.Burst,
			Workers:      cfg.Scan.Workers,
			SweepTimeout: cfg.Scan.SweepTimeout,
			Compact:      cfg.Scan.Compact,
			OnSweep:      cfg.Scan.OnSweep,
		})
		p.sched.SetMetrics(&probe.Metrics{
			RTT: reg.Histogram("servdisc_probe_rtt_seconds",
				"Per-probe wall-clock round trip (TCP connect and UDP probes)."),
			Sweep: reg.Histogram("servdisc_scan_sweep_seconds",
				"Whole active-scan sweep wall duration."),
			Flight: reg.Flight(),
		})
	}
	return p, nil
}

// Metrics returns the telemetry registry the pipeline instruments itself
// into: its latency histograms (ingest dispatch/apply, snapshot merge,
// probe RTTs and sweeps, checkpoint write/restore, query execution) and
// the flight recorder's trace events, zero-allocation on the hot paths.
// Serve it with Telemetry.Handler (Prometheus text exposition) or
// DebugHandler (adds /debug/pprof and the /debug/flight trace dump), and
// register daemon-level series directly on it.
func (p *Pipeline) Metrics() *Telemetry { return p.reg }

// Monitor exposes the link monitor — the pipeline's ingest point, and the
// place to AddMirror secondary consumers (recorders, sampling studies).
func (p *Pipeline) Monitor() *capture.Monitor { return p.monitor }

// HandleBatch implements pipeline.BatchSink by feeding the monitor. The
// whole-path latency (assignment, taps, engine dispatch) lands in the
// servdisc_ingest_batch_seconds histogram.
func (p *Pipeline) HandleBatch(batch []packet.Packet) {
	t0 := time.Now()
	p.monitor.HandleBatch(batch)
	p.ingestLat.Observe(time.Since(t0))
}

// AddReport implements probe.ReportSink: scan reports reconcile into the
// engine alongside the passive stream.
func (p *Pipeline) AddReport(rep *ScanReport) { p.engine.AddReport(rep) }

// Run starts the engine's passive shard workers; without it ingest runs
// synchronously on the producer's goroutine (the deterministic mode the
// simulator uses — results are identical either way). Scan reports apply
// on the goroutine that delivers them either way.
func (p *Pipeline) Run(ctx context.Context) { p.engine.Run(ctx) }

// Flush waits until everything ingested so far has reached engine state.
func (p *Pipeline) Flush() { p.engine.Flush() }

// Close stops the engine's workers (idempotent).
func (p *Pipeline) Close() { p.engine.Close() }

// Snapshot freezes a consistent point-in-time inventory of both techniques'
// evidence, each service with its provenance (every service is PassiveOnly
// until a scan report has been ingested). It is non-terminal,
// concurrent-safe and cheap to repeat — producers keep running, shards
// hand over only what changed since the previous snapshot, and an
// unchanged engine returns the previous Inventory — so a live deployment
// can poll it at any frequency (see core.ShardedPassive.Snapshot for the
// consistency contract). With retention on, the cadence sets only when an
// untouched service's expiry surfaces, never what expires or when. It is
// also what core.Analysis reads and what a federation publisher bootstraps
// a reader from.
func (p *Pipeline) Snapshot() *Inventory { return p.engine.Snapshot() }

// OnSnapshot registers fn to observe every snapshot the engine builds (see
// core.ShardedPassive.OnSnapshot): the engine's one observer slot calls
// the query catalog first (Config.QueryIndex), then fn. At most one fn;
// nil clears it. A federation publisher over the pipeline registers here.
func (p *Pipeline) OnSnapshot(fn func(prev, inv *Inventory, delta core.SnapshotDelta)) {
	cat := p.qix
	if cat == nil {
		p.engine.OnSnapshot(fn)
		return
	}
	p.engine.OnSnapshot(func(prev, inv *Inventory, d core.SnapshotDelta) {
		t0 := time.Now()
		if path := cat.ApplyDelta(inv, d); path != "" {
			p.epochLat[path].Observe(time.Since(t0))
			if from := p.coldFrom.Swap(nil); from != nil {
				p.coldStart.Set(time.Since(*from).Seconds())
			}
		}
		if fn != nil {
			fn(prev, inv, d)
		}
	})
}

// watchBuffer is Watch's default subscriber buffer: deep enough to absorb
// multi-second consumer lag at realistic discovery rates.
const watchBuffer = 1024

// Watch subscribes to the engine's typed discovery event stream:
// ServiceDiscovered (exactly once per service, across both techniques),
// ProvenanceUpgraded, ScannerDetected and ScanCompleted, each timestamped
// with the observation clock and provenance-tagged. The channel closes
// when the engine closes or ctx is cancelled. Delivery is bounded and
// lossy by design: events beyond the subscriber's buffer are dropped
// (counted) rather than stalling ingest — use Subscribe to size the
// buffer explicitly and read the drop count.
func (p *Pipeline) Watch(ctx context.Context) <-chan Event {
	sub := p.engine.Subscribe(watchBuffer)
	if ctx != nil {
		if done := ctx.Done(); done != nil {
			go func() {
				select {
				case <-done:
					sub.Cancel()
				case <-sub.Done(): // engine closed first
				}
			}()
		}
	}
	return sub.Events()
}

// Subscribe attaches a bounded subscriber (buffer capacity buf) to the
// same event stream as Watch, returning the subscription itself so the
// caller can inspect its drop count and cancel explicitly.
func (p *Pipeline) Subscribe(buf int) *EventSub { return p.engine.Subscribe(buf) }

// SubscribeSync attaches fn to the same event stream synchronously: it
// runs on the engine's publishing goroutines and misses no event, so it
// must return fast and never block or call back into the pipeline (see
// core.ShardedPassive.SubscribeSync). A federation publisher subscribes
// here.
func (p *Pipeline) SubscribeSync(fn func(Event)) *EventSub { return p.engine.SubscribeSync(fn) }

// SubscribeFiltered is Subscribe with the filter pushed down into the
// event hub's publish path: events the filter rejects are never delivered
// and never consume this subscriber's drop budget, so a consumer watching
// one port (or prefix, kind, provenance class) does not pay for the whole
// stream. The subscription's Filtered count tallies the rejects.
func (p *Pipeline) SubscribeFiltered(buf int, f EventFilter) *EventSub {
	return p.engine.SubscribeFiltered(buf, f.Keep())
}

// Query answers a typed inventory query (port, prefix, category,
// provenance, freshness; paginated, deterministic canonical key order)
// from the secondary indexes. Reads are lock-free against an immutable
// index epoch; the epoch advances at each Snapshot, so results reflect
// the latest snapshot taken, not un-snapshotted ingest. Requires
// Config.QueryIndex.
func (p *Pipeline) Query(q Query) (QueryResult, error) {
	if p.qix == nil {
		return QueryResult{}, fmt.Errorf("servdisc: Config.QueryIndex not enabled")
	}
	t0 := time.Now()
	res, err := p.qix.Epoch().Query(q)
	p.queryLat[q.Dimension()].Observe(time.Since(t0))
	return res, err
}

// QueryIndexLen returns the number of services the query index currently
// holds (0 and false when Config.QueryIndex is off) — a cheap freshness
// probe for monitoring endpoints.
func (p *Pipeline) QueryIndexLen() (int, bool) {
	if p.qix == nil {
		return 0, false
	}
	return p.qix.Len(), true
}

// IngestCounters exposes the engine's packet-flow counters (In = packets
// offered, Out = packets dispatched to shards, Dropped = packets discarded
// after Close), safe for concurrent readers — the numbers behind a
// metrics endpoint.
func (p *Pipeline) IngestCounters() *StageCounters { return p.engine.Counters() }

// EventCounters exposes the event stream's flow counters (In = events
// published, Out = per-subscriber deliveries, Dropped = per-subscriber
// drops), safe for concurrent readers.
func (p *Pipeline) EventCounters() *StageCounters { return p.engine.EventCounters() }

// Replay streams a pcap trace into the engine in batches, bypassing the
// link taps exactly as Discover does (a recorded trace normally went
// through the capture filter when it was captured). It returns the packet
// count. Unlike Discover it feeds this pipeline's live engine, so
// Snapshot and Watch observe the replay as it happens; cancelling ctx
// abandons the replay mid-stream.
func (p *Pipeline) Replay(ctx context.Context, r io.Reader) (int, error) {
	tr, err := trace.NewReader(r)
	if err != nil {
		return 0, err
	}
	return capture.ReplayBatched(ctx, tr, p.engine, pipeline.DefaultBatchSize)
}

// skipSink drops the first n packets of a replayed stream before feeding
// the wrapped sink — how a restored pipeline resumes a trace from its
// checkpointed packet position. State equivalence needs only packet
// order, so the resumed run's batch boundaries need not reproduce the
// original's.
type skipSink struct {
	sink pipeline.BatchSink
	left int
}

func (s *skipSink) HandleBatch(batch []packet.Packet) {
	if s.left > 0 {
		if s.left >= len(batch) {
			s.left -= len(batch)
			return
		}
		batch = batch[s.left:]
		s.left = 0
	}
	s.sink.HandleBatch(batch)
}

// ResumeReplay replays a pcap trace like Replay but skips the first skip
// packets — pass the restored engine's packet position (Snapshot().
// Packets() right after RestoreFromCheckpoint): the checkpoint counted
// every packet it covered, so position N means "resume at trace offset
// N". Returns the total packets read, skipped ones included.
func (p *Pipeline) ResumeReplay(ctx context.Context, r io.Reader, skip int) (int, error) {
	if skip <= 0 {
		return p.Replay(ctx, r)
	}
	tr, err := trace.NewReader(r)
	if err != nil {
		return 0, err
	}
	return capture.ReplayBatched(ctx, tr, &skipSink{sink: p.engine, left: skip}, pipeline.DefaultBatchSize)
}

// RestoreFromCheckpoint rebuilds the engine from Config.Checkpoint.Dir.
// Call it on a fresh pipeline, before Run and before any ingest. It
// returns (nil, nil) on a cold start (no checkpoint yet); on success the
// engine holds the checkpointed state, Snapshot().Packets() is the trace
// position to resume from (see ResumeReplay). A corrupt checkpoint fails
// loudly with the engine untouched.
func (p *Pipeline) RestoreFromCheckpoint() (*CheckpointManifest, error) {
	if p.ckpt == nil {
		return nil, fmt.Errorf("servdisc: no Config.Checkpoint configured")
	}
	t0 := time.Now()
	p.coldFrom.Store(&t0)
	man, err := checkpoint.Restore(p.ckptDir, p.engine)
	if err != nil || man == nil {
		return man, err
	}
	el := time.Since(t0)
	p.restoreLat.Observe(el)
	restored := 0
	for i := range man.Chunks {
		restored += man.Chunks[i].Services
	}
	p.reg.Flight().Record(obs.TraceCheckpointRestored, "",
		int64(restored), el.Microseconds())
	return man, nil
}

// Checkpoint persists the engine's changes since the last checkpoint
// (a full baseline the first time, incremental afterwards). Safe to call
// concurrently with ingest — the cut lands on a whole-batch boundary —
// and from a ticker and a shutdown path at once.
func (p *Pipeline) Checkpoint(ctx context.Context) (CheckpointResult, error) {
	if p.ckpt == nil {
		return CheckpointResult{}, fmt.Errorf("servdisc: no Config.Checkpoint configured")
	}
	return p.ckpt.Checkpoint(ctx)
}

// CheckpointStats returns the lifetime checkpoint counters; ok is false
// when no Config.Checkpoint was configured.
func (p *Pipeline) CheckpointStats() (st CheckpointStats, ok bool) {
	if p.ckpt == nil {
		return CheckpointStats{}, false
	}
	return p.ckpt.Stats(), true
}

// Scheduler returns the attached scan scheduler, nil without Config.Scan.
func (p *Pipeline) Scheduler() *probe.Scheduler { return p.sched }

// Scan runs one sweep and reconciles its report into the engine. It blocks
// until the sweep completes (or is cut short by cancellation / the
// per-sweep deadline, returning the cause alongside the partial report).
// Requires Config.Scan.
func (p *Pipeline) Scan(ctx context.Context) (*ScanReport, error) {
	if p.sched == nil {
		return nil, fmt.Errorf("servdisc: no Config.Scan configured")
	}
	rep, err := p.sched.Sweep(ctx)
	if rep != nil {
		p.engine.AddReport(rep)
	}
	return rep, err
}

// RunScans executes the configured sweep schedule (Scan.Interval between
// starts, Scan.Sweeps total), reconciling every report into the engine.
// It blocks until the schedule completes or ctx is cancelled; run it from
// its own goroutine alongside live capture. Requires Config.Scan.
func (p *Pipeline) RunScans(ctx context.Context) error {
	if p.sched == nil {
		return fmt.Errorf("servdisc: no Config.Scan configured")
	}
	return p.sched.Run(ctx, p.scan.Interval, p.scan.Sweeps, p.engine)
}

// Discover replays a pcap trace through a sharded passive discoverer and
// returns the frozen inventory. The trace is consumed in batches; with
// cfg.Shards > 1 the shards ingest concurrently, and the result is
// identical to a single-threaded replay. Cancelling ctx abandons the
// replay and returns the context's error with no inventory.
func Discover(ctx context.Context, r io.Reader, cfg Config) (*Inventory, error) {
	pfx, err := cfg.campusPrefix()
	if err != nil {
		return nil, err
	}
	tr, err := trace.NewReader(r)
	if err != nil {
		return nil, err
	}
	sharded := core.NewShardedPassive(pfx, cfg.udpPorts(), cfg.shardCount())
	sharded.Run(ctx)
	defer sharded.Close()

	var sink pipeline.BatchSink = sharded
	if cfg.Filter != "" {
		// A recorded trace has no links; the tap is just the filter.
		tap, err := capture.NewTap(capture.LinkCommercial1, cfg.Filter, nil, sharded)
		if err != nil {
			return nil, err
		}
		sink = tap
	}
	if _, err := capture.ReplayBatched(ctx, tr, sink, pipeline.DefaultBatchSize); err != nil {
		return nil, err
	}
	sharded.Close()
	return sharded.Snapshot(), nil
}
