// Command passived runs the passive service-discovery pipeline over a pcap
// trace (e.g. one produced by cmd/campussim, or a real header trace) and
// prints the resulting inventory; with -http it also serves the inventory
// and detected scanners as JSON. The replay feeds a live engine: while the
// sharded workers chew through the trace, passived takes periodic
// point-in-time snapshots (-snap) and streams discovery events — scanner
// detections are logged the moment the detection threshold is crossed, not
// at the end of the run. The HTTP endpoints always serve the latest
// snapshot, so a long replay (or a live feed) is queryable from the first
// second.
//
// Event-stream consumers: /events streams the typed discovery events as
// JSONL (one JSON event per line, SSE-friendly flushing) and accepts
// push-down filters (?filter=port:443,prefix:10.0.0.0/8) so narrow
// consumers neither receive nor pay drop budget for the rest of the
// stream; /query answers typed indexed queries (?port=&prefix=&category=
// &prov=&since=&limit=&page=) against the latest snapshot's index epoch;
// /metrics exposes the stage counters, checkpoint effort, and
// per-subscriber event-hub drop counts in Prometheus text format,
// /healthz answers liveness probes.
//
// With -publish the engine becomes one site of a federation: its event
// stream, tagged -site, is served on a TCP listener in the wire format
// that cmd/federated aggregates (see internal/federate). Reconnecting
// aggregators present a resume cursor and get just the frames they
// missed when the -replay-ring still covers them (a full snapshot
// otherwise), idle connections carry -feed-heartbeat keepalives, and
// -feed-auth demands a shared token in every client hello.
//
// With -checkpoint-dir the engine state is durable: checkpoints are taken
// every -checkpoint-every during the replay and once more on shutdown
// (SIGINT/SIGTERM stop the replay at a batch boundary, checkpoint, and
// exit cleanly). On the next start the engine restores from the directory
// and resumes the trace from the exact packet the checkpoint covered, so
// a killed and restarted run converges on the same inventory as one that
// was never interrupted.
//
//	passived -trace campus.pcap -net 128.125.0.0/16
//	passived -trace campus.pcap -net 128.125.0.0/16 -shards 8 -snap 500ms -http :8080
//	passived -trace east.pcap -net 128.125.0.0/16 -site east -publish :9000
//	passived -trace campus.pcap -checkpoint-dir /var/lib/servdisc -checkpoint-every 30s
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"servdisc"
	"servdisc/internal/federate"
	"servdisc/internal/httpapi"
	"servdisc/internal/obs"
	"servdisc/internal/query"
)

// options collects the flag set; run takes it whole rather than a dozen
// positional parameters.
type options struct {
	tracePath   string
	campus      string
	httpAddr    string
	debugAddr   string
	publishAddr string
	site        string
	feedAuth    string
	replayRing  int
	heartbeat   time.Duration
	top         int
	shards      int
	snapEvery   time.Duration
	ckptDir     string
	ckptEvery   time.Duration
	dumpPath    string
	haltAfter   int
	retTTL      time.Duration
	retActive   time.Duration
	retSweep    time.Duration
}

func main() {
	var o options
	flag.StringVar(&o.tracePath, "trace", "", "pcap trace to analyze (required)")
	flag.StringVar(&o.campus, "net", "128.125.0.0/16", "monitored campus prefix")
	flag.StringVar(&o.httpAddr, "http", "", "serve inventory as JSON on this address")
	flag.StringVar(&o.debugAddr, "debug-addr", "", "serve net/http/pprof, /metrics and /debug/flight on this extra address")
	flag.IntVar(&o.top, "top", 20, "show the N busiest services")
	flag.IntVar(&o.shards, "shards", 0, "discoverer shards (0 = hardware default)")
	flag.DurationVar(&o.snapEvery, "snap", time.Second, "live snapshot interval during replay (0 = final only)")
	flag.StringVar(&o.publishAddr, "publish", "", "serve the federation feed (snapshot + live events) on this TCP address")
	flag.StringVar(&o.site, "site", "", "site identity for the federation feed (defaults to the trace name)")
	flag.StringVar(&o.feedAuth, "feed-auth", "", "shared token feed clients must present in their hello (empty = no auth)")
	flag.IntVar(&o.replayRing, "replay-ring", 0, "frames of recent history kept for delta resync of reconnecting aggregators (0 = default 16384, negative = disabled)")
	flag.DurationVar(&o.heartbeat, "feed-heartbeat", 0, "wire heartbeat interval on idle feed connections (0 = default 10s, negative = disabled)")
	flag.StringVar(&o.ckptDir, "checkpoint-dir", "", "durable checkpoint directory (restore on start, checkpoint periodically and on shutdown)")
	flag.DurationVar(&o.ckptEvery, "checkpoint-every", 30*time.Second, "checkpoint interval while the replay runs (requires -checkpoint-dir)")
	flag.StringVar(&o.dumpPath, "dump", "", "write the final inventory dump to this file when the replay completes")
	flag.IntVar(&o.haltAfter, "halt-after", 0, "stop the replay once at least N packets of this run are ingested, checkpoint, and exit — simulates a mid-trace kill for restart testing")
	flag.DurationVar(&o.retTTL, "retention-ttl", 0, "expire a passively-discovered service this long after its last observed flow, on the trace clock (0 = keep forever)")
	flag.DurationVar(&o.retActive, "retention-active-ttl", 0, "expire active (probe) evidence this long after the last successful probe (0 = same as -retention-ttl)")
	flag.DurationVar(&o.retSweep, "retention-sweep", 0, "background expiry sweep interval; snapshots already expire lazily, this bounds staleness between them (0 = lazy only)")
	flag.Parse()

	if o.tracePath == "" {
		fmt.Fprintln(os.Stderr, "passived: -trace is required")
		os.Exit(2)
	}
	if o.site == "" {
		// The trace's base name, not its path: the site identity goes out
		// on the wire and into the aggregator's reports.
		o.site = filepath.Base(o.tracePath)
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "passived:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	f, err := os.Open(o.tracePath)
	if err != nil {
		return err
	}
	defer f.Close()

	cfg := servdisc.Config{
		Campus: o.campus,
		Shards: o.shards,
		// The taps are bypassed by Replay (a recorded trace was already
		// filtered at capture time), so no link or filter setup matters
		// here beyond the campus prefix.

		// The indexed query layer rides the snapshot ticker: every live
		// snapshot advances the index epoch from the same O(churn) deltas,
		// so /query serves from it at any client fan-out.
		QueryIndex: true,
	}
	if o.ckptDir != "" {
		cfg.Checkpoint = &servdisc.CheckpointOptions{Dir: o.ckptDir}
	}
	if o.retTTL > 0 || o.retActive > 0 {
		active := o.retActive
		if active == 0 {
			active = o.retTTL
		}
		cfg.Retention = servdisc.RetentionPolicy{
			PassiveTTL: o.retTTL,
			ActiveTTL:  active,
			SweepEvery: o.retSweep,
		}
	}
	pl, err := servdisc.NewPipeline(cfg)
	if err != nil {
		return err
	}
	// Telemetry: the pipeline instruments itself into its registry; the
	// daemon adds its own series below (registerDaemonSeries) and serves
	// everything from the same scrape. SIGQUIT dumps the flight recorder
	// to stderr at any time without stopping the process.
	reg := pl.Metrics()
	reg.Flight().DumpOnSIGQUIT()

	// Restore before Run and before the first packet: the engine must be
	// untouched for the import. A cold start (no checkpoint yet) restores
	// nothing; skip stays zero and the whole trace replays.
	skip := 0
	if o.ckptDir != "" {
		man, err := pl.RestoreFromCheckpoint()
		if err != nil {
			return fmt.Errorf("restore: %w", err)
		}
		if man != nil {
			skip = pl.Snapshot().Packets()
			fmt.Printf("restored checkpoint from %s: %d chunks, resuming at packet %d\n",
				o.ckptDir, len(man.Chunks), skip)
		}
	}

	// The engine runs on a background context, on purpose: a signal must
	// stop the *replay* at a batch boundary and leave the workers healthy
	// for the final checkpoint. Cancelling the engine's own context would
	// abort workers mid-state — an abort lever, not a shutdown lever.
	pl.Run(context.Background())

	// sigCtx ends on SIGINT/SIGTERM; the replay also ends when -halt-after
	// trips. Everything interruptible hangs off these two.
	sigCtx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	replayCtx, cancelReplay := context.WithCancel(sigCtx)
	defer cancelReplay()

	subs := newSubRegistry(reg)

	// Stream discovery events while the replay runs: scanner detections
	// are worth a log line the moment they happen. The subscription is
	// bounded — if we lag, we lose log lines, never ingest throughput.
	sub := pl.Subscribe(4096)
	subs.add("log", sub.Dropped)
	eventsDone := make(chan struct{})
	var discovered, upgraded, expired atomic.Int64
	go func() {
		defer close(eventsDone)
		for ev := range sub.Events() {
			switch ev.Kind {
			case servdisc.EventServiceDiscovered:
				discovered.Add(1)
			case servdisc.EventProvenanceUpgraded:
				upgraded.Add(1)
			case servdisc.EventServiceExpired:
				expired.Add(1)
			case servdisc.EventScannerDetected:
				fmt.Printf("event: %s\n", ev)
			}
		}
	}()

	// Federation feed: publish this engine's stream, site-tagged, to any
	// connecting aggregator (snapshot catch-up + live events per
	// connection). A restored process resumes the stored cursor so its
	// feed continues the old epoch and sequence instead of restarting
	// them; every later checkpoint samples the cursor back.
	if o.publishAddr != "" {
		var cursor federate.PublisherState
		if st := pl.RestoredPublisherCursor(); st != nil {
			cursor = *st
		}
		pub := federate.NewPublisherOpts(federate.SiteID(o.site), pl, cursor, federate.PublisherOptions{
			AuthToken:  o.feedAuth,
			ReplayRing: o.replayRing,
			Heartbeat:  o.heartbeat,
		})
		pub.SetMetrics(&federate.PublisherMetrics{
			Encode: reg.Histogram("servdisc_federation_encode_seconds",
				"Federation frame encode+write latency per frame served."),
		})
		pl.SetPublisherCursor(pub.State)
		subs.add("publisher-pump", pub.Dropped)
		// Resilience counters: how reconnecting aggregators re-enter the
		// stream (delta replay vs snapshot), hello hygiene, and evictions
		// of stalled readers.
		reg.CounterFunc("servdisc_federation_resume_hits_total",
			"Feed connections resumed with a delta replay from the ring.",
			func() float64 { return float64(pub.Stats().ResumeHits) })
		reg.CounterFunc("servdisc_federation_snapshot_fallbacks_total",
			"Feed connections bootstrapped with a full snapshot.",
			func() float64 { return float64(pub.Stats().SnapshotFallbacks) })
		reg.CounterFunc("servdisc_federation_auth_failures_total",
			"Feed hellos rejected for a missing or wrong auth token.",
			func() float64 { return float64(pub.Stats().AuthFailures) })
		reg.CounterFunc("servdisc_federation_hellos_rejected_total",
			"Feed hellos rejected as malformed (bad frame, wrong type, timeout).",
			func() float64 { return float64(pub.Stats().HellosRejected) })
		reg.CounterFunc("servdisc_federation_evictions_total",
			"Feed connections evicted for stalling past the write deadline.",
			func() float64 { return float64(pub.Stats().Evictions) })
		reg.CounterFunc("servdisc_federation_heartbeats_total",
			"Wire heartbeat frames sent on idle feed connections.",
			func() float64 { return float64(pub.Stats().HeartbeatsSent) })
		ln, err := net.Listen("tcp", o.publishAddr)
		if err != nil {
			return fmt.Errorf("publish: %w", err)
		}
		defer ln.Close()
		go func() { _ = pub.Serve(sigCtx, ln) }()
		fmt.Printf("publishing federation feed for site %q on %s\n", o.site, o.publishAddr)
	}

	// The latest point-in-time snapshot, shared with the HTTP handlers.
	var latest atomic.Pointer[servdisc.Inventory]
	latest.Store(pl.Snapshot())
	registerDaemonSeries(reg, &latest, pl)
	if o.debugAddr != "" {
		httpapi.ServeDebug("passived", o.debugAddr, reg, reg.Handler())
	}
	var srv *httpapi.Server
	if o.httpAddr != "" {
		srv = httpapi.Serve(o.httpAddr, newMux(&latest, pl, subs))
		fmt.Printf("serving live inventory on %s (/services, /query, /scanners, /stats, /events, /metrics, /healthz)\n", o.httpAddr)
	}

	// -halt-after: watch this run's dispatched-packet counter (a read, where
	// a snapshot would freeze and merge the engine 200 times a second) and
	// stop the replay once it passes the mark. The cut lands wherever the
	// next batch boundary falls — restart equivalence holds from any cut,
	// which is the point.
	if o.haltAfter > 0 {
		go func() {
			tick := time.NewTicker(5 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-replayCtx.Done():
					return
				case <-tick.C:
					if pl.IngestCounters().Out() >= o.haltAfter {
						cancelReplay()
						return
					}
				}
			}
		}()
	}

	// Replay on its own goroutine; snapshot and checkpoint on tickers
	// until it finishes.
	type replayResult struct {
		packets int
		err     error
	}
	replayDone := make(chan replayResult, 1)
	start := time.Now()
	go func() {
		n, err := pl.ResumeReplay(replayCtx, f, skip)
		replayDone <- replayResult{n, err}
	}()

	var snapTick, ckptTick <-chan time.Time
	if o.snapEvery > 0 {
		t := time.NewTicker(o.snapEvery)
		defer t.Stop()
		snapTick = t.C
	}
	if o.ckptDir != "" && o.ckptEvery > 0 {
		t := time.NewTicker(o.ckptEvery)
		defer t.Stop()
		ckptTick = t.C
	}
	var res replayResult
loop:
	for {
		select {
		case res = <-replayDone:
			break loop
		case err := <-srv.Err():
			return fmt.Errorf("http: %w", err)
		case <-snapTick:
			// Live snapshot: consistent, non-blocking for the replay.
			inv := pl.Snapshot()
			latest.Store(inv)
			fmt.Printf("live: %d packets, %d services, %d scanners (%.1fs)\n",
				inv.Packets(), inv.Len(), len(inv.Scanners()), time.Since(start).Seconds())
		case <-ckptTick:
			cr, err := pl.Checkpoint(context.Background())
			if err != nil {
				fmt.Fprintf(os.Stderr, "passived: checkpoint: %v\n", err)
				continue
			}
			logCheckpoint(cr)
		}
	}
	interrupted := errors.Is(res.err, context.Canceled)
	if res.err != nil && !interrupted {
		srv.Drain()
		return fmt.Errorf("replay: %w", res.err)
	}

	// Final checkpoint, interrupted or not, before the engine closes: the
	// marker drains behind every batch the replay delivered, so the chunk
	// covers an exact prefix of the trace and a restart resumes from it.
	if o.ckptDir != "" {
		cr, err := pl.Checkpoint(context.Background())
		if err != nil {
			fmt.Fprintf(os.Stderr, "passived: final checkpoint: %v\n", err)
		} else {
			logCheckpoint(cr)
		}
	}
	// One last freeze while the event stream is still open: expiry
	// decisions made since the previous snapshot publish their
	// EventServiceExpired at a freeze, and Close ends the stream.
	latest.Store(pl.Snapshot())
	pl.Close() // ends the event stream; snapshots remain available
	<-eventsDone

	inv := pl.Snapshot()
	latest.Store(inv)
	if interrupted {
		srv.Drain()
		fmt.Printf("interrupted at %d packets (%d services, %d scanners); state checkpointed to %s\n",
			inv.Packets(), inv.Len(), len(inv.Scanners()), o.ckptDir)
		return nil
	}
	fmt.Printf("replayed %d packets (%d this run); %d services on %d addresses; %d scanners detected\n",
		inv.Packets(), res.packets-skip, inv.Len(), len(inv.AddrFirstSeen(nil)), len(inv.Scanners()))
	fmt.Printf("events: %d discoveries, %d upgrades, %d expiries, %d dropped by the log subscriber\n",
		discovered.Load(), upgraded.Load(), expired.Load(), sub.Dropped())

	if o.dumpPath != "" {
		if err := os.WriteFile(o.dumpPath, inv.Dump(), 0o644); err != nil {
			srv.Drain()
			return fmt.Errorf("dump: %w", err)
		}
		fmt.Printf("wrote inventory dump to %s\n", o.dumpPath)
	}

	rows := serviceRows(inv)
	limit := min(o.top, len(rows))
	fmt.Printf("\n%-28s %-25s %8s %8s\n", "service", "first seen", "flows", "clients")
	for _, r := range rows[:limit] {
		fmt.Printf("%-28s %-25s %8d %8d\n", r.Key, r.First.Format(time.RFC3339), r.Flows, r.Clients)
	}

	if o.httpAddr == "" && o.publishAddr == "" {
		return nil
	}
	fmt.Println("\nreplay finished; still serving the final inventory (^C to quit)")
	select {
	case <-sigCtx.Done():
		srv.Drain()
		return nil
	case err := <-srv.Err():
		return fmt.Errorf("http: %w", err)
	}
}

func logCheckpoint(cr servdisc.CheckpointResult) {
	switch {
	case cr.Skipped:
		fmt.Printf("checkpoint: unchanged, skipped (%d shards clean)\n", cr.ShardsSkipped)
	case cr.Full:
		kind := "baseline"
		if cr.Compacted {
			kind = "compacted baseline"
		}
		fmt.Printf("checkpoint: %s, %d services, %d bytes in %s\n",
			kind, cr.Services, cr.Bytes, cr.Duration.Round(time.Microsecond))
	default:
		fmt.Printf("checkpoint: delta, %d services changed, %d bytes in %s (%d/%d shards clean)\n",
			cr.Services, cr.Bytes, cr.Duration.Round(time.Microsecond),
			cr.ShardsSkipped, cr.ShardsSkipped+cr.ShardsChanged)
	}
}

type row struct {
	Key     string    `json:"service"`
	First   time.Time `json:"first_seen"`
	Flows   int       `json:"flows"`
	Clients int       `json:"clients"`
}

func newRow(key servdisc.ServiceKey, rec *servdisc.PassiveRecord) row {
	return row{Key: key.String(), First: rec.FirstSeen(), Flows: rec.Flows, Clients: rec.Clients()}
}

// serviceRows flattens an inventory into JSON-ready rows, busiest first.
func serviceRows(inv *servdisc.Inventory) []row {
	var rows []row
	inv.EachService(func(key servdisc.ServiceKey, rec *servdisc.PassiveRecord, _ servdisc.Provenance, _, _ time.Time) bool {
		rows = append(rows, newRow(key, rec))
		return true
	})
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Flows > rows[j].Flows })
	return rows
}

// inventorySource puts the latest published snapshot (and the pipeline's
// query index) behind the shared HTTP surface.
type inventorySource struct {
	latest *atomic.Pointer[servdisc.Inventory]
	pl     *servdisc.Pipeline

	// gen numbers the distinct snapshots the full dump has been asked
	// for; seen is the last of them.
	mu   sync.Mutex
	seen *servdisc.Inventory
	gen  uint64
}

func (s *inventorySource) View() httpapi.View {
	return inventoryView{src: s, inv: s.latest.Load()}
}

func (s *inventorySource) Query(q servdisc.Query) (servdisc.QueryResult, error) {
	return s.pl.Query(q)
}

// inventoryView is one snapshot: dumped busiest-first, paged in the
// inventory's own canonical key order.
type inventoryView struct {
	src *inventorySource
	inv *servdisc.Inventory
}

func (v inventoryView) ETag() string {
	s := v.src
	s.mu.Lock()
	defer s.mu.Unlock()
	if v.inv != s.seen {
		s.seen = v.inv
		s.gen++
	}
	return fmt.Sprintf("\"inv-%d\"", s.gen)
}

func (v inventoryView) Dump() any { return serviceRows(v.inv) }

func (v inventoryView) Walk(after *servdisc.ServiceKey, f func(servdisc.ServiceKey, any) bool) {
	v.inv.EachServiceAfter(after, func(key servdisc.ServiceKey, rec *servdisc.PassiveRecord, _ servdisc.Provenance, _, _ time.Time) bool {
		return f(key, newRow(key, rec))
	})
}

// subRegistry tracks the event-hub subscribers so /metrics can report
// drop counts — the signal that a consumer's buffer is undersized — as
// series of servdisc_subscriber_dropped_total, refreshed at scrape time.
// A named subscriber (the log, the publisher pump) lives as long as the
// process and owns a series. /events connections come and go while
// registry series never unregister, so the live ones share the single
// "events" series (the sum of their drop counts) and an ended one folds
// its tally into the cumulative "departed" series.
type subRegistry struct {
	vec                *obs.CounterVec
	eventsC, departedC *obs.Counter

	mu       sync.Mutex
	named    []subEntry
	events   map[*servdisc.EventSub]struct{}
	departed int64
}

type subEntry struct {
	dropped func() int
	c       *obs.Counter
}

func newSubRegistry(reg *servdisc.Telemetry) *subRegistry {
	r := &subRegistry{
		vec: reg.CounterVec("servdisc_subscriber_dropped_total",
			"Events missed by one named subscriber.", "subscriber"),
		events: make(map[*servdisc.EventSub]struct{}),
	}
	r.eventsC, r.departedC = r.vec.With("events"), r.vec.With("departed")
	// The hook runs under the registry lock, so it may only Set
	// pre-resolved counters — calling With there would deadlock.
	reg.OnScrape(r.scrape)
	return r
}

// add registers a process-lifetime subscriber under its own series.
func (r *subRegistry) add(name string, dropped func() int) {
	c := r.vec.With(name) // before r.mu: lock order is registry, then r.mu
	r.mu.Lock()
	defer r.mu.Unlock()
	r.named = append(r.named, subEntry{dropped: dropped, c: c})
}

// addEvents registers one /events connection's subscription.
func (r *subRegistry) addEvents(sub *servdisc.EventSub) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events[sub] = struct{}{}
}

// removeEvents ends it, moving its final drop count to "departed".
func (r *subRegistry) removeEvents(sub *servdisc.EventSub) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.departed += int64(sub.Dropped())
	delete(r.events, sub)
}

// scrape mirrors the live drop counts into the registry series; it runs
// under the registry lock at every exposition.
func (r *subRegistry) scrape() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.named {
		e.c.Set(uint64(e.dropped()))
	}
	live := 0
	for sub := range r.events {
		live += sub.Dropped()
	}
	r.eventsC.Set(uint64(live))
	r.departedC.Set(uint64(r.departed))
}

// registerDaemonSeries adds passived's own series to the pipeline's
// registry: flow counters mirrored from the engine's stage counters,
// inventory gauges read from the latest published snapshot, and
// checkpoint effort. All are scrape-time callbacks — nothing has to tick
// between scrapes — and the names are unchanged from the daemon's
// pre-registry /metrics emitter.
func registerDaemonSeries(reg *servdisc.Telemetry, latest *atomic.Pointer[servdisc.Inventory], pl *servdisc.Pipeline) {
	ingest, events := pl.IngestCounters(), pl.EventCounters()
	reg.CounterFunc("servdisc_packets_total",
		"Packets offered to the discovery engine.",
		func() float64 { return float64(ingest.In()) })
	reg.CounterFunc("servdisc_packets_dispatched_total",
		"Packets dispatched to shard workers.",
		func() float64 { return float64(ingest.Out()) })
	reg.CounterFunc("servdisc_packets_dropped_total",
		"Packets discarded (engine closed).",
		func() float64 { return float64(ingest.Dropped()) })
	reg.GaugeFunc("servdisc_services",
		"Services in the latest snapshot.",
		func() float64 { return float64(latest.Load().Len()) })
	reg.GaugeFunc("servdisc_scanners",
		"Scanners detected in the latest snapshot.",
		func() float64 { return float64(len(latest.Load().Scanners())) })
	reg.CounterFunc("servdisc_events_published_total",
		"Events published on the discovery stream.",
		func() float64 { return float64(events.In()) })
	reg.CounterFunc("servdisc_events_delivered_total",
		"Per-subscriber event deliveries.",
		func() float64 { return float64(events.Out()) })
	reg.CounterFunc("servdisc_events_dropped_total",
		"Per-subscriber event drops (all subscribers).",
		func() float64 { return float64(events.Dropped()) })
	if _, ok := pl.QueryIndexLen(); ok {
		reg.GaugeFunc("servdisc_query_index_services",
			"Services in the current query-index epoch.",
			func() float64 { n, _ := pl.QueryIndexLen(); return float64(n) })
	}
	if _, ok := pl.CheckpointStats(); ok {
		stat := func(sel func(servdisc.CheckpointStats) float64) func() float64 {
			return func() float64 { cs, _ := pl.CheckpointStats(); return sel(cs) }
		}
		reg.CounterFunc("servdisc_checkpoints_total",
			"Checkpoints completed (skipped ones included).",
			stat(func(cs servdisc.CheckpointStats) float64 { return float64(cs.Checkpoints) }))
		reg.CounterFunc("servdisc_checkpoint_baselines_total",
			"Checkpoints that wrote a full baseline.",
			stat(func(cs servdisc.CheckpointStats) float64 { return float64(cs.Baselines) }))
		reg.CounterFunc("servdisc_checkpoint_failures_total",
			"Checkpoint attempts that failed.",
			stat(func(cs servdisc.CheckpointStats) float64 { return float64(cs.Failures) }))
		reg.CounterFunc("servdisc_checkpoint_bytes_written_total",
			"Chunk bytes made durable.",
			stat(func(cs servdisc.CheckpointStats) float64 { return float64(cs.BytesWritten) }))
		reg.CounterFunc("servdisc_checkpoint_chunks_skipped_total",
			"Shard exports skipped because the shard was unchanged.",
			stat(func(cs servdisc.CheckpointStats) float64 { return float64(cs.ChunksSkipped) }))
		reg.GaugeFunc("servdisc_checkpoint_last_bytes",
			"Bytes written by the most recent checkpoint.",
			stat(func(cs servdisc.CheckpointStats) float64 { return float64(cs.LastBytes) }))
		reg.GaugeFunc("servdisc_checkpoint_last_duration_seconds",
			"Duration of the most recent checkpoint.",
			stat(func(cs servdisc.CheckpointStats) float64 { return cs.LastDuration.Seconds() }))
	}
}

// newMux builds the HTTP surface: the shared endpoints (/services,
// /query, /metrics, /debug/flight — see internal/httpapi) over the latest
// snapshot, plus passived's own: the scanner list, the stats roll-up, the
// live event feed and a liveness probe. Every request reads the freshest
// inventory the snapshot loop has published.
func newMux(latest *atomic.Pointer[servdisc.Inventory], pl *servdisc.Pipeline, subs *subRegistry) *http.ServeMux {
	reg := pl.Metrics()
	mux := httpapi.NewMux(&inventorySource{latest: latest, pl: pl}, reg, reg.Handler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{
			"status":  "ok",
			"packets": latest.Load().Packets(),
		})
	})
	mux.HandleFunc("/scanners", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(latest.Load().Scanners())
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, _ *http.Request) {
		inv := latest.Load()
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]int{
			"packets":  inv.Packets(),
			"services": inv.Len(),
			"scanners": len(inv.Scanners()),
		})
	})
	// /events streams the typed discovery event stream as JSONL: one JSON
	// event per line, flushed per event so curl and EventSource-style
	// consumers see discoveries as they happen. Delivery is bounded and
	// lossy (the drop count appears in /metrics); the stream ends when the
	// engine closes or the client disconnects. Filter parameters (?filter=
	// port:443,prefix:10.0.0.0/8 or kind=/port=/proto=/prefix=/prov=) are
	// pushed down into the event hub: rejected events are never delivered
	// and never consume this subscriber's drop budget.
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		f, err := query.ParseEventFilter(r.URL.Query())
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		sub := pl.SubscribeFiltered(4096, f)
		subs.addEvents(sub)
		defer subs.removeEvents(sub)
		defer sub.Cancel()
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Header().Set("Cache-Control", "no-store")
		w.WriteHeader(http.StatusOK)
		flusher, _ := w.(http.Flusher)
		enc := json.NewEncoder(w)
		done := r.Context().Done()
		for {
			select {
			case <-done:
				return
			case ev, ok := <-sub.Events():
				if !ok {
					return
				}
				if err := enc.Encode(ev); err != nil {
					return
				}
				if flusher != nil {
					flusher.Flush()
				}
			}
		}
	})
	return mux
}
