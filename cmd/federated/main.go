// Command federated is the multi-campus aggregation daemon: it dials N
// site feeds published by `passived -publish` (or anything speaking the
// internal/federate wire format), reconciles them into one global
// inventory with per-site provenance and cross-site dedup, and serves the
// result over HTTP.
//
// Each feed connection opens with a resume hello carrying the
// aggregator's cursor for that site: the publisher answers with a snapshot
// of just the services changed past the cursor when the cursor is from its
// stream (O(churn) bytes, not O(inventory)) and a full snapshot bootstrap
// otherwise; either way the per-site sequence dedup guarantees the overlap
// is never double-counted. Broken connections redial under
// exponential backoff with full jitter (-retry is the base, -retry-cap
// the ceiling), dials are bounded by -dial-timeout, silence beyond
// -feed-idle (the publisher heartbeats inside it) drops the connection,
// and -max-frames-per-sec/-max-bytes-per-sec cap each feed's ingest
// rate. -feed-auth presents a shared token the publisher may require.
//
// With -checkpoint-dir the global inventory is durable: the aggregator
// state (services, per-site dedup cursors, scan reports) is written
// atomically every -checkpoint-every and once more on SIGINT/SIGTERM,
// and reloaded on the next start — so a restarted aggregator keeps its
// history instead of waiting for every site to reconnect and re-bootstrap.
//
// Endpoints: /dump (canonical text inventory), /services (global JSON
// rows; cached-encoded with ETag, ?limit=/&page= paginates), /query
// (typed indexed queries over the global inventory), /sites (per-feed
// statistics, ?limit= truncates), /metrics (Prometheus text: per-feed
// event/dedup/reconnect counters, state-write effort), /healthz.
//
//	federated -feed east:9000 -feed west:9001 -http :8090
//	federated -feed east:9000 -checkpoint-dir /var/lib/servdisc-global
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"servdisc/internal/checkpoint"
	"servdisc/internal/core"
	"servdisc/internal/federate"
	"servdisc/internal/httpapi"
	"servdisc/internal/obs"
	"servdisc/internal/query"
)

// StateFileName is the aggregator checkpoint inside -checkpoint-dir.
const StateFileName = "aggregator.state"

// feedList collects repeated -feed flags.
type feedList []string

func (f *feedList) String() string { return fmt.Sprint(*f) }
func (f *feedList) Set(s string) error {
	*f = append(*f, s)
	return nil
}

type options struct {
	feeds       feedList
	httpAddr    string
	debugAddr   string
	retry       time.Duration
	retryCap    time.Duration
	dialTimeout time.Duration
	feedIdle    time.Duration
	feedAuth    string
	maxFrames   float64
	maxBytes    float64
	logEvents   bool
	ckptDir     string
	ckptEvery   time.Duration
	tombGC      time.Duration
}

func main() {
	var o options
	flag.Var(&o.feeds, "feed", "site feed address to aggregate (repeatable)")
	flag.StringVar(&o.httpAddr, "http", ":8090", "serve the global inventory on this address")
	flag.StringVar(&o.debugAddr, "debug-addr", "", "serve net/http/pprof, /metrics and /debug/flight on this extra address")
	flag.DurationVar(&o.retry, "retry", 2*time.Second, "reconnect backoff base after a feed drops (grows exponentially with full jitter; was the fixed retry interval before delta resync)")
	flag.DurationVar(&o.retryCap, "retry-cap", time.Minute, "reconnect backoff ceiling")
	flag.DurationVar(&o.dialTimeout, "dial-timeout", 10*time.Second, "bound on each feed dial attempt")
	flag.DurationVar(&o.feedIdle, "feed-idle", 45*time.Second, "drop a feed silent for this long (publisher heartbeats keep a healthy feed inside it)")
	flag.StringVar(&o.feedAuth, "feed-auth", "", "shared token presented in the feed hello (publishers started with -feed-auth require it)")
	flag.Float64Var(&o.maxFrames, "max-frames-per-sec", 0, "per-feed ingest cap in frames/s (0 = uncapped)")
	flag.Float64Var(&o.maxBytes, "max-bytes-per-sec", 0, "per-feed ingest cap in bytes/s (0 = uncapped)")
	flag.BoolVar(&o.logEvents, "log", true, "log global discoveries and scanner detections")
	flag.StringVar(&o.ckptDir, "checkpoint-dir", "", "durable aggregator-state directory (restore on start, write periodically and on shutdown)")
	flag.DurationVar(&o.ckptEvery, "checkpoint-every", 30*time.Second, "aggregator-state write interval (requires -checkpoint-dir)")
	flag.DurationVar(&o.tombGC, "tombstone-gc", 0, "drop retraction tombstones older than this on the observation clock (behind the newest site watermark), checked once a wall-clock minute; 0 keeps them forever, which is always safe")
	flag.Parse()

	if len(o.feeds) == 0 {
		fmt.Fprintln(os.Stderr, "federated: at least one -feed is required")
		os.Exit(2)
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "federated:", err)
		os.Exit(1)
	}
}

// feedHealth pairs one -feed address with its resilient client and the
// live connection state /healthz reads. All churn counters (connects,
// dial errors, resume hits, throttle stalls, ...) come from the client's
// own stats; connected is mirrored here by the lifecycle callbacks so
// tests can assemble the HTTP surface without running real connections.
type feedHealth struct {
	addr      string
	fc        *federate.FeedClient
	connected atomic.Bool
}

// newFeedHealth builds the client for one feed address with the daemon's
// resilience options and lifecycle logging; run() starts fc.Run.
func newFeedHealth(o options, agg *federate.Aggregator, addr string, flight *obs.Recorder) *feedHealth {
	h := &feedHealth{addr: addr}
	h.fc = federate.NewFeedClient(agg, addr, federate.FeedOptions{
		AuthToken:       o.feedAuth,
		DialTimeout:     o.dialTimeout,
		IdleTimeout:     o.feedIdle,
		Backoff:         federate.BackoffConfig{Base: o.retry, Cap: o.retryCap},
		MaxFramesPerSec: o.maxFrames,
		MaxBytesPerSec:  o.maxBytes,
		OnConnect: func() {
			h.connected.Store(true)
			st := h.fc.Stats()
			flight.Record(obs.TraceFeedConnected, addr, int64(st.Connects), 0)
			fmt.Printf("feed %s: connected\n", addr)
		},
		OnDisconnect: func(err error) {
			h.connected.Store(false)
			st := h.fc.Stats()
			flight.Record(obs.TraceFeedDisconnected, addr, int64(st.Disconnects), 0)
			if err != nil {
				fmt.Printf("feed %s: %v (backoff ceiling %s)\n", addr, err, h.fc.NextBackoff())
			} else {
				fmt.Printf("feed %s: stream ended (backoff ceiling %s)\n", addr, h.fc.NextBackoff())
			}
		},
	})
	return h
}

// globalLogBuffer bounds the global event log's subscription: a stdout
// that stops draining drops log lines, counted, and never stalls Apply.
const globalLogBuffer = 8192

func run(o options) error {
	// A signal ends everything: the feed loops stop dialing, the HTTP
	// server drains, and the final state write makes the inventory
	// survive the restart.
	sigCtx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	agg := federate.NewAggregator()

	// Telemetry: one registry for the whole daemon — frame decode/apply
	// histograms from the aggregator, feed churn and per-site freshness
	// mirrored in at scrape time, feed connect/disconnect trace events in
	// the flight recorder (dumped by /debug/flight or SIGQUIT).
	reg := obs.NewRegistry()
	reg.Flight().DumpOnSIGQUIT()
	agg.SetMetrics(&federate.AggregatorMetrics{
		Decode: reg.Histogram("federated_frame_decode_seconds",
			"Feed frame decode latency, socket wait included (time from bytes pending to frame in hand)."),
		Apply: reg.Histogram("federated_frame_apply_seconds",
			"Feed frame merge latency into the global inventory."),
	})

	statePath := ""
	if o.ckptDir != "" {
		if err := os.MkdirAll(o.ckptDir, 0o755); err != nil {
			return fmt.Errorf("checkpoint dir: %w", err)
		}
		statePath = filepath.Join(o.ckptDir, StateFileName)
		var st federate.AggregatorState
		ok, err := checkpoint.ReadStateFile(statePath, &st)
		if err != nil {
			return fmt.Errorf("restore: %w", err)
		}
		if ok {
			if err := agg.ImportState(&st); err != nil {
				return fmt.Errorf("restore: %w", err)
			}
			fmt.Printf("restored aggregator state from %s: %d sites, %d services\n",
				statePath, len(st.Sites), len(st.Services))
		}
	}
	var stateWrites, stateWriteFails atomic.Int64
	writeState := func() {
		if statePath == "" {
			return
		}
		if err := checkpoint.WriteStateFile(statePath, agg.ExportState()); err != nil {
			stateWriteFails.Add(1)
			fmt.Fprintf(os.Stderr, "federated: state write: %v\n", err)
			return
		}
		stateWrites.Add(1)
	}

	// The global event stream: every first-anywhere discovery, site-tagged.
	if o.logEvents {
		sub := agg.Subscribe(globalLogBuffer)
		go func() {
			for ge := range sub.Events() {
				fmt.Printf("global: [%s] %s\n", ge.Site, ge.Event)
			}
		}()
	}

	health := make([]*feedHealth, len(o.feeds))
	for i, addr := range o.feeds {
		health[i] = newFeedHealth(o, agg, addr, reg.Flight())
		go func(h *feedHealth) { _ = h.fc.Run(sigCtx) }(health[i])
	}

	registerDaemonSeries(reg, agg, &stateWrites, &stateWriteFails)
	mirrorSites(reg, agg, health)
	srv := httpapi.Serve(o.httpAddr, newMux(agg, health, reg))
	if o.debugAddr != "" {
		httpapi.ServeDebug("federated", o.debugAddr, reg)
	}
	fmt.Printf("aggregating %d feeds; serving global inventory on %s (/dump, /services, /query, /sites, /metrics, /healthz)\n",
		len(o.feeds), o.httpAddr)

	var stateTick <-chan time.Time
	if statePath != "" && o.ckptEvery > 0 {
		t := time.NewTicker(o.ckptEvery)
		defer t.Stop()
		stateTick = t.C
	}
	var gcTick <-chan time.Time
	if o.tombGC > 0 {
		t := time.NewTicker(tombGCTick)
		defer t.Stop()
		gcTick = t.C
	}
	for {
		select {
		case <-gcTick:
			if n := agg.CollapseTombstones(o.tombGC); n > 0 {
				fmt.Printf("tombstone gc: collapsed %d retracted cells older than %s\n", n, o.tombGC)
			}
		case <-sigCtx.Done():
			writeState()
			srv.Drain()
			if statePath != "" {
				fmt.Printf("shutting down; aggregator state saved to %s\n", statePath)
			}
			return nil
		case err := <-srv.Err():
			writeState()
			return err
		case <-stateTick:
			writeState()
		}
	}
}

// tombGCTick is the wall-clock period at which -tombstone-gc drops the
// tombstones older than its horizon. Retractions must outlive any stale
// snapshot a site might replay (see Aggregator.CollapseTombstones), so the
// horizon is an operator call — typically hours to days — and is on the
// observation clock, measured back from the newest site watermark, never
// from wall time: a replayed trace's deadlines may lie years in the past.
// The tick is fixed and short: one as long as the horizon meant an
// aggregator restarted more often than that never collected at all.
const tombGCTick = time.Minute

// globalSource puts the aggregator's cross-site inventory (and its index)
// behind the shared HTTP surface.
type globalSource struct{ agg *federate.Aggregator }

func (s globalSource) View() httpapi.View { return globalView{s.agg.View()} }

func (s globalSource) Query(q query.Query) (query.Result, error) { return s.agg.Query(q) }

// globalView is the service table as of one flush. Pages walk the pinned
// tree from the cursor; the full dump is copied out only when the request
// gets past the ETag.
type globalView struct{ v federate.GlobalView }

func (v globalView) ETag() string { return fmt.Sprintf("\"agg-%d\"", v.v.Gen()) }

func (v globalView) Dump() any { return v.v.Services() }

func (v globalView) Walk(after *core.ServiceKey, f func(core.ServiceKey, any) bool) {
	v.v.Walk(after, func(g federate.GlobalService) bool { return f(g.Key, g) })
}

// registerDaemonSeries adds the aggregator-global series: everything here
// is a scrape-time callback over state the daemon maintains anyway, and
// the names are unchanged from the pre-registry /metrics emitter.
func registerDaemonSeries(reg *obs.Registry, agg *federate.Aggregator, stateWrites, stateWriteFails *atomic.Int64) {
	events := agg.EventCounters()
	reg.GaugeFunc("federated_sites",
		"Sites currently known to the aggregator.",
		func() float64 { return float64(len(agg.Sites())) })
	reg.GaugeFunc("federated_services",
		"Globally deduplicated services.",
		func() float64 { return float64(agg.NumServices()) })
	reg.CounterFunc("federated_global_events_published_total",
		"Global events published to subscribers.",
		func() float64 { return float64(events.In()) })
	reg.CounterFunc("federated_global_events_dropped_total",
		"Global events dropped by lagging subscribers.",
		func() float64 { return float64(events.Dropped()) })
	reg.CounterFunc("federated_state_writes_total",
		"Aggregator-state checkpoints written.",
		func() float64 { return float64(stateWrites.Load()) })
	reg.CounterFunc("federated_state_write_failures_total",
		"Aggregator-state checkpoint failures.",
		func() float64 { return float64(stateWriteFails.Load()) })
}

// siteSeries is the mirrored registry series for one site (or, for the
// last three fields, one feed address).
type siteSeries struct {
	events, dups, packets    *obs.Counter
	lastSeq, services, scans *obs.Gauge
	staleness                *obs.Gauge
}

// siteMirror copies the aggregator's per-site statistics (dynamic label
// set — sites appear as feeds deliver their hello frames) and the static
// per-feed churn counters into registry series right before each scrape
// (an OnScrape hook, so it may mint a series for a site seen first).
type siteMirror struct {
	agg *federate.Aggregator

	siteEvents, sitePackets, siteDups    *obs.CounterVec
	siteLastSeq, siteServices, siteScans *obs.GaugeVec
	siteStaleness                        *obs.GaugeVec

	feedConnects, feedDisconnects, feedDialErrors []*obs.Counter
	feedResumes, feedFallbacks, feedStalls        []*obs.Counter
	feedBackoff                                   []*obs.Gauge
	health                                        []*feedHealth

	mu    sync.Mutex
	sites map[federate.SiteID]*siteSeries
}

// mirrorSites registers the mirror's series and its scrape hook on reg.
func mirrorSites(reg *obs.Registry, agg *federate.Aggregator, health []*feedHealth) {
	m := &siteMirror{
		agg: agg, health: health,
		sites: make(map[federate.SiteID]*siteSeries),
		siteEvents: reg.CounterVec("federated_site_events_total",
			"Event frames applied from one site.", "site"),
		siteDups: reg.CounterVec("federated_site_dup_events_total",
			"Event frames skipped as duplicates (reconnect overlap).", "site"),
		sitePackets: reg.CounterVec("federated_site_packets_total",
			"Passive packet volume reported by one site.", "site"),
		siteLastSeq: reg.GaugeVec("federated_site_last_seq",
			"Per-site event-sequence high-water mark.", "site"),
		siteServices: reg.GaugeVec("federated_site_services",
			"Services one site contributes to the global inventory.", "site"),
		siteScans: reg.GaugeVec("federated_site_scans",
			"Completed active sweeps reported by one site.", "site"),
		siteStaleness: reg.GaugeVec("federated_feed_staleness_seconds",
			"Discovery staleness: the global observation watermark minus this site's watermark.", "site"),
	}
	connects := reg.CounterVec("federated_feed_connects_total",
		"Successful feed connections (first connect + reconnects).", "feed")
	disconnects := reg.CounterVec("federated_feed_disconnects_total",
		"Feed connections that ended (each one triggers a redial).", "feed")
	dialErrs := reg.CounterVec("federated_feed_dial_errors_total",
		"Failed dial attempts.", "feed")
	resumes := reg.CounterVec("federated_feed_resume_hits_total",
		"Connections the publisher resumed with a snapshot of the services changed past the cursor.", "feed")
	fallbacks := reg.CounterVec("federated_feed_snapshot_fallbacks_total",
		"Connections that re-bootstrapped from a full snapshot (epoch changed, cursor outside the stream, or first contact).", "feed")
	stalls := reg.CounterVec("federated_feed_throttle_stalls_total",
		"Frames the per-feed rate caps made wait.", "feed")
	backoff := reg.GaugeVec("federated_feed_backoff_seconds",
		"Un-jittered ceiling of the feed's next reconnect delay: the base while healthy, climbing toward the cap while failing.", "feed")
	for _, h := range health {
		m.feedConnects = append(m.feedConnects, connects.With(h.addr))
		m.feedDisconnects = append(m.feedDisconnects, disconnects.With(h.addr))
		m.feedDialErrors = append(m.feedDialErrors, dialErrs.With(h.addr))
		m.feedResumes = append(m.feedResumes, resumes.With(h.addr))
		m.feedFallbacks = append(m.feedFallbacks, fallbacks.With(h.addr))
		m.feedStalls = append(m.feedStalls, stalls.With(h.addr))
		m.feedBackoff = append(m.feedBackoff, backoff.With(h.addr))
	}
	reg.OnScrape(m.refresh)
}

// refresh mirrors the current aggregator and feed state into the registry
// series. Concurrent scrapes run it concurrently; m.mu spans the reads and
// the Sets, so a mirrored counter never steps back to an older reading.
func (m *siteMirror) refresh() {
	m.mu.Lock()
	defer m.mu.Unlock()
	stats := m.agg.Stats()
	stale := m.agg.Staleness()
	for _, st := range stats {
		s := m.sites[st.Site]
		if s == nil {
			name := string(st.Site)
			s = &siteSeries{
				events:    m.siteEvents.With(name),
				dups:      m.siteDups.With(name),
				packets:   m.sitePackets.With(name),
				lastSeq:   m.siteLastSeq.With(name),
				services:  m.siteServices.With(name),
				scans:     m.siteScans.With(name),
				staleness: m.siteStaleness.With(name),
			}
			m.sites[st.Site] = s
		}
		s.events.Set(st.Events)
		s.dups.Set(st.DupEvents)
		s.packets.Set(uint64(st.Packets))
		s.lastSeq.Set(float64(st.LastSeq))
		s.services.Set(float64(st.Services))
		s.scans.Set(float64(st.Scans))
		if d, ok := stale[st.Site]; ok {
			s.staleness.Set(d.Seconds())
		}
	}
	for i, h := range m.health {
		st := h.fc.Stats()
		m.feedConnects[i].Set(st.Connects)
		m.feedDisconnects[i].Set(st.Disconnects)
		m.feedDialErrors[i].Set(st.DialErrors)
		m.feedResumes[i].Set(st.ResumeHits)
		m.feedFallbacks[i].Set(st.SnapshotFallbacks)
		m.feedStalls[i].Set(st.ThrottleStalls)
		m.feedBackoff[i].Set(h.fc.NextBackoff().Seconds())
	}
}

// newMux builds the HTTP surface: the shared endpoints (/services,
// /query, /metrics, /debug/flight — see internal/httpapi) over the global
// inventory, plus the aggregator's own: /dump, /sites and the feed-aware
// /healthz.
func newMux(agg *federate.Aggregator, health []*feedHealth, reg *obs.Registry) *http.ServeMux {
	mux := httpapi.NewMux(globalSource{agg}, reg)
	mux.HandleFunc("/dump", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write(agg.Dump())
	})
	mux.HandleFunc("/sites", func(w http.ResponseWriter, r *http.Request) {
		stats := agg.Stats()
		if ls := r.URL.Query().Get("limit"); ls != "" {
			n, err := strconv.Atoi(ls)
			if err != nil || n <= 0 {
				http.Error(w, fmt.Sprintf("bad limit %q", ls), http.StatusBadRequest)
				return
			}
			if n < len(stats) {
				stats = stats[:n]
			}
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(stats)
	})
	// /healthz distinguishes "alive" from "useful", with a middle state
	// for partial partitions: every feed up is "ok", some feeds down is
	// "partial" (still 200 — the inventory is live, just missing vantage
	// points; the per-feed detail names the culprits and their backoff
	// state), and every feed down is "degraded" with a 503
	// (readiness-probe semantics: the aggregator serves only history).
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		type feedStatus struct {
			Addr              string  `json:"addr"`
			Site              string  `json:"site,omitempty"`
			Connected         bool    `json:"connected"`
			Connects          uint64  `json:"connects"`
			Disconnects       uint64  `json:"disconnects"`
			DialErrors        uint64  `json:"dial_errors"`
			ResumeHits        uint64  `json:"resume_hits"`
			SnapshotFallbacks uint64  `json:"snapshot_fallbacks"`
			BackoffSeconds    float64 `json:"backoff_seconds"`
		}
		feeds := make([]feedStatus, len(health))
		up := 0
		for i, h := range health {
			connected := h.connected.Load()
			if connected {
				up++
			}
			st := h.fc.Stats()
			feeds[i] = feedStatus{
				Addr: h.addr, Site: string(h.fc.Site()), Connected: connected,
				Connects:          st.Connects,
				Disconnects:       st.Disconnects,
				DialErrors:        st.DialErrors,
				ResumeHits:        st.ResumeHits,
				SnapshotFallbacks: st.SnapshotFallbacks,
				BackoffSeconds:    h.fc.NextBackoff().Seconds(),
			}
		}
		status, code := "ok", http.StatusOK
		switch {
		case up == 0:
			status, code = "degraded", http.StatusServiceUnavailable
		case up < len(health):
			status = "partial"
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		_ = json.NewEncoder(w).Encode(map[string]any{
			"status":   status,
			"sites":    len(agg.Sites()),
			"services": agg.NumServices(),
			"feeds":    feeds,
		})
	})
	return mux
}
