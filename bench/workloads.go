package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// inputs are one workload's generated corpora. The stages share one corpus
// where the workload's own stream is the natural input and take a
// dedicated one where it is not (see the workloads table).
type inputs struct {
	ingest *corpus // replayed, pass after pass, by the ingest stage
	fleet  *corpus // preloaded into the two publishing sites
	serve  *corpus // preloaded into the queried engine
}

// sizes scales the generated inputs. The committed numbers are measured
// on fullSizes; the smoke test runs the same code on smokeSizes.
type sizes struct {
	campusHours   int // simulated border stream length
	replayed      int // discovery-only stream the synthetic workloads replay
	fleetResident int // fleet_visibility: services resident across the two sites
	serveResident int // serve_under_churn: services resident in the queried engine
	// builds is how many times the corpus build — generation, pcap encode,
	// reference computation — runs; setup_s takes the median.
	builds int
}

// The replayed synthetic stream is kept small enough that a pass — with a
// snapshot, and an index patch of 8192 brand-new services, every 8192
// packets — fits its share of the window many times over.
var (
	fullSizes  = sizes{campusHours: 48, replayed: 32768, fleetResident: 200000, serveResident: 500000, builds: 3}
	smokeSizes = sizes{campusHours: 14, replayed: 4096, fleetResident: 8000, serveResident: 20000, builds: 1}
)

// workload is one named input shape. Every workload drives the whole chain
// — replay, federation, serving — so that every end-to-end metric has a
// value on every workload; what differs is the input each stage gets and
// which stage gets most of the window.
type workload struct {
	name  string
	why   string // one line, repeated in BENCHMARK.json
	build func(seed uint64, sz sizes) (*inputs, error)
	// share of the window each stage gets: ingest, fleet, serve.
	share [3]float64
}

func oneCorpus(c *corpus, err error) (*inputs, error) {
	if err != nil {
		return nil, err
	}
	return &inputs{ingest: c, fleet: c, serve: c}, nil
}

// synthInputs pairs the small replayed stream with a large resident one.
func synthInputs(seed uint64, replayed, resident int) (small, large *corpus, err error) {
	if small, err = newSynthCorpus(seed, replayed, true); err != nil {
		return nil, nil, err
	}
	large, err = newSynthCorpus(seed, resident, false)
	return small, large, err
}

var workloads = []workload{
	{
		name: "campus_hybrid",
		why:  "The paper's setup: 48 h flow-dominated border stream plus three sweep reports; per-packet decode, route, filter, dispatch and hybrid snapshots dominate, the inventory stays small.",
		build: func(seed uint64, sz sizes) (*inputs, error) {
			return oneCorpus(newCampusCorpus(seed, flowDominated, sz.campusHours))
		},
		share: [3]float64{0.5, 0.25, 0.25},
	},
	{
		name: "scan_storm",
		why:  "External scanners are ~80% of packets: scan-tracker growth, probes and resets that create no service, bursty seal deltas; a flow-path gain that costs the scan path shows here.",
		build: func(seed uint64, sz sizes) (*inputs, error) {
			return oneCorpus(newCampusCorpus(seed, scanDominated, sz.campusHours))
		},
		share: [3]float64{0.5, 0.25, 0.25},
	},
	{
		name: "fleet_visibility",
		why:  "Two sites of 100k services feed one aggregator over loopback TCP: encode, wire, decode and apply do the work; bootstrap is one huge snapshot frame, the live feed many small event frames.",
		build: func(seed uint64, sz sizes) (*inputs, error) {
			small, large, err := synthInputs(seed, sz.replayed, sz.fleetResident)
			return &inputs{ingest: small, fleet: large, serve: large}, err
		},
		share: [3]float64{0.25, 0.5, 0.25},
	},
	{
		name: "serve_under_churn",
		why:  "500k resident services queried with a fixed mix beside a 10 Hz producer that advances the index epoch: reads beside writes, and the inventory held twice shows as bytes per service.",
		build: func(seed uint64, sz sizes) (*inputs, error) {
			small, large, err := synthInputs(seed, sz.replayed, sz.serveResident)
			// Bootstrapping half a million services several times would eat
			// the window, so the sites start from the small corpus here.
			return &inputs{ingest: small, fleet: small, serve: large}, err
		},
		share: [3]float64{0.25, 0.25, 0.5},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// options are the knobs of one run.
type options struct {
	seed   uint64
	window time.Duration // total measuring time of the run
	traced bool
	outDir string
	sizes  sizes
}

// stageWindows splits the window by the workload's shares.
func (w workload) stageWindows(window time.Duration) (ingest, fleet, serve time.Duration) {
	part := func(s float64) time.Duration { return time.Duration(float64(window) * s) }
	return part(w.share[0]), part(w.share[1]), part(w.share[2])
}

// run drives one workload: set-up, then the three stages one after the
// other, each building and releasing its own resident state. A traced run
// gives the untraced stages half the window (the end-to-end numbers always
// come from them) and repeats each stage under spans in the other half.
func (w workload) run(opt options) (*report, error) {
	rep := &report{
		workload: w.name, seed: opt.seed, traced: opt.traced,
		values: make(map[string]float64), layers: make(map[string]float64),
	}
	var gc0 debug.GCStats
	debug.ReadGCStats(&gc0)

	// Set-up: the corpus build is repeated and its median taken; the
	// stages add their preloads as they happen.
	var in *inputs
	var builds []float64
	for i := 0; i < opt.sizes.builds; i++ {
		t0 := time.Now()
		var err error
		if in, err = w.build(opt.seed, opt.sizes); err != nil {
			return nil, fmt.Errorf("%s: building inputs: %w", w.name, err)
		}
		builds = append(builds, time.Since(t0).Seconds())
	}
	setup := median(builds)

	window := opt.window
	var ingestTr, serveTr, fleetTr *tracer
	if opt.traced {
		window /= 2
		ingestTr, serveTr, fleetTr = newTracer(), newTracer(), newTracer()
	}
	ingestWin, fleetWin, serveWin := w.stageWindows(window)

	if err := rep.replayStage(in.ingest, ingestWin, ingestTr); err != nil {
		return nil, fmt.Errorf("%s: replay: %w", w.name, err)
	}
	// Serving runs before the fleet so that its heap reading brackets
	// nothing but its own resident state. Each stage starts from a
	// collected heap: the previous stage's garbage is not its business.
	runtime.GC()
	servePreload, err := rep.serveStage(in.serve, opt.seed, serveWin, serveTr)
	if err != nil {
		return nil, fmt.Errorf("%s: serve: %w", w.name, err)
	}
	setup += servePreload
	runtime.GC()
	preload, err := rep.fleetStage(in.fleet, fleetWin, fleetTr)
	if err != nil {
		return nil, fmt.Errorf("%s: fleet: %w", w.name, err)
	}
	setup += preload
	rep.note("setup: corpus builds %.3f s (median %.3f), serve preload %.3f s, fleet preload %.3f s",
		builds, median(builds), servePreload, preload)

	rep.values["setup_s"] = setup
	rep.correct = len(rep.problems) == 0
	if opt.traced {
		for _, m := range demoted {
			rep.layers[m.Name] = rep.values[m.Name]
		}
		var gc1 debug.GCStats
		debug.ReadGCStats(&gc1)
		rep.layers["go_runtime.gc_cycles"] = float64(gc1.NumGC - gc0.NumGC)
		rep.layers["go_runtime.gc_pause_total_ms"] = ms(gc1.PauseTotal - gc0.PauseTotal)
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
			rep.layers["go_runtime.peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
		ingestTr.merge(serveTr)
		ingestTr.merge(fleetTr)
		path, err := ingestTr.write(opt.outDir, w.name, opt.seed)
		if err != nil {
			return nil, fmt.Errorf("%s: writing spans: %w", w.name, err)
		}
		rep.note("spans written to %s", path)
	}
	return rep, nil
}

// replayStage replays the corpus through the production pipeline for the
// window. A traced run then repeats the replay inline — untraced first, as
// the single-threaded baseline, then under spans — and fills in the replay
// layers' metrics and the span-versus-instrument cross-check.
func (rep *report) replayStage(c *corpus, window time.Duration, tr *tracer) error {
	piped, err := runPasses(window, nil, c.pipelinePass)
	if err != nil {
		return err
	}
	rep.values["ingest_pkts_per_s"] = median(piped.passRates)
	rep.countReplay("replay", piped)
	rep.note("ingest: %d passes of %d packets, pass rate min %.0f max %.0f packets/s; %d services in the reference",
		len(piped.passRates), c.packets, quantile(piped.passRates, 0), quantile(piped.passRates, 1), len(c.refKeys))
	if tr == nil {
		return nil
	}

	base, err := runPasses(window/3, nil, func() (passResult, error) { return c.inlinePass(nil) })
	if err != nil {
		return err
	}
	start := time.Now()
	traced, err := runPasses(window*2/3, tr, func() (passResult, error) { return c.inlinePass(tr) })
	if err != nil {
		return err
	}
	wall := time.Since(start)
	// Coverage is taken before the standalone filter loop below adds its
	// own spans: it is about the replay passes.
	covered := tr.selfTotal()
	rep.countReplay("inline replay", base)
	rep.countReplay("traced replay", traced)

	pkts := float64(traced.packets)
	passes := float64(len(traced.passRates))
	perPkt := func(d time.Duration) float64 { return share(float64(d), pkts) }
	L := rep.layers
	L["trace.read_ns_per_pkt"] = perPkt(tr.get("trace.read").Total)
	L["packet.decode_ns_per_pkt"] = perPkt(tr.get("packet.decode").Total)
	L["packet.decode_failed"] = float64(traced.undecodable)
	L["capture.route_filter_ns_per_pkt"] = perPkt(tr.get("capture.route_filter").Self)
	L["capture.kept_share"] = share(float64(traced.kept), pkts)
	L["capture.unmonitored_dropped"] = share(float64(traced.unmonitored), passes)
	dispatch, seal, hybrid := tr.get("core.dispatch_apply"), tr.get("core.seal_merge"), tr.get("core.hybrid_report")
	L["core.dispatch_apply_ns_per_pkt"] = perPkt(dispatch.Total)
	L["core.seal_merge_ms_per_snapshot"] = share(ms(seal.Self), float64(seal.Count))
	L["core.hybrid_report_ms"] = share(ms(hybrid.Total), float64(hybrid.Count))
	L["core.allocs_per_pkt"] = share(float64(traced.mallocs), pkts)
	L["core.snapshots"] = share(float64(traced.snapshots), passes)
	L["core.scanners_detected"] = float64(traced.scanners)
	L["core.events_published"] = float64(traced.events)
	L["servdisc.ingest_batch_ns_per_pkt"] = share(float64(piped.batchSum), float64(piped.packets))
	L["obs.dispatch_sum_s"] = traced.dispatchSum.Seconds()
	L["obs.apply_sum_s"] = piped.applySum.Seconds()
	L["obs.snapshot_merge_sum_s"] = traced.snapshotSum.Seconds()
	L["bench.trace_overhead_share"] = 1 - share(median(traced.passRates), median(base.passRates))
	L["bench.span_coverage_share"] = share(float64(covered), float64(wall))

	// The bench and /metrics must not silently diverge: the harness's
	// spans and the engine's own histograms time the same calls.
	rep.crossCheck("core.dispatch_apply spans vs servdisc_ingest_dispatch_seconds", dispatch.Total, traced.dispatchSum)
	rep.crossCheck("core.seal_merge spans vs servdisc_snapshot_merge_seconds", seal.Total, traced.snapshotSum)

	L["filter.match_ns_per_pkt"], err = c.filterMatchNs(tr)
	return err
}

// countReplay adds one set of replay passes to the operation counts and
// checks its correctness gate.
func (rep *report) countReplay(what string, r ingestResult) {
	rep.attempted += r.packets
	rep.failed += r.undecodable + r.dropped
	if r.mismatched > 0 {
		rep.problem("%s: %d of %d passes did not reproduce the sequential reference dump", what, r.mismatched, len(r.passRates))
	}
}

// crossCheck notes the harness's span total beside the production
// instrument's sum for the same calls and flags a disagreement over 15%.
func (rep *report) crossCheck(what string, spans, instrument time.Duration) {
	verdict := "agree"
	if diff := share(float64(spans-instrument), float64(instrument)); diff > 0.15 || diff < -0.15 {
		verdict = "DISAGREE by more than 15%"
	}
	rep.note("cross-check %s: %.3f s vs %.3f s: %s", what, spans.Seconds(), instrument.Seconds(), verdict)
}

// serveStage preloads the queried engine (returning the seconds that
// took), runs the query mix beside the producer for the window and, in a
// traced run, once more under spans.
func (rep *report) serveStage(c *corpus, seed uint64, window time.Duration, tr *tracer) (preload float64, err error) {
	t0 := time.Now()
	sv, err := newServeStage(c, seed)
	if err != nil {
		return 0, err
	}
	defer sv.engine.Close()
	preload = time.Since(t0).Seconds()

	sr := sv.run(window, nil)
	rep.values["query_mix_per_s"] = median(sr.queryRates(window))
	rep.values["epoch_advance_p50_ms"] = median(sr.epochMs)
	rep.values["heap_bytes_per_service"] = sv.heapPerService
	rep.countQueries("serve", sr)
	rep.note("serve: %d resident services, %d queries, %d epochs: p50 %.3f p90 %.3f ms",
		sr.resident, sr.attempted, len(sr.epochMs), median(sr.epochMs), quantile(sr.epochMs, 0.9))
	if tr == nil {
		return preload, nil
	}

	traced := sv.run(window, tr)
	rep.countQueries("traced serve", traced)
	L := rep.layers
	patch := tr.get("query.apply_delta")
	L["query.apply_delta_ms_per_epoch"] = share(ms(patch.Total), float64(traced.epochs))
	L["query.apply_delta_us_per_churned"] = share(float64(patch.Total.Microseconds()), float64(traced.churned))
	each := func(name string, per int) float64 {
		a := tr.get(name)
		return share(float64(a.Total), float64(a.Count*per))
	}
	L["query.point_ns"] = each("query.point", pointsPerRound)
	L["query.port_page_us"] = each("query.port_page", 1) / 1e3
	L["query.prefix24_page_us"] = each("query.prefix24_page", 1) / 1e3
	L["query.provenance_page_us"] = each("query.provenance_page", 1) / 1e3
	L["query.epochs"] = float64(traced.epochs)
	rep.note("serve under spans ran at %.1f%% of the untraced query rate",
		100*share(median(traced.queryRates(window)), median(sr.queryRates(window))))
	return preload, nil
}

func (rep *report) countQueries(what string, r serveResult) {
	rep.attempted += r.attempted
	rep.failed += r.failed
	if r.failed > 0 {
		rep.problem("%s: %d of %d queries failed; first: %s", what, r.failed, r.attempted, r.firstFailed)
	}
}

// fleetStage preloads two sites (returning the seconds that took) and runs
// bootstrap, paced and saturate against live feeds. A traced run then
// steps frames through the codec and the aggregator by hand on a fresh
// pair of sites; the counters only a live feed produces come from the
// untraced run.
func (rep *report) fleetStage(c *corpus, window time.Duration, tr *tracer) (preload float64, err error) {
	t0 := time.Now()
	fl, err := newFleet(c)
	if err != nil {
		return 0, err
	}
	preload = time.Since(t0).Seconds()
	live, err := fl.run(window)
	fl.close()
	if err != nil {
		return 0, err
	}
	lat := live.paced.latencyMs
	rep.values["visibility_p50_ms"] = median(lat)
	rep.values["fleet_services_per_s"] = median(live.saturated.windowRates)
	rep.values["bootstrap_services_per_s"] = median(live.bootstrapRates)
	rep.values["wire_bytes_per_service"] = share(float64(live.paced.wireBytes), float64(live.paced.sent))
	rep.attempted += live.attempted
	rep.failed += live.failed
	rep.problems = append(rep.problems, live.problems...)
	rep.note("fleet: %d resident services, %d bootstraps; paced %d services at %d/s: p50 %.3f p90 %.3f p99 %.3f ms over %d samples, generator late by at most %.2f ms; saturate %d services in %d windows",
		live.resident, len(live.bootstrapRates), live.paced.sent, pacedRate, median(lat), quantile(lat, 0.9), quantile(lat, 0.99), len(lat),
		live.paced.lateMaxMs, live.saturated.sent, len(live.saturated.windowRates))
	if tr == nil {
		return preload, nil
	}

	runtime.GC()
	if fl, err = newFleet(c); err != nil {
		return 0, err
	}
	st, err := fl.stepped(tr, window)
	fl.close()
	if err != nil {
		return 0, err
	}
	rep.problems = append(rep.problems, st.problems...)
	rep.attempted += st.frames
	L := rep.layers
	perFrame := func(name string) float64 { return share(float64(tr.get(name).Total), float64(st.frames)) }
	L["federate.build_snapshot_ms"] = st.buildSnapshotMs
	L["federate.encode_ns_per_frame"] = perFrame("federate.encode")
	L["federate.decode_ns_per_frame"] = perFrame("federate.decode")
	L["federate.apply_ns_per_frame"] = perFrame("federate.apply")
	L["federate.frame_bytes_mean"] = share(float64(st.frameBytes), float64(st.frames))
	L["federate.snapshot_frame_bytes"] = float64(st.snapshotFrameBytes)
	L["federate.query_refresh_ms"] = median(live.refreshMs)
	L["federate.first_query_ms"] = live.firstQueryMs
	L["federate.pump_dropped"] = float64(live.pumpDropped)
	L["federate.resume_hits"] = float64(live.resumeHits)
	L["federate.snapshot_fallbacks"] = float64(live.snapshotFallbacks)
	L["federate.visibility_p90_ms"] = quantile(lat, 0.9)
	L["federate.visibility_p99_ms"] = quantile(lat, 0.99)
	L["federate.generator_late_max_ms"] = live.paced.lateMaxMs
	L["pipeline.event_hub_dropped"] = float64(live.eventHubDropped)
	L["pipeline.frame_hub_dropped"] = float64(live.frameHubDropped)
	return preload, nil
}
