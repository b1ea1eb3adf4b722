package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"servdisc"
	"servdisc/internal/campus"
	"servdisc/internal/capture"
	"servdisc/internal/core"
	"servdisc/internal/filter"
	"servdisc/internal/obs"
	"servdisc/internal/packet"
	"servdisc/internal/pipeline"
	"servdisc/internal/probe"
	"servdisc/internal/query"
)

const (
	// engineShards fixes the passive shard count, so results do not depend
	// on the host's core count.
	engineShards = 2
	// snapshotEvery is the replay's snapshot cadence in packets.
	snapshotEvery = 8192
)

// ingestResult is what the replay stage measured over its passes.
type ingestResult struct {
	passRates   []float64 // packets/s, one per pass
	snapshotMs  []float64 // every mid-stream Snapshot() call
	packets     int       // packets read over all passes
	undecodable int
	dropped     int // packets the engine discarded after close
	mismatched  int // passes whose final dump differed from the reference
	snapshots   int
	scanners    int // detected by the last pass
	events      int // published by the last pass

	// Production instruments read back from each pass's registry, summed.
	dispatchSum, applySum, snapshotSum, batchSum time.Duration

	// Capture-chain counters, summed over the passes.
	kept, unmonitored int

	mallocs uint64 // heap allocations over all passes (traced run only)
}

func (r *ingestResult) add(p passResult) {
	r.passRates = append(r.passRates, float64(p.read)/p.elapsed.Seconds())
	r.snapshotMs = append(r.snapshotMs, p.snapshotMs...)
	r.packets += p.read
	r.undecodable += p.undecodable
	r.dropped += p.dropped
	r.snapshots += len(p.snapshotMs) + 1
	if !p.match {
		r.mismatched++
	}
	r.scanners, r.events = p.scanners, p.events
	r.dispatchSum += p.dispatchSum
	r.applySum += p.applySum
	r.snapshotSum += p.snapshotSum
	r.batchSum += p.batchSum
	r.kept += p.kept
	r.unmonitored += p.unmonitored
}

// passResult is one replay pass: pcap bytes in, final Flush+Snapshot out.
type passResult struct {
	read, undecodable, dropped int
	elapsed                    time.Duration
	snapshotMs                 []float64
	match                      bool
	scanners, events           int
	kept, unmonitored          int

	dispatchSum, applySum, snapshotSum, batchSum time.Duration
}

// replayTarget is the slice of an assembled engine the replay loop drives;
// the facade pipeline and the harness's inline chain both satisfy it.
type replayTarget interface {
	HandleBatch(batch []packet.Packet)
	AddReport(rep *probe.ScanReport)
	Snapshot() *core.Inventory
	Flush()
}

// drive replays the corpus into the target: sweep reports injected at
// their stream positions, a snapshot every snapshotEvery packets, and a
// final flush and snapshot that ends the timed region.
func (c *corpus) drive(tr *tracer, tgt replayTarget) (passResult, *core.Inventory, error) {
	var res passResult
	next := 0
	start := time.Now()
	read, bad, err := c.replay(tr, func(batch []packet.Packet, before int) {
		for next < len(c.reports) && c.reportAt[next] <= before {
			tgt.AddReport(c.reports[next])
			next++
		}
		tgt.HandleBatch(batch)
		if after := before + len(batch); after/snapshotEvery > before/snapshotEvery {
			s0 := time.Now()
			tgt.Snapshot()
			res.snapshotMs = append(res.snapshotMs, ms(time.Since(s0)))
		}
	})
	if err != nil {
		return res, nil, err
	}
	for ; next < len(c.reports); next++ {
		tgt.AddReport(c.reports[next])
	}
	tgt.Flush()
	inv := tgt.Snapshot()
	res.elapsed = time.Since(start)
	res.read, res.undecodable = read, bad
	return res, inv, nil
}

// pipelinePass is the production path: a fresh servdisc.Pipeline with the
// query index on and its workers running.
func (c *corpus) pipelinePass() (passResult, error) {
	p, err := servdisc.NewPipeline(servdisc.Config{
		Campus:     c.prefix.String(),
		Shards:     engineShards,
		Academic:   c.academic,
		QueryIndex: true,
	})
	if err != nil {
		return passResult{}, err
	}
	p.Run(context.Background())
	res, inv, err := c.drive(nil, p)
	p.Close()
	if err != nil {
		return res, err
	}
	res.match = bytes.Equal(inv.Dump(), c.refDump)
	res.scanners = len(inv.Scanners())
	res.events = p.EventCounters().In()
	res.dropped = p.IngestCounters().Dropped()
	mon := p.Monitor().Counters()
	res.unmonitored = mon.Dropped()
	for _, l := range []capture.LinkID{capture.LinkCommercial1, capture.LinkCommercial2} {
		if tap, ok := p.Monitor().Tap(l); ok {
			res.kept += tap.Delivered()
		}
	}
	reg := p.Metrics()
	res.dispatchSum = reg.Histogram("servdisc_ingest_dispatch_seconds", "").Sum()
	res.applySum = reg.Histogram("servdisc_ingest_apply_seconds", "").Sum()
	res.snapshotSum = reg.Histogram("servdisc_snapshot_merge_seconds", "").Sum()
	res.batchSum = reg.Histogram("servdisc_ingest_batch_seconds", "").Sum()
	return res, nil
}

// indexObserver keeps a query catalog in step with an engine's snapshot
// stream the way the facade does — a delta patch while the lineage holds,
// a rebuild when it breaks — with a span around each call into the query
// layer and a tally of the keys each patch moved.
type indexObserver struct {
	cat     *query.Catalog
	prev    *core.Inventory
	tr      *tracer
	patches int
	churned int
}

func (x *indexObserver) observe(prev, inv *core.Inventory, d core.SnapshotDelta) {
	if d.Full || prev != x.prev {
		x.tr.begin("query.rebuild")
		x.cat.RebuildFromInventory(inv)
	} else {
		x.tr.begin("query.apply_delta")
		x.cat.ApplyDelta(inv, d)
		x.patches++
		x.churned += len(d.Added) + len(d.Updated) + len(d.Removed)
	}
	x.tr.end()
	x.prev = inv
}

// inlineChain is the harness's own assembly of the replay path — monitor,
// taps, a span-recording shim, the hybrid engine and an observed catalog —
// run without workers. It exists so spans can sit between the modules; the
// facade does not expose those seams.
type inlineChain struct {
	tr      *tracer
	engine  *core.Hybrid
	monitor *capture.Monitor
	taps    []*capture.Tap
	index   *indexObserver

	dispatch, snapshot *obs.Histogram
}

func (c *corpus) newInlineChain(tr *tracer) (*inlineChain, error) {
	ch := &inlineChain{tr: tr}
	tr.begin("core.new")
	ch.engine = core.NewHybrid(c.prefix, campus.SelectedUDPPorts, engineShards, nil)
	reg := obs.NewRegistry()
	ch.dispatch = reg.Histogram("servdisc_ingest_dispatch_seconds", "harness copy of the production instrument")
	ch.snapshot = reg.Histogram("servdisc_snapshot_merge_seconds", "harness copy of the production instrument")
	ch.engine.SetMetrics(&core.EngineMetrics{Dispatch: ch.dispatch, Snapshot: ch.snapshot, Flight: reg.Flight()})
	tr.end()

	ch.index = &indexObserver{cat: query.NewCatalog(0), tr: tr}
	ch.engine.OnSnapshot(ch.index.observe)
	ch.engine.Passive().OnSnapshot(ch.index.observe)

	shim := pipeline.BatchFunc(func(batch []packet.Packet) {
		tr.begin("core.dispatch_apply")
		ch.engine.HandleBatch(batch)
		tr.end()
	})
	for _, link := range []capture.LinkID{capture.LinkCommercial1, capture.LinkCommercial2} {
		tap, err := capture.NewTap(link, capture.PaperFilter, nil, shim)
		if err != nil {
			return nil, err
		}
		ch.taps = append(ch.taps, tap)
	}
	ch.monitor = capture.NewMonitor(capture.NewAssigner(c.prefix, c.academic), ch.taps...)
	return ch, nil
}

func (ch *inlineChain) HandleBatch(batch []packet.Packet) {
	ch.tr.begin("capture.route_filter")
	ch.monitor.HandleBatch(batch)
	ch.tr.end()
}

func (ch *inlineChain) AddReport(rep *probe.ScanReport) {
	ch.tr.begin("core.hybrid_report")
	ch.engine.AddReport(rep)
	ch.tr.end()
}

// Snapshot mirrors the facade: the hybrid view once any sweep report has
// been reconciled, the passive one before.
func (ch *inlineChain) Snapshot() *core.Inventory {
	ch.tr.begin("core.seal_merge")
	defer ch.tr.end()
	if ch.engine.SeenReports() {
		return ch.engine.Snapshot()
	}
	return ch.engine.Passive().Snapshot()
}

func (ch *inlineChain) Flush() { ch.engine.Flush() }

// inlinePass replays the corpus through a fresh inline chain. With a nil
// tracer it is the single-threaded untraced baseline the traced passes'
// overhead is measured against.
func (c *corpus) inlinePass(tr *tracer) (passResult, error) {
	ch, err := c.newInlineChain(tr)
	if err != nil {
		return passResult{}, err
	}
	res, inv, err := c.drive(tr, ch)
	ch.engine.Close()
	if err != nil {
		return res, err
	}
	tr.begin("core.dump")
	dump := inv.Dump()
	tr.end()
	res.match = bytes.Equal(dump, c.refDump)
	res.scanners = len(inv.Scanners())
	res.events = ch.engine.EventCounters().In()
	res.dropped = ch.engine.Passive().Counters().Dropped()
	res.unmonitored = ch.monitor.Dropped()
	for _, tap := range ch.taps {
		res.kept += tap.Delivered()
	}
	res.dispatchSum, res.snapshotSum = ch.dispatch.Sum(), ch.snapshot.Sum()
	return res, nil
}

// runPasses repeats pass for the window, and at least once.
func runPasses(window time.Duration, tr *tracer, pass func() (passResult, error)) (ingestResult, error) {
	var out ingestResult
	runtime.GC()
	var m0, m1 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&m0)
	}
	for start, n := time.Now(), 0; n == 0 || time.Since(start) < window; n++ {
		tr.setPass(n)
		res, err := pass()
		if err != nil {
			return out, err
		}
		out.add(res)
	}
	if tr != nil {
		runtime.ReadMemStats(&m1)
		out.mallocs = m1.Mallocs - m0.Mallocs
	}
	return out, nil
}

// filterMatchNs prices the capture filter alone: Filter.Match over every
// decoded packet of the corpus, outside any chain.
func (c *corpus) filterMatchNs(tr *tracer) (float64, error) {
	flt, err := filter.Compile(capture.PaperFilter)
	if err != nil {
		return 0, err
	}
	matched := 0
	read, _, err := c.replay(nil, func(batch []packet.Packet, _ int) {
		tr.begin("filter.match")
		for i := range batch {
			if flt.Match(&batch[i]) {
				matched++
			}
		}
		tr.end()
	})
	if err != nil {
		return 0, err
	}
	if matched == 0 {
		return 0, fmt.Errorf("capture filter matched none of %d packets", read)
	}
	return float64(tr.get("filter.match").Total) / float64(read), nil
}
