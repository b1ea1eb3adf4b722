package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"servdisc/internal/campus"
	"servdisc/internal/core"
	"servdisc/internal/federate"
	"servdisc/internal/netaddr"
	"servdisc/internal/packet"
	"servdisc/internal/pipeline"
	"servdisc/internal/query"
)

const (
	// pacedRate is the open-loop offered load of the paced phase, in new
	// services per second across both sites.
	pacedRate = 10000
	// saturateWindow bounds the services outstanding in the closed-loop
	// phase, so the bounded hubs on the path never overflow and nothing is
	// dropped: the phase measures capacity, not loss.
	saturateWindow = 4096
	// visibilityDeadline is how long a service may take to appear
	// globally before it counts as a failed operation.
	visibilityDeadline = 5 * time.Second
	// A fresh aggregator dials in at least minBootstraps times. A small
	// inventory bootstraps in milliseconds, which three samples cannot pin
	// down, so the dials repeat (up to maxBootstraps) until they have taken
	// a tenth of the stage's window.
	minBootstraps = 3
	maxBootstraps = 41
	// throughputWindows is how many windows a closed-loop phase is cut
	// into; the reported rate is their median.
	throughputWindows = 20
	// queryEvery samples the global inventory in the query gate.
	queryEvery = 64
)

// countingListener hands out connections that count the bytes written to
// them — the harness's view of what the feeds put on the wire.
type countingListener struct {
	net.Listener
	written *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, written: l.written}, nil
}

type countingConn struct {
	net.Conn
	written *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written.Add(int64(n))
	return n, err
}

// fleetSite is one publishing vantage point: an inline one-shard engine
// and its publisher, served on a loopback listener.
type fleetSite struct {
	id     federate.SiteID
	engine *core.ShardedPassive
	pub    *federate.Publisher
	addr   string
	batch  []packet.Packet
}

// fleet is the federation stage's system under test: two sites, their
// feeds, and whichever aggregator currently subscribes to them.
type fleet struct {
	c       *corpus
	sites   [2]*fleetSite
	written atomic.Int64
	ctx     context.Context
	stop    context.CancelFunc
	serving sync.WaitGroup
	bld     *packet.Builder

	// Fresh services are numbered from 0; due and arrived hold, per
	// service, when the generator was due to emit it and when it surfaced
	// on the aggregator's global stream (nanoseconds since t0; 0 = never).
	t0      time.Time
	due     []atomic.Int64
	arrived []atomic.Int64
	next    int // first unused fresh index
	seen    atomic.Int64
	tokens  chan struct{}
}

// newFleet builds both sites, splits the corpus across them by the parity
// of the campus-side address, freezes each site's first snapshot and
// starts serving. That is the fleet's share of set-up.
func newFleet(c *corpus) (*fleet, error) {
	f := &fleet{
		c:       c,
		bld:     packet.NewBuilder(0),
		t0:      time.Now(),
		due:     make([]atomic.Int64, freshAddrs*synthPortsPerAddr),
		arrived: make([]atomic.Int64, freshAddrs*synthPortsPerAddr),
		tokens:  make(chan struct{}, saturateWindow),
	}
	f.ctx, f.stop = context.WithCancel(context.Background())
	for i := range f.sites {
		f.sites[i] = &fleetSite{
			id:     federate.SiteID(fmt.Sprintf("site-%d", i)),
			engine: core.NewShardedPassive(c.prefix, campus.SelectedUDPPorts, 1),
		}
	}
	if _, _, err := c.replay(nil, func(batch []packet.Packet, _ int) {
		for i := range batch {
			p := &batch[i]
			owner := p.IPv4.Dst
			if c.prefix.Contains(p.IPv4.Src) {
				owner = p.IPv4.Src
			}
			f.sites[owner&1].add(p)
		}
	}); err != nil {
		f.stop()
		return nil, err
	}
	for _, s := range f.sites {
		s.flush()
		s.engine.Snapshot()
		s.pub = federate.NewPublisher(s.id, s.engine)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, err
		}
		s.addr = ln.Addr().String()
		f.serving.Add(1)
		go func() {
			defer f.serving.Done()
			_ = s.pub.Serve(f.ctx, countingListener{Listener: ln, written: &f.written})
		}()
	}
	for i := 0; i < saturateWindow; i++ {
		f.tokens <- struct{}{}
	}
	return f, nil
}

func (s *fleetSite) add(p *packet.Packet) {
	s.batch = append(s.batch, *p)
	if len(s.batch) == batchSize {
		s.flush()
	}
}

func (s *fleetSite) flush() {
	if len(s.batch) > 0 {
		s.engine.HandleBatch(s.batch)
		s.batch = s.batch[:0]
	}
}

// close ends the feeds and waits for the listeners to stop. Engines close
// first: that ends each publisher's pump, which Publisher.Close waits on.
func (f *fleet) close() {
	f.stop()
	for _, s := range f.sites {
		s.engine.Close()
		if s.pub != nil {
			s.pub.Close()
		}
	}
	f.serving.Wait()
}

func (f *fleet) resident() int {
	n := 0
	for _, s := range f.sites {
		n += s.engine.Snapshot().Len()
	}
	return n
}

// subscriber is one aggregator fed by both sites over loopback TCP.
type subscriber struct {
	agg     *federate.Aggregator
	clients []*federate.FeedClient
	cancel  context.CancelFunc
	done    sync.WaitGroup
}

// dial starts a fresh aggregator and one feed client per site, and returns
// once both have applied their bootstrap and the aggregator holds want
// services — the bootstrap the stage times.
func (f *fleet) dial(want int) (*subscriber, time.Duration, error) {
	ctx, cancel := context.WithCancel(f.ctx)
	sub := &subscriber{agg: federate.NewAggregator(), cancel: cancel}
	start := time.Now()
	for _, s := range f.sites {
		fc := federate.NewFeedClient(sub.agg, s.addr, federate.FeedOptions{})
		sub.clients = append(sub.clients, fc)
		sub.done.Add(1)
		go func() {
			defer sub.done.Done()
			_ = fc.Run(ctx)
		}()
	}
	deadline := start.Add(time.Minute)
	for {
		ready := true
		for _, fc := range sub.clients {
			// Hello and snapshot are the first two frames of a feed.
			ready = ready && fc.Stats().FramesApplied >= 2
		}
		if ready && sub.agg.NumServices() == want {
			return sub, time.Since(start), nil
		}
		if time.Now().After(deadline) {
			sub.hangUp()
			return nil, 0, fmt.Errorf("bootstrap: aggregator holds %d of %d services after a minute", sub.agg.NumServices(), want)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func (s *subscriber) hangUp() {
	s.cancel()
	s.done.Wait()
	s.agg.Close()
}

// freshClient is the external peer every fresh service answers.
var freshClient = packet.Endpoint{Addr: netaddr.MustParseV4("64.10.0.1"), Port: 40000}

// mint builds the accept response announcing fresh service k and queues it
// on the site that owns it (k's parity).
func (f *fleet) mint(k int, now time.Time) {
	f.due[k].Store(int64(now.Sub(f.t0)))
	p := f.bld.SynAck(f.c.epoch.Add(time.Duration(k)*time.Microsecond), synthEndpoint(f.c.newBase, k), freshClient, 1, 1)
	f.sites[k&1].add(p)
}

func (f *fleet) flushSites() {
	for _, s := range f.sites {
		s.flush()
	}
}

// watch consumes the aggregator's global event stream until it closes,
// recording when each fresh service surfaced and returning one
// closed-loop token per service.
func (f *fleet) watch(sub *subscriber) (done chan struct{}, dropped func() int) {
	// The buffer holds many closed-loop windows' worth of events, so the
	// hub only drops if this goroutine stalls for seconds at the paced
	// rate; a drop shows up as a service that never surfaced.
	events := sub.agg.Subscribe(1 << 16)
	done = make(chan struct{})
	go func() {
		defer close(done)
		for ev := range events.Events() {
			if ev.Event.Kind != core.EventServiceDiscovered {
				continue
			}
			k, ok := synthIndex(f.c.newBase, ev.Event.Key)
			if !ok || k >= len(f.arrived) {
				continue
			}
			if f.arrived[k].CompareAndSwap(0, int64(time.Since(f.t0))) {
				f.seen.Add(1)
				select {
				case f.tokens <- struct{}{}:
				default:
				}
			}
		}
	}()
	return done, events.Dropped
}

// awaitSeen waits until n fresh services have surfaced or the visibility
// deadline passes, and returns how many are still missing.
func (f *fleet) awaitSeen(n int) int {
	deadline := time.Now().Add(visibilityDeadline)
	for int(f.seen.Load()) < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return n - int(f.seen.Load())
}

// latenciesMs returns due→arrived for the fresh services [lo, hi) that
// surfaced, and their arrival offsets from start.
func (f *fleet) latenciesMs(lo, hi int, start time.Time) (lat []float64, at []time.Duration) {
	origin := int64(start.Sub(f.t0))
	for k := lo; k < hi; k++ {
		a := f.arrived[k].Load()
		if a == 0 {
			continue
		}
		lat = append(lat, float64(a-f.due[k].Load())/1e6)
		at = append(at, time.Duration(a-origin))
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	return lat, at
}

// pacedResult is the open-loop phase.
type pacedResult struct {
	sent, missing int
	latencyMs     []float64
	lateMaxMs     float64
	wireBytes     int64
}

// paced offers pacedRate new services per second on 1 ms ticks for dur.
// Each service is stamped with the time it was due, not the time the
// generator got round to it, so a stall charges the services queued
// behind it.
func (f *fleet) paced(dur time.Duration) pacedResult {
	var res pacedResult
	lo := f.next
	total := int(dur.Seconds() * pacedRate)
	if room := len(f.due) - lo; total > room {
		total = room
	}
	wire0 := f.written.Load()
	start := time.Now()
	for sent := 0; sent < total; {
		now := time.Now()
		elapsed := now.Sub(start)
		dueCount := min(int(elapsed.Seconds()*pacedRate)+1, total)
		for ; sent < dueCount; sent++ {
			dueAt := start.Add(time.Duration(float64(sent) / pacedRate * float64(time.Second)))
			if late := ms(now.Sub(dueAt)); late > res.lateMaxMs {
				res.lateMaxMs = late
			}
			f.mint(lo+sent, dueAt)
		}
		f.flushSites()
		time.Sleep(time.Millisecond - time.Since(start)%time.Millisecond)
	}
	f.next = lo + total
	res.sent = total
	res.missing = f.awaitSeen(f.next)
	res.wireBytes = f.written.Load() - wire0
	res.latencyMs, _ = f.latenciesMs(lo, f.next, start)
	return res
}

// saturateResult is the closed-loop phase.
type saturateResult struct {
	sent, missing int
	windowRates   []float64
}

// saturate keeps saturateWindow services outstanding for dur: a new one is
// minted only when an earlier one has surfaced globally.
func (f *fleet) saturate(dur time.Duration) saturateResult {
	var res saturateResult
	lo := f.next
	start := time.Now()
	timeout := time.NewTimer(dur)
	defer timeout.Stop()
loop:
	for f.next+batchSize <= len(f.due) {
		select {
		case <-f.tokens:
		case <-timeout.C:
			break loop
		}
		now := time.Now()
		f.mint(f.next, now)
		f.next++
		for n := 1; n < batchSize; n++ {
			select {
			case <-f.tokens:
				f.mint(f.next, now)
				f.next++
				continue
			default:
			}
			break
		}
		f.flushSites()
	}
	res.sent = f.next - lo
	res.missing = f.awaitSeen(f.next)
	// Every outstanding service has surfaced or been given up on; restore
	// the full window for the next phase.
	for len(f.tokens) < cap(f.tokens) {
		f.tokens <- struct{}{}
	}
	_, at := f.latenciesMs(lo, f.next, start)
	res.windowRates = windowRates(at, dur/throughputWindows)
	return res
}

// poll queries the aggregator at 10 Hz until stop closes, timing each
// call: the refresh folds the keys dirtied since the previous one into the
// global index under the aggregator's lock.
func poll(agg *federate.Aggregator, q query.Query, stop <-chan struct{}) (refreshMs []float64, failed int) {
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return refreshMs, failed
		case <-tick.C:
			t0 := time.Now()
			res, err := agg.Query(q)
			refreshMs = append(refreshMs, ms(time.Since(t0)))
			if err != nil || len(res.Hits) != 1 {
				failed++
			}
		}
	}
}

// pointQuery pins one exact key.
func pointQuery(k core.ServiceKey) query.Query {
	p32, _ := netaddr.NewPrefix(k.Addr, 32)
	return query.Query{Prefix: p32, Port: k.Port, Proto: k.Proto, Limit: 1}
}

// checkGlobal is the fleet's correctness gate: the aggregator's key set
// must equal the union of the sites' inventories, and every queryEvery-th
// service must be answered by Aggregator.Query with the site's
// provenance. Flow and client weights are not compared: they ride only in
// snapshot frames (the known ROADMAP gap).
func (f *fleet) checkGlobal(agg *federate.Aggregator) (queries int, problems []string) {
	ep := agg.QueryEpoch()
	want := 0
	for _, s := range f.sites {
		inv := s.engine.Snapshot()
		want += inv.Len()
		for i, k := range inv.Keys() {
			if _, ok := ep.Doc(k); !ok {
				problems = append(problems, fmt.Sprintf("%s holds %s, the global inventory does not", s.id, k))
			} else if i%queryEvery == 0 {
				queries++
				res, err := agg.Query(pointQuery(k))
				prov, _ := inv.Provenance(k)
				if err != nil || len(res.Hits) != 1 || res.Hits[0].Key != k || res.Hits[0].Prov != prov {
					problems = append(problems, fmt.Sprintf("Aggregator.Query(%s) = %v, %v; want one hit with provenance %s", k, res.Hits, err, prov))
				}
			}
			if len(problems) >= 5 {
				return queries, problems
			}
		}
	}
	// The sites' key sets are disjoint and all present, so equal sizes
	// make the sets equal.
	if ep.Len() != want {
		problems = append(problems, fmt.Sprintf("global inventory holds %d services, the sites hold %d", ep.Len(), want))
	}
	return queries, problems
}

// fleetResult is everything the untraced federation stage measured.
type fleetResult struct {
	resident       int
	bootstrapRates []float64 // services/s, one per dial
	firstQueryMs   float64
	refreshMs      []float64
	paced          pacedResult
	saturated      saturateResult
	attempted      int
	failed         int
	problems       []string

	pumpDropped, eventHubDropped, frameHubDropped int
	resumeHits, snapshotFallbacks                 int
}

// run dials in fresh aggregators for the bootstrap samples, then keeps the
// last one for the paced and saturate phases and the correctness gate.
func (f *fleet) run(window time.Duration) (fleetResult, error) {
	res := fleetResult{resident: f.resident()}
	var sub *subscriber
	for i, start := 0, time.Now(); i < minBootstraps || (i < maxBootstraps && time.Since(start) < window/10); i++ {
		if sub != nil {
			sub.hangUp()
		}
		var took time.Duration
		var err error
		if sub, took, err = f.dial(res.resident); err != nil {
			return res, err
		}
		res.bootstrapRates = append(res.bootstrapRates, float64(res.resident)/took.Seconds())
	}

	// The first query builds the global index over everything resident
	// under the aggregator's lock; it runs before the paced phase so that
	// one-off stall is measured on its own, not as visibility latency.
	probe := pointQuery(f.sites[0].engine.Snapshot().Keys()[0])
	t0 := time.Now()
	if hit, err := sub.agg.Query(probe); err != nil || len(hit.Hits) != 1 {
		res.problems = append(res.problems, fmt.Sprintf("first Aggregator.Query(%v) = %v, %v", probe, hit.Hits, err))
	}
	res.firstQueryMs = ms(time.Since(t0))

	watching, hubDropped := f.watch(sub)
	stopPoll := make(chan struct{})
	var polled sync.WaitGroup
	var pollFailed int
	polled.Add(1)
	go func() {
		defer polled.Done()
		res.refreshMs, pollFailed = poll(sub.agg, probe, stopPoll)
	}()

	res.paced = f.paced(window / 2)
	res.saturated = f.saturate(window / 2)

	close(stopPoll)
	polled.Wait()
	queries, problems := f.checkGlobal(sub.agg)
	res.problems = append(res.problems, problems...)
	sub.hangUp()
	<-watching

	res.attempted = res.paced.sent + res.saturated.sent + len(res.refreshMs) + queries
	res.failed = res.paced.missing + res.saturated.missing + pollFailed + len(problems)
	res.eventHubDropped = hubDropped()
	for _, s := range f.sites {
		res.eventHubDropped += s.engine.EventCounters().Dropped()
		res.pumpDropped += s.pub.Dropped()
		res.frameHubDropped += s.pub.FrameCounters().Dropped()
		st := s.pub.Stats()
		res.resumeHits += int(st.ResumeHits)
		res.snapshotFallbacks += int(st.SnapshotFallbacks)
	}
	return res, nil
}

// steppedResult is the traced federation run: frames carried by hand
// through encode, decode and apply, one span each.
type steppedResult struct {
	buildSnapshotMs    float64
	snapshotFrameBytes int
	frames             int
	frameBytes         int
	problems           []string
}

// stepped takes frames straight from Publisher.Catchup and walks each one
// through Encoder.Encode → Decoder.Decode → Aggregator.Apply on the
// harness's goroutine, so the three costs separate cleanly. Fresh
// services are minted into the sites a batch at a time for the window.
func (f *fleet) stepped(tr *tracer, window time.Duration) (steppedResult, error) {
	var res steppedResult
	agg := federate.NewAggregator()
	defer agg.Close()
	var wire bytes.Buffer
	enc, dec := federate.NewEncoder(&wire), federate.NewDecoder(&wire)
	carry := func(fr *federate.Frame, kind string) (int, error) {
		tr.begin("federate.encode" + kind)
		err := enc.Encode(fr)
		tr.end()
		if err != nil {
			return 0, err
		}
		size := wire.Len()
		tr.begin("federate.decode" + kind)
		got, err := dec.Decode()
		tr.end()
		if err != nil {
			return 0, err
		}
		tr.begin("federate.apply" + kind)
		err = agg.Apply(got)
		tr.end()
		return size, err
	}

	type feed struct {
		site *fleetSite
		live *pipeline.Sub[federate.Frame]
	}
	var feeds []feed
	for _, s := range f.sites {
		tr.begin("federate.build_snapshot")
		federate.BuildSnapshot(s.engine.Snapshot())
		tr.end()
		tr.begin("federate.catchup")
		bootstrap, live := s.pub.Catchup(1 << 15)
		tr.end()
		defer live.Cancel()
		feeds = append(feeds, feed{s, live})
		for i := range bootstrap {
			size, err := carry(&bootstrap[i], "_snapshot")
			if err != nil {
				return res, err
			}
			if bootstrap[i].Type == federate.FrameSnapshot {
				res.snapshotFrameBytes += size
			}
		}
	}
	res.buildSnapshotMs = ms(tr.get("federate.build_snapshot").Total) / float64(len(f.sites))

	for start := time.Now(); time.Since(start) < window && f.next+batchSize <= len(f.due); {
		now := time.Now()
		for i := 0; i < batchSize; i++ {
			f.mint(f.next, now)
			f.next++
		}
		tr.begin("core.dispatch_apply")
		f.flushSites()
		tr.end()
		for _, fd := range feeds {
			for i := 0; i < batchSize/len(feeds); i++ {
				fr, ok := <-fd.live.Events()
				if !ok {
					return res, fmt.Errorf("%s: feed ended while stepping", fd.site.id)
				}
				size, err := carry(&fr, "")
				if err != nil {
					return res, err
				}
				res.frames++
				res.frameBytes += size
			}
		}
	}
	_, res.problems = f.checkGlobal(agg)
	return res, nil
}
