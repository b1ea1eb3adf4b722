// Package systest is the whole-system simulation: one seeded program drives
// site engines, checkpoints, kills and restores, federation publishers, a
// faulted feed link and one aggregator, and every outcome is compared
// exactly with a fault-free reference run over the same recorded inputs.
// The package holds tests only.
//
//	go test ./internal/systest                             # the fixed seed
//	go test ./internal/systest -run TestSystem -args -seed=N
//	go test ./internal/systest -run TestSystem -args -seeds=200
package systest

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"servdisc/internal/checkpoint"
	"servdisc/internal/core"
	"servdisc/internal/faultnet"
	"servdisc/internal/federate"
	"servdisc/internal/netaddr"
	"servdisc/internal/packet"
	"servdisc/internal/query"
	"servdisc/internal/stats"
)

var (
	seedFlag  = flag.Uint64("seed", fixedSeed, "the program seed TestSystem runs")
	seedsFlag = flag.Int("seeds", 0, "run seeds 1..N in place of -seed")
)

// fixedSeed is the program Tier-1 runs. It kills a victim with two seals
// past its last checkpoint after the reader has applied them, and its
// faults end feed connections (TestSystem checks that it still does both).
const fixedSeed = 73

// TestSystem runs the program drawn from -seed, or from each of seeds 1..N
// with -seeds=N.
func TestSystem(t *testing.T) {
	if *seedsFlag > 0 {
		for seed := uint64(1); seed <= uint64(*seedsFlag); seed++ {
			t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { _, _ = runSeed(t, seed) })
		}
		return
	}
	held, failed := runSeed(t, *seedFlag)
	if *seedFlag == fixedSeed && held == 0 {
		t.Errorf("seed %d no longer kills a victim whose reader holds two seals past its last checkpoint", fixedSeed)
	}
	if *seedFlag == fixedSeed && failed == 0 {
		t.Errorf("seed %d no longer fails a link: its faults fire past the end of every stream", fixedSeed)
	}
}

// stepKind names one step of a program.
type stepKind uint8

const (
	stepIngest         stepKind = iota // a segment, in batches
	stepReport                         // a sweep report, on the ingest goroutine
	stepSnapshot                       // Snapshot
	stepCheckpoint                     // Writer.Checkpoint
	stepLostCheckpoint                 // Writer.Checkpoint into a removed directory
	stepChaos                          // link chaos on or off
	stepKill                           // kill, restore, replay
	stepReader                         // Snapshot racing the site's next ingest
)

var stepNames = [...]string{"ingest", "report", "snapshot", "checkpoint", "lost-checkpoint", "chaos", "kill", "reader"}

// shape is one engine incarnation's form.
type shape struct {
	shards  int
	running bool
}

// step is one program step at one site.
type step struct {
	kind  stepKind
	site  int
	seg   int // ingest: the segment
	batch int // ingest: the batch size
	// race is 1 + the sweep a second goroutine applies while this ingest
	// runs, 0 for none.
	race  int
	sweep int   // report: the sweep
	on    bool  // chaos: on or off
	shape shape // kill: the restored engine's form
	await bool  // kill: the reader catches up with the victim first
}

func (s step) String() string {
	out := fmt.Sprintf("site %d %s", s.site, stepNames[s.kind])
	switch s.kind {
	case stepIngest:
		out += fmt.Sprintf(" segment %d in batches of %d", s.seg, s.batch)
		if s.race > 0 {
			out += fmt.Sprintf(", sweep %d racing it", s.race-1)
		}
	case stepReport:
		out += fmt.Sprintf(" sweep %d", s.sweep)
	case stepChaos:
		out += fmt.Sprintf(" %v", s.on)
	case stepKill:
		out += fmt.Sprintf(" into %d shards (running %v, reader caught up %v)", s.shape.shards, s.shape.running, s.await)
	}
	return out
}

// program is what a seed draws: the sites, the retention, each site's
// first engine and the steps.
type program struct {
	seed      uint64
	sites     int
	retention core.RetentionPolicy
	shapes    []shape
	steps     []step
}

var (
	shardCounts = []int{1, 2, 8}
	batchSizes  = []int{13, 256, 4096}
)

// activeTTL outlives the sweep interval, so an answer every sweep repeats
// stays, and falls short of two, so an answer one sweep misses lapses and
// the next sweep that finds it announces it anew.
const activeTTL = 4 * time.Hour

// meanFault is the mean offset of each drawn link fault: a site's
// bootstrap snapshot is tens of kilobytes, so most connections die, and a
// fair share first deliver a snapshot and some live frames.
const meanFault = 48 << 10

func drawShape(rng *stats.RNG, not int) shape {
	for {
		if n := shardCounts[rng.Intn(len(shardCounts))]; n != not {
			return shape{shards: n, running: rng.Bool(0.5)}
		}
	}
}

// drawProgram draws a program over the recorded segments. Each segment is
// ingested at every site, a sweep report follows the segment it completed
// in, and between segments the seed draws snapshots, checkpoints, lost
// checkpoints, chaos switches, kills and, from a stream of its own, readers.
// A report races the site's next ingest only with retention off (see
// checkEvents).
func drawProgram(seed uint64, in *inputs) *program {
	rng := stats.NewRNG(seed).Derive("program")
	readers := stats.NewRNG(seed).Derive("readers")
	p := &program{seed: seed, sites: 1 + rng.Intn(2)}
	if rng.Bool(0.5) {
		p.retention = core.RetentionPolicy{PassiveTTL: time.Hour, ActiveTTL: activeTTL}
	}
	cur := make([]shape, p.sites)
	for i := range cur {
		cur[i] = drawShape(rng, 0)
	}
	p.shapes = slices.Clone(cur)
	racing := make([]int, p.sites)
	dirty := make([]bool, p.sites) // dispatched since the writer's last export
	for seg := range in.segs {
		for _, site := range rng.Perm(p.sites) {
			p.steps = append(p.steps, step{kind: stepIngest, site: site, seg: seg,
				batch: batchSizes[rng.Intn(len(batchSizes))], race: racing[site]})
			racing[site], dirty[site] = 0, true
			for sweep, due := range in.due {
				switch {
				case due != seg:
				case !p.retention.Enabled() && seg+1 < len(in.segs) && rng.Bool(0.5):
					racing[site] = 1 + sweep
				default:
					p.steps = append(p.steps, step{kind: stepReport, site: site, sweep: sweep})
				}
			}
		}
		for rng.Bool(0.6) {
			st := step{site: rng.Intn(p.sites)}
			switch k := rng.Intn(12); {
			case k < 4:
				st.kind = stepSnapshot
			case k < 7:
				st.kind, dirty[st.site] = stepCheckpoint, false
			case k < 8:
				if !dirty[st.site] {
					continue // a checkpoint with nothing to write touches no directory
				}
				st.kind, dirty[st.site] = stepLostCheckpoint, false
			case k < 10:
				st.kind, st.on = stepChaos, rng.Bool(0.6)
			default:
				st.kind, st.await = stepKill, rng.Bool(0.5)
				st.shape = drawShape(rng, cur[st.site].shards)
				cur[st.site], dirty[st.site] = st.shape, true
			}
			p.steps = append(p.steps, st)
		}
		if readers.Bool(0.3) {
			p.steps = append(p.steps, step{kind: stepReader, site: readers.Intn(p.sites)})
		}
	}
	return p
}

// eventLog is one engine incarnation's events, in the order a synchronous
// subscriber saw them.
type eventLog struct {
	mu  sync.Mutex
	evs []core.Event
}

func (l *eventLog) add(ev core.Event) {
	l.mu.Lock()
	l.evs = append(l.evs, ev)
	l.mu.Unlock()
}

func (l *eventLog) events() []core.Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.evs)
}

func watch(eng *core.ShardedPassive) *eventLog {
	l := &eventLog{}
	eng.SubscribeSync(l.add)
	return l
}

// durable is what a site's checkpoint directory holds: the log prefix it
// covers, and the stream the killed incarnations announced up to it.
type durable struct {
	steps  int
	events []core.Event
}

// siteRun is one site of the system under test, with its references.
type siteRun struct {
	id    federate.SiteID
	segs  [][]packet.Packet
	dir   string
	shape shape
	eng   *core.ShardedPassive
	pub   atomic.Pointer[federate.Publisher]
	w     *checkpoint.Writer
	// cur is the incarnation's stream; base what the previous incarnations
	// announced up to the checkpoint it was restored from.
	cur  *eventLog
	base []core.Event
	// log is every step applied at the site, across incarnations; saved
	// is the checkpoint directory's content.
	log      []step
	saved    durable
	baseline bool // the next successful checkpoint must be a baseline
	reader   bool // a reader snapshots while the next ingest runs
	// seals are the feed positions of the seals since the saved
	// checkpoint, for the kill report.
	seals []uint64
	link  atomic.Pointer[net.Conn]
	fc    *federate.FeedClient

	ref, alt *core.ShardedPassive // the reference, and the racing reports' other order
	refLog   *eventLog
	altLog   *eventLog
	refPub   *federate.Publisher
}

// world is one seed's run.
type world struct {
	t       *testing.T
	p       *program
	in      *inputs
	ctx     context.Context
	chaos   atomic.Bool
	agg     *federate.Aggregator
	sites   []*siteRun
	serving sync.WaitGroup
	at      string // the step running, for the repro line
	held    int    // kills whose reader held two seals past the checkpoint
}

func (w *world) fatalf(format string, args ...any) {
	w.t.Helper()
	w.t.Fatalf("seed %d, %s: %s\nrepro: go test ./internal/systest -run TestSystem -args -seed=%d",
		w.p.seed, w.at, fmt.Sprintf(format, args...), w.p.seed)
}

var errPartition = errors.New("systest: link partitioned")

// runSeed runs one seed's program against the system and its reference,
// compares them, and returns how many kills hit a victim whose reader held
// two seals past its last checkpoint, and how many feed connections the
// faults ended or refused.
func runSeed(t *testing.T, seed uint64) (held, failed int) {
	in := recorded()
	p := drawProgram(seed, in)
	ctx, cancel := context.WithCancel(context.Background())
	w := &world{t: t, p: p, in: in, ctx: ctx, agg: federate.NewAggregator(), at: "setup"}
	var feeds sync.WaitGroup
	defer func() {
		w.closeAll()
		cancel()
		feeds.Wait()
		w.serving.Wait()
	}()
	w.chaos.Store(true)
	for i := range p.sites {
		s := &siteRun{id: federate.SiteID(fmt.Sprintf("site-%d", i)), segs: in.siteSegs(p.sites, i),
			dir: filepath.Join(t.TempDir(), "ckpt"), shape: p.shapes[i]}
		s.eng = w.engine(s.shape)
		if s.shape.running {
			s.eng.Run(ctx)
		}
		s.cur = watch(s.eng)
		s.pub.Store(federate.NewPublisher(s.id, s.eng))
		var err error
		if s.w, err = checkpoint.NewWriter(s.eng, s.dir, checkpoint.Options{}); err != nil {
			w.fatalf("%v", err)
		}
		s.ref = w.engine(shape{shards: 1})
		s.refLog = watch(s.ref)
		s.refPub = federate.NewPublisher(s.id, s.ref)
		if slices.ContainsFunc(p.steps, func(st step) bool { return st.race > 0 }) {
			s.alt = w.engine(shape{shards: 1})
			s.altLog = watch(s.alt)
		}
		s.fc = w.feed(s, seed, i)
		w.sites = append(w.sites, s)
		feeds.Add(1)
		go func() {
			defer feeds.Done()
			_ = s.fc.Run(ctx)
		}()
	}
	for i, st := range p.steps {
		w.at = fmt.Sprintf("step %d (%s)", i, st)
		w.run(st)
	}

	// The end: lift the faults, close every engine, and let each feed reach
	// its site's final sequence number over clean links.
	w.at = "end"
	w.chaos.Store(false)
	for _, s := range w.sites {
		s.eng.Close()
		s.pub.Load().Close()
	}
	w.closeAll()
	refAgg := federate.NewAggregator()
	for _, s := range w.sites {
		w.awaitReader(s, 60*time.Second)
		<-refAgg.Attach(s.refPub)
	}
	cancel()
	feeds.Wait()
	w.compare(refAgg)
	kills, races, readers := 0, 0, 0
	for _, st := range p.steps {
		kills += b2i(st.kind == stepKill)
		races += b2i(st.race > 0)
		readers += b2i(st.kind == stepReader)
	}
	var fs federate.FeedStats
	for _, s := range w.sites {
		st := s.fc.Stats()
		fs.Connects, fs.Disconnects, fs.DialErrors, fs.ResumeHits = fs.Connects+st.Connects, fs.Disconnects+st.Disconnects, fs.DialErrors+st.DialErrors, fs.ResumeHits+st.ResumeHits
	}
	// Each feed ends once at shutdown and once per kill of its site.
	failed = int(fs.Disconnects+fs.DialErrors) - p.sites - kills
	t.Logf("seed %d: %d sites, retention %v, %d steps, %d racing reports, %d readers, %d kills (%d with the reader holding two seals past the checkpoint); feeds: %d connects, %d failed by faults, %d resumed",
		seed, p.sites, p.retention.Enabled(), len(p.steps), races, readers, kills, w.held, fs.Connects, failed, fs.ResumeHits)
	return w.held, failed
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// closeAll closes every engine and publisher of the run; each Close is
// idempotent.
func (w *world) closeAll() {
	for _, s := range w.sites {
		s.eng.Close()
		s.pub.Load().Close()
		s.ref.Close()
		s.refPub.Close()
		if s.alt != nil {
			s.alt.Close()
		}
	}
}

// engine builds one hybrid engine with the program's retention.
func (w *world) engine(sh shape) *core.ShardedPassive {
	e := core.NewHybrid(w.in.campus, w.in.udpPorts, sh.shards, w.in.tcpPorts)
	e.SetRetention(w.p.retention)
	return e
}

// feed builds site i's feed client. Its dialer links it to the site's
// current publisher; while chaos is on, a dial is refused one time in five
// and otherwise draws a fresh fault plan for each direction.
func (w *world) feed(s *siteRun, seed uint64, i int) *federate.FeedClient {
	rng := stats.NewRNG(seed).Derive(fmt.Sprintf("link-%d", i))
	return federate.NewFeedClient(w.agg, string(s.id), federate.FeedOptions{
		Dial: func(context.Context) (net.Conn, error) {
			var toServer, toClient faultnet.Faults
			if w.chaos.Load() {
				if rng.Bool(0.2) {
					return nil, errPartition
				}
				toServer, toClient = faultnet.Random(rng, meanFault), faultnet.Random(rng, meanFault)
			}
			client, server := faultnet.Pipe(toServer, toClient)
			pub := s.pub.Load()
			w.serving.Add(1)
			go func() {
				defer w.serving.Done()
				_ = pub.ServeConn(w.ctx, server)
				server.Close()
			}()
			s.link.Store(&client)
			return client, nil
		},
		Backoff: federate.BackoffConfig{Base: 2 * time.Millisecond, Cap: 20 * time.Millisecond, Seed: seed<<8 + uint64(i)},
	})
}

// awaitReader waits until the aggregator's cursor for the site is the
// current publisher's epoch at or past its current sequence number.
func (w *world) awaitReader(s *siteRun, limit time.Duration) {
	w.t.Helper()
	want := s.pub.Load().State()
	deadline := time.Now().Add(limit)
	for {
		epoch, seq, ok := w.agg.SiteCursor(s.id)
		if ok && epoch == want.Epoch && seq >= want.Seq {
			return
		}
		if time.Now().After(deadline) {
			w.fatalf("the reader of %s is at (%d, %d), want (%d, %d)", s.id, epoch, seq, want.Epoch, want.Seq)
		}
		time.Sleep(time.Millisecond)
	}
}

// run applies one step to the system and the references.
func (w *world) run(st step) {
	s := w.sites[st.site]
	switch st.kind {
	case stepChaos:
		w.chaos.Store(st.on)
		return
	case stepKill:
		w.kill(s, st)
		return
	case stepReader:
		s.reader = true
		return
	case stepCheckpoint:
		res, err := s.w.Checkpoint(w.ctx)
		if err != nil {
			w.fatalf("%v", err)
		}
		if s.baseline && !res.Full {
			w.fatalf("the first checkpoint after a failed one or a restore is a delta")
		}
		s.baseline = false
		if !res.Full && !res.Skipped {
			w.checkDelta(s)
		}
	case stepLostCheckpoint:
		if err := os.RemoveAll(s.dir); err != nil {
			w.fatalf("%v", err)
		}
		if _, err := s.w.Checkpoint(w.ctx); err == nil {
			w.fatalf("a checkpoint into a removed directory succeeded")
		}
		if err := os.MkdirAll(s.dir, 0o755); err != nil {
			w.fatalf("%v", err)
		}
		s.baseline = true
	}
	before := s.pub.Load().State().Seq
	s.log = append(s.log, st)
	switch st.kind {
	case stepIngest, stepReport, stepSnapshot:
		stop := func() {}
		if st.kind == stepIngest && s.reader {
			s.reader, stop = false, readAlong(s.eng)
		}
		w.apply(s, s.eng, st, raceConcurrent)
		stop()
	case stepCheckpoint:
		s.saved = durable{steps: len(s.log), events: append(slices.Clone(s.base), s.cur.events()...)}
		s.seals = nil
	case stepLostCheckpoint:
		s.saved, s.seals = durable{}, nil
	}
	w.apply(s, s.ref, st, raceFirst)
	if s.alt != nil {
		w.apply(s, s.alt, st, raceLast)
	}
	if st.kind == stepSnapshot {
		if got, want := s.eng.Snapshot().Dump(), s.ref.Snapshot().Dump(); string(got) != string(want) {
			w.fatalf("the snapshot diverges from the reference's:\n%s", firstDiff(got, want))
		}
	}
	if after := s.pub.Load().State().Seq; (st.kind == stepSnapshot || st.kind == stepLostCheckpoint) && after > before {
		s.seals = append(s.seals, after)
	}
}

// readAlong snapshots eng on a second goroutine, as a reader polling the
// site would, until the returned stop has been called; stop waits for it.
// The references take no such snapshot.
func readAlong(eng *core.ShardedPassive) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-quit:
				return
			default:
				eng.Snapshot()
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// checkDelta reads the delta chunk the site's writer just wrote and checks
// that it lists each service once: a service touched on both sides of a
// snapshot between two checkpoints is one row.
func (w *world) checkDelta(s *siteRun) {
	raw, err := os.ReadFile(filepath.Join(s.dir, checkpoint.ManifestName))
	if err != nil {
		w.fatalf("%v", err)
	}
	man, err := checkpoint.DecodeManifest(raw)
	if err != nil {
		w.fatalf("%v", err)
	}
	if raw, err = os.ReadFile(filepath.Join(s.dir, man.Chunks[len(man.Chunks)-1].File)); err != nil {
		w.fatalf("%v", err)
	}
	ed, err := checkpoint.DecodeChunk(raw)
	if err != nil {
		w.fatalf("%v", err)
	}
	for i := 1; i < len(ed.Services); i++ {
		if ed.Services[i].Key.Compare(ed.Services[i-1].Key) <= 0 {
			w.fatalf("the delta lists %s after %s", ed.Services[i].Key, ed.Services[i-1].Key)
		}
	}
}

// raceOrder is where a racing report lands relative to its segment.
type raceOrder uint8

const (
	raceConcurrent raceOrder = iota // on a second goroutine, racing the batches
	raceFirst                       // before the first batch
	raceLast                        // after the last batch
)

// apply applies the engine-facing part of one step to one engine: a
// checkpoint of either kind is a snapshot point (the system under test's
// writer exports, which is one). A report on the ingest goroutine of a
// running engine follows the batches the workers still hold, as it does on
// an inline engine.
func (w *world) apply(s *siteRun, eng *core.ShardedPassive, st step, order raceOrder) {
	switch st.kind {
	case stepIngest:
		var rep func()
		if st.race > 0 {
			sweep := w.in.sweeps[st.race-1]
			rep = func() { eng.AddReport(sweep) }
		}
		var racing sync.WaitGroup
		if rep != nil {
			eng.Flush() // the race is with this segment alone
		}
		switch {
		case rep == nil:
		case order == raceFirst:
			rep()
		case order == raceConcurrent:
			racing.Add(1)
			go func() {
				defer racing.Done()
				rep()
			}()
		}
		for seg := s.segs[st.seg]; len(seg) > 0; {
			n := min(st.batch, len(seg))
			eng.HandleBatch(seg[:n])
			seg = seg[n:]
		}
		racing.Wait()
		if rep != nil && order == raceLast {
			eng.Flush()
			rep()
		}
	case stepReport:
		eng.Flush()
		eng.AddReport(w.in.sweeps[st.sweep])
	case stepSnapshot, stepCheckpoint, stepLostCheckpoint:
		eng.Snapshot()
	}
}

// kill cuts the victim's link and closes it without a final checkpoint,
// restores its checkpoint directory into a fresh engine of another shape
// with a fresh publisher and writer, and replays the steps the checkpoint
// does not cover. The feed client redials through the same dialer.
func (w *world) kill(s *siteRun, st step) {
	if st.await {
		w.awaitReader(s, 30*time.Second)
	}
	victim := s.pub.Load()
	if epoch, seq, _ := w.agg.SiteCursor(s.id); len(s.seals) >= 2 && epoch == victim.State().Epoch && seq >= s.seals[1] {
		w.held++
	}
	if c := s.link.Load(); c != nil {
		(*c).Close()
	}
	s.eng.Close()
	victim.Close()

	eng := w.engine(st.shape)
	cur := watch(eng) // a restore announces nothing it imports
	man, err := checkpoint.Restore(s.dir, eng)
	if err != nil {
		w.fatalf("restore: %v", err)
	}
	if (man == nil) != (s.saved.steps == 0) {
		w.fatalf("restore found manifest %v, the program saved %d steps", man != nil, s.saved.steps)
	}
	covered := 0
	for _, done := range s.log[:s.saved.steps] {
		if done.kind == stepIngest {
			covered += len(s.segs[done.seg])
		}
	}
	if got := eng.Snapshot().Packets(); got != covered {
		w.fatalf("the restored engine resumes at packet %d, its checkpoint covered %d", got, covered)
	}
	if st.shape.running {
		eng.Run(w.ctx)
	}
	s.eng, s.shape, s.base, s.cur = eng, st.shape, s.saved.events, cur
	s.pub.Store(federate.NewPublisher(s.id, eng))
	if s.w, err = checkpoint.NewWriter(eng, s.dir, checkpoint.Options{}); err != nil {
		w.fatalf("%v", err)
	}
	s.baseline, s.seals = true, nil
	// A restarted process does not know its victim's snapshot cadence, and
	// every freeze decides expiry alike, so the replay applies the inputs
	// alone.
	for _, done := range s.log[s.saved.steps:] {
		if done.kind == stepIngest || done.kind == stepReport {
			w.apply(s, eng, done, raceFirst)
		}
	}
}

// compare checks every outcome of the run against the references.
func (w *world) compare(refAgg *federate.Aggregator) {
	for _, s := range w.sites {
		w.at = fmt.Sprintf("end, %s", s.id)
		got, want := s.eng.Snapshot().Dump(), s.ref.Snapshot().Dump()
		if string(got) != string(want) {
			w.fatalf("the site's inventory diverges from the reference:\n%s", firstDiff(got, want))
		}
		if s.alt != nil {
			if alt := s.alt.Snapshot().Dump(); string(alt) != string(want) {
				w.fatalf("the racing reports' other order ends elsewhere:\n%s", firstDiff(alt, want))
			}
		}
		if !w.p.retention.Enabled() {
			if frozen := w.frozen(s); string(frozen) != string(want) {
				w.fatalf("the reference diverges from the frozen inventory of the whole trace:\n%s", firstDiff(want, frozen))
			}
		}
		w.checkEvents(s)
	}
	w.at = "end, aggregator"
	if got, want := w.agg.Dump(), refAgg.Dump(); string(got) != string(want) {
		w.fatalf("the aggregator diverges from the reference aggregator:\n%s", firstDiff(got, want))
	}
	for _, q := range w.queries(refAgg) {
		for {
			got, err1 := w.agg.Query(q)
			want, err2 := refAgg.Query(q)
			if err1 != nil || err2 != nil {
				w.fatalf("query %+v: %v, %v", q, err1, err2)
			}
			// The epoch numbers each aggregator's own index flushes.
			got.Epoch, want.Epoch = 0, 0
			g, _ := json.Marshal(got)
			r, _ := json.Marshal(want)
			if string(g) != string(r) {
				w.fatalf("query %+v answers\n%s\nthe reference answers\n%s", q, g, r)
			}
			if want.NextPageToken == "" {
				break
			}
			q.PageToken = want.NextPageToken
		}
	}
}

// frozen is NewHybridInventory over the site's whole trace and every sweep.
func (w *world) frozen(s *siteRun) []byte {
	d := core.NewPassiveDiscoverer(w.in.campus, w.in.udpPorts)
	for _, seg := range s.segs {
		d.HandleBatch(seg)
	}
	a := core.NewActiveDiscoverer(w.in.tcpPorts)
	for _, rep := range w.in.sweeps {
		a.AddReport(rep)
	}
	return core.NewHybridInventory(d, a).Dump()
}

// queries is the fixed query set: a point lookup, a port, a /24, a
// provenance class and a freshness floor, each paged to the end.
func (w *world) queries(ref *federate.Aggregator) []query.Query {
	all := ref.Services()
	if len(all) == 0 {
		w.fatalf("the reference aggregator holds no service")
	}
	k := all[len(all)/2].Key
	pt, _ := netaddr.NewPrefix(k.Addr, 32)
	sub, _ := netaddr.NewPrefix(k.Addr, 24)
	return []query.Query{
		{Prefix: pt, Port: k.Port, Proto: k.Proto},
		{Port: 80, Limit: 100},
		{Prefix: sub, Limit: 20},
		{Provenance: core.ActiveOnly, HasProvenance: true, Limit: 500},
		{MinFreshness: w.in.start.Add(10 * time.Hour), Limit: 500},
	}
}

// checkEvents compares the site's stream with the reference's. Every
// incarnation's events up to the checkpoint the next one restored, then
// the last incarnation's, make one stream; for every key either side
// announced it must equal the reference's in kind, time and provenance (an
// upgrade's two first times included). A report raced against ingest leaves open which technique a
// key first found in that window is credited to (core.Event), so a key's
// stream may instead equal the one with the racing reports applied after
// their segments; with retention off a key is found once, so one window
// decides. Each stream also follows the join's grammar and ends with the
// techniques the reference's final inventory holds live; with retention
// off, its upgrade names that inventory's provenance and first times.
// Scanner detections fire once per source, for the reference's sources,
// and each sweep completes once.
func (w *world) checkEvents(s *siteRun) {
	got, gotOnce := perKey(append(slices.Clone(s.base), s.cur.events()...))
	want, wantOnce := perKey(s.refLog.events())
	alt := map[core.ServiceKey][]string{}
	if s.alt != nil {
		alt, _ = perKey(s.altLog.events())
	}
	show := func(evs []string) string { return strings.Join(evs, "\n  ") }
	keys := maps.Clone(got)
	maps.Copy(keys, want)
	maps.Copy(keys, alt)
	for key := range keys {
		g := got[key]
		if a, ok := alt[key]; !slices.Equal(g, want[key]) && (!ok || !slices.Equal(g, a)) {
			w.fatalf("%s announced\n  %s\nthe reference\n  %s", key, show(g), show(want[key]))
		}
	}
	inv := s.ref.Snapshot()
	for _, key := range inv.Keys() {
		if _, ok := got[key]; !ok {
			w.fatalf("%s is in the inventory and announced nothing", key)
		}
	}
	for key, evs := range want {
		live, err := grammar(evs)
		if err != nil {
			w.fatalf("the stream for %s %v:\n  %s", key, err, show(evs))
		}
		rec, passive := inv.Record(key)
		activeAt, active := inv.ActiveFirstOpen(key)
		if live != b2i(passive)+b2i(active) {
			w.fatalf("the stream for %s ends with %d techniques live, the inventory holds %d:\n  %s",
				key, live, b2i(passive)+b2i(active), show(evs))
		}
		if prov, _ := inv.Provenance(key); live == 2 && !w.p.retention.Enabled() {
			if up := upgrade(prov, rec.FirstSeen(), activeAt); evs[len(evs)-1] != up {
				w.fatalf("%s was upgraded as\n  %s\nthe inventory says\n  %s", key, evs[len(evs)-1], up)
			}
		}
	}
	if !slices.Equal(gotOnce, wantOnce) || len(slices.Compact(slices.Clone(wantOnce))) != len(wantOnce) {
		w.fatalf("announced %v, the reference %v: each scanner and each sweep once", gotOnce, wantOnce)
	}
}

// perKey groups a stream's service events by key, in stream order, and
// lists its scanner detections and completed sweeps, sorted.
func perKey(evs []core.Event) (map[core.ServiceKey][]string, []string) {
	out := make(map[core.ServiceKey][]string)
	var once []string
	for _, ev := range evs {
		switch ev.Kind {
		case core.EventScannerDetected:
			once = append(once, "scanner "+ev.Scanner.Source.String())
		case core.EventScanCompleted:
			once = append(once, fmt.Sprint("sweep ", ev.Scan.ID))
		case core.EventProvenanceUpgraded:
			out[ev.Key] = append(out[ev.Key], upgrade(ev.Provenance, ev.PassiveAt, ev.ActiveAt))
		default:
			out[ev.Key] = append(out[ev.Key], fmt.Sprintf("%s %s @%s", ev.Kind, ev.Provenance, stamp(ev.Time)))
		}
	}
	slices.Sort(once)
	return out, once
}

// upgrade renders an upgrade: its provenance and the two first times it
// compared. Its Time is the arriving technique's, one of the two.
func upgrade(prov core.Provenance, passiveAt, activeAt time.Time) string {
	return fmt.Sprintf("%s %s passive@%s active@%s", core.EventProvenanceUpgraded, prov, stamp(passiveAt), stamp(activeAt))
}

func stamp(t time.Time) string { return t.UTC().Format(time.RFC3339Nano) }

// grammar checks one key's stream against the join and returns how many
// techniques it leaves live: each technique is live or not, a discovery
// takes the key from no live technique to one, an upgrade from one to two,
// and an expiry retires one. With one technique this is
// `discovered (expired discovered)* expired?`.
func grammar(evs []string) (live int, err error) {
	for _, ev := range evs {
		switch kind, _, _ := strings.Cut(ev, " "); kind {
		case core.EventServiceDiscovered.String():
			if live != 0 {
				return live, fmt.Errorf("has a discovery with %d techniques live", live)
			}
			live = 1
		case core.EventProvenanceUpgraded.String():
			if live != 1 {
				return live, fmt.Errorf("has an upgrade with %d techniques live", live)
			}
			live = 2
		case core.EventServiceExpired.String():
			if live == 0 {
				return live, fmt.Errorf("has an expiry with no technique live")
			}
			live--
		default:
			return live, fmt.Errorf("has event %q", ev)
		}
	}
	return live, nil
}

// firstDiff names the first line two dumps differ at.
func firstDiff(got, want []byte) string {
	g, r := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(r); i++ {
		var a, b string
		if i < len(g) {
			a = g[i]
		}
		if i < len(r) {
			b = r[i]
		}
		if a != b {
			return fmt.Sprintf("line %d:\n  got  %s\n  want %s", i, strings.Join(g[i:min(i+4, len(g))], "\n       "), strings.Join(r[i:min(i+4, len(r))], "\n       "))
		}
	}
	return "no difference"
}
