package servdisc

import (
	"bytes"
	"context"
	"testing"
	"time"
	"unsafe"

	"servdisc/internal/campus"
	"servdisc/internal/capture"
	"servdisc/internal/core"
	"servdisc/internal/netaddr"
	"servdisc/internal/packet"
	"servdisc/internal/pipeline"
	"servdisc/internal/probe"
	"servdisc/internal/query"
	"servdisc/internal/sim"
	"servdisc/internal/trace"
	"servdisc/internal/traffic"
)

// buildCampus wires a network + engine for a config.
func buildCampus(t testing.TB, cfg campus.Config) (*campus.Network, *sim.Engine, netaddr.Prefix) {
	t.Helper()
	net, err := campus.NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New(cfg.Start)
	campus.NewDynamics(net, eng)
	pfx, err := netaddr.NewPrefix(net.Plan().Base(), 16)
	if err != nil {
		t.Fatal(err)
	}
	return net, eng, pfx
}

func smallConfig() campus.Config {
	cfg := campus.DefaultSemesterConfig()
	cfg.StaticAddrs, cfg.StaticSubnets = 2048, 8
	cfg.DHCPAddrs, cfg.WirelessAddrs, cfg.PPPAddrs, cfg.VPNAddrs = 256, 128, 128, 64
	cfg.StaticLiveHosts, cfg.StaticServers, cfg.PopularServers = 400, 200, 8
	cfg.DHCPHosts, cfg.PPPHosts, cfg.VPNHosts, cfg.WirelessHosts = 100, 40, 30, 40
	cfg.FlowsPerDay = 15000
	return cfg
}

// assertInventoriesEqual requires two inventories to be byte-for-byte
// identical: same keys, records, scanners, and roll-ups.
func assertInventoriesEqual(t *testing.T, want, got *Inventory) {
	t.Helper()
	if want.Packets() != got.Packets() {
		t.Fatalf("Packets = %d, want %d", got.Packets(), want.Packets())
	}
	wk, gk := want.Keys(), got.Keys()
	if len(wk) != len(gk) {
		t.Fatalf("%d services, want %d", len(gk), len(wk))
	}
	for i := range wk {
		if wk[i] != gk[i] {
			t.Fatalf("key %d = %v, want %v", i, gk[i], wk[i])
		}
		wr, _ := want.Record(wk[i])
		gr, _ := got.Record(gk[i])
		if !wr.FirstSeen().Equal(gr.FirstSeen()) || wr.Flows != gr.Flows || wr.Clients() != gr.Clients() {
			t.Fatalf("record %v differs: {%v %d %d} vs {%v %d %d}", wk[i],
				gr.FirstSeen(), gr.Flows, gr.Clients(), wr.FirstSeen(), wr.Flows, wr.Clients())
		}
		wp, gp := wr.FirstPeers(), gr.FirstPeers()
		if len(wp) != len(gp) {
			t.Fatalf("record %v first-peer count differs", wk[i])
		}
		for j := range wp {
			if wp[j] != gp[j] {
				t.Fatalf("record %v peer %d differs", wk[i], j)
			}
		}
	}
	ws, gs := want.Scanners(), got.Scanners()
	if len(ws) != len(gs) {
		t.Fatalf("%d scanners, want %d", len(gs), len(ws))
	}
	for i := range ws {
		if ws[i] != gs[i] {
			t.Fatalf("scanner %d = %+v, want %+v", i, gs[i], ws[i])
		}
	}
	wf := want.AddrFirstSeenExcluding(want.ScannerSet(), nil)
	gf := got.AddrFirstSeenExcluding(got.ScannerSet(), nil)
	if len(wf) != len(gf) {
		t.Fatalf("AddrFirstSeenExcluding size differs: %d vs %d", len(gf), len(wf))
	}
	for a, wt := range wf {
		if gt, ok := gf[a]; !ok || !gt.Equal(wt) {
			t.Fatalf("AddrFirstSeenExcluding[%v] = %v, want %v", a, gt, wt)
		}
	}
}

// TestSharded18dMatchesSequential is the acceptance check for the sharded
// ingest pipeline: over the full 18-day semester campaign, an 8-shard
// ShardedPassive (with concurrent workers) must produce a snapshot
// deterministically identical to the single-threaded PassiveDiscoverer
// consuming the same monitored stream.
func TestSharded18dMatchesSequential(t *testing.T) {
	days := 18.0
	cfg := campus.DefaultSemesterConfig()
	if testing.Short() {
		days = 2
	}
	net, eng, pfx := buildCampus(t, cfg)

	plain := core.NewPassiveDiscoverer(pfx, campus.SelectedUDPPorts)
	sharded := core.NewShardedPassive(pfx, campus.SelectedUDPPorts, 8)
	sharded.Run(context.Background())

	both := pipeline.Fanout{plain, sharded}
	tap1, err := capture.NewTap(capture.LinkCommercial1, capture.PaperFilter, nil, both)
	if err != nil {
		t.Fatal(err)
	}
	tap2, err := capture.NewTap(capture.LinkCommercial2, capture.PaperFilter, nil, both)
	if err != nil {
		t.Fatal(err)
	}
	mon := capture.NewMonitor(capture.NewAssigner(pfx, net.AcademicClients()), tap1, tap2)
	traffic.NewGenerator(net, eng, mon)

	eng.RunUntil(cfg.Start.Add(time.Duration(days * 24 * float64(time.Hour))))
	sharded.Close()

	want, got := core.NewInventory(plain), sharded.Snapshot()
	if want.Len() == 0 || len(want.Scanners()) == 0 {
		t.Fatalf("degenerate campaign: %d services, %d scanners", want.Len(), len(want.Scanners()))
	}
	assertInventoriesEqual(t, want, got)
	t.Logf("%d packets, %d services, %d scanners: sharded(8) == sequential", want.Packets(), want.Len(), len(want.Scanners()))
}

// recordTrace simulates a small campaign and returns it as an in-memory
// pcap of the monitored links.
func recordTrace(t *testing.T, days float64) (*bytes.Buffer, netaddr.Prefix) {
	t.Helper()
	cfg := smallConfig()
	net, eng, pfx := buildCampus(t, cfg)
	var buf bytes.Buffer
	w := trace.NewWriter(&buf, trace.LinkTypeRaw, 128)
	rec := capture.NewRecorder(w)
	tap1, err := capture.NewTap(capture.LinkCommercial1, capture.PaperFilter, nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	tap2, err := capture.NewTap(capture.LinkCommercial2, capture.PaperFilter, nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	mon := capture.NewMonitor(capture.NewAssigner(pfx, net.AcademicClients()), tap1, tap2)
	traffic.NewGenerator(net, eng, mon)
	eng.RunUntil(cfg.Start.Add(time.Duration(days * 24 * float64(time.Hour))))
	if err := rec.Err(); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return &buf, pfx
}

func TestDiscoverShardCountsAgree(t *testing.T) {
	buf, pfx := recordTrace(t, 1.5)
	raw := buf.Bytes()

	var ref *Inventory
	for _, shards := range []int{1, 2, 8} {
		inv, err := Discover(context.Background(), bytes.NewReader(raw), Config{
			Campus: pfx.String(),
			Shards: shards,
		})
		if err != nil {
			t.Fatal(err)
		}
		if inv.Len() == 0 {
			t.Fatal("replay discovered nothing")
		}
		if ref == nil {
			ref = inv
			continue
		}
		assertInventoriesEqual(t, ref, inv)
	}
}

func TestDiscoverWithFilter(t *testing.T) {
	buf, pfx := recordTrace(t, 1)
	raw := buf.Bytes()

	all, err := Discover(context.Background(), bytes.NewReader(raw), Config{Campus: pfx.String()})
	if err != nil {
		t.Fatal(err)
	}
	tcpOnly, err := Discover(context.Background(), bytes.NewReader(raw), Config{
		Campus: pfx.String(),
		Filter: "synack",
	})
	if err != nil {
		t.Fatal(err)
	}
	if tcpOnly.Packets() >= all.Packets() {
		t.Errorf("filter dropped nothing: %d vs %d packets", tcpOnly.Packets(), all.Packets())
	}
	for _, k := range tcpOnly.Keys() {
		if k.Proto != 6 {
			t.Fatalf("synack filter let %v through", k)
		}
	}
	if len(tcpOnly.Scanners()) != 0 {
		t.Error("synack-only stream cannot contain scan evidence")
	}
}

func TestDiscoverErrors(t *testing.T) {
	if _, err := Discover(context.Background(), bytes.NewReader(nil), Config{}); err == nil {
		t.Error("missing campus accepted")
	}
	if _, err := Discover(context.Background(), bytes.NewReader([]byte("not a pcap")),
		Config{Campus: "128.125.0.0/16"}); err == nil {
		t.Error("garbage trace accepted")
	}
	buf, pfx := recordTrace(t, 0.25)
	raw := buf.Bytes()
	if _, err := Discover(context.Background(), bytes.NewReader(raw), Config{
		Campus: pfx.String(),
		Filter: "bogus ((",
	}); err == nil {
		t.Error("bad filter accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if inv, err := Discover(ctx, bytes.NewReader(raw), Config{Campus: pfx.String()}); err == nil || inv != nil {
		t.Error("cancelled Discover returned an inventory")
	}
}

// fixedTimeBackend pins the probe timestamp handed to an inner backend, so
// a wall-clock sweep classifies the simulated campus as of a fixed moment.
type fixedTimeBackend struct {
	inner probe.Backend
	at    time.Time
}

func (b fixedTimeBackend) ProbeTCP(_ time.Time, addr netaddr.V4, port uint16) probe.TCPState {
	return b.inner.ProbeTCP(b.at, addr, port)
}

func (b fixedTimeBackend) ProbeUDP(_ time.Time, addr netaddr.V4, port uint16) probe.UDPState {
	return b.inner.ProbeUDP(b.at, addr, port)
}

// TestHybridFacade runs the full hybrid engine end to end: simulated
// border traffic into the passive side, a concurrent sweep of the same
// campus into the active side, and a reconciled snapshot with provenance.
func TestHybridFacade(t *testing.T) {
	cfg := smallConfig()
	net, eng, pfx := buildCampus(t, cfg)
	h, err := NewPipeline(Config{
		Campus:   pfx.String(),
		Shards:   4,
		Academic: net.AcademicClients(),
		Scan: &ScanOptions{
			Targets: net.Plan().ProbeTargets(),
			Workers: 8,
			Backend: fixedTimeBackend{inner: &probe.SimBackend{Net: net}, at: cfg.Start},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if h.Scheduler() == nil {
		t.Fatal("hybrid facade has no scheduler")
	}
	h.Run(context.Background())
	traffic.NewGenerator(net, eng, h)
	eng.RunUntil(cfg.Start.Add(12 * time.Hour))

	rep, err := h.Scan(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Truncated || rep.OpenAddrs().Len() == 0 {
		t.Fatalf("sweep degenerate: truncated=%v open=%d", rep.Truncated, rep.OpenAddrs().Len())
	}
	h.Close()

	inv := h.Snapshot()
	if !inv.Hybrid() {
		t.Fatal("snapshot is not hybrid")
	}
	if len(inv.Scans()) != 1 {
		t.Fatalf("snapshot has %d sweeps, want 1", len(inv.Scans()))
	}
	counts := inv.ProvenanceCounts()
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != inv.Len() || inv.Len() == 0 {
		t.Fatalf("provenance counts %v do not cover the %d services", counts, inv.Len())
	}
	// Both techniques must contribute: passive-only (firewalled/popular)
	// and active-only (idle servers) are the paper's headline classes.
	if counts[core.PassiveOnly] == 0 || counts[core.ActiveOnly] == 0 {
		t.Errorf("degenerate reconciliation: counts = %v", counts)
	}
	// A pipeline without scan options has no active side to sweep.
	passive, err := NewPipeline(Config{Campus: pfx.String()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := passive.Scan(context.Background()); err == nil {
		t.Error("Scan ran on a pipeline without Config.Scan")
	}
	if _, err := NewPipeline(Config{Campus: pfx.String(), Scan: &ScanOptions{}}); err == nil {
		t.Error("NewPipeline accepted scan options without targets")
	}
}

// TestPipelineFacadeMatchesHandWiring drives the facade pipeline and the
// classic hand-wired assembly from identical simulations and requires the
// same inventory from both.
func TestPipelineFacadeMatchesHandWiring(t *testing.T) {
	cfg := smallConfig()

	// Hand-wired run.
	net1, eng1, pfx := buildCampus(t, cfg)
	plain := core.NewPassiveDiscoverer(pfx, campus.SelectedUDPPorts)
	tap1, err := capture.NewTap(capture.LinkCommercial1, capture.PaperFilter, nil, plain)
	if err != nil {
		t.Fatal(err)
	}
	tap2, err := capture.NewTap(capture.LinkCommercial2, capture.PaperFilter, nil, plain)
	if err != nil {
		t.Fatal(err)
	}
	traffic.NewGenerator(net1, eng1,
		capture.NewMonitor(capture.NewAssigner(pfx, net1.AcademicClients()), tap1, tap2))
	eng1.RunUntil(cfg.Start.Add(36 * time.Hour))

	// Facade run over an identically-seeded simulation, shard workers on.
	net2, eng2, _ := buildCampus(t, cfg)
	pl, err := NewPipeline(Config{
		Campus:   pfx.String(),
		Shards:   4,
		Academic: net2.AcademicClients(),
	})
	if err != nil {
		t.Fatal(err)
	}
	pl.Run(context.Background())
	traffic.NewGenerator(net2, eng2, pl)
	eng2.RunUntil(cfg.Start.Add(36 * time.Hour))
	pl.Flush()
	defer pl.Close()

	assertInventoriesEqual(t, core.NewInventory(plain), pl.Snapshot())

	// The monitor's taps expose concurrency-safe counters.
	tap, ok := pl.Monitor().Tap(capture.LinkCommercial1)
	if !ok || tap.Seen() == 0 || tap.Delivered() == 0 {
		t.Error("facade tap counters empty")
	}
}

// TestFacadeLiveSnapshotAndWatch drives the facade pipeline with the
// engine running and checks the live surface: mid-campaign snapshots are
// consistent and non-terminal, the final snapshot matches a hand-wired
// single-threaded run, and the event stream delivers exactly one
// ServiceDiscovered per service in the final inventory.
func TestFacadeLiveSnapshotAndWatch(t *testing.T) {
	cfg := smallConfig()

	// Hand-wired single-threaded reference.
	net1, eng1, pfx := buildCampus(t, cfg)
	plain := core.NewPassiveDiscoverer(pfx, campus.SelectedUDPPorts)
	tapA, err := capture.NewTap(capture.LinkCommercial1, capture.PaperFilter, nil, plain)
	if err != nil {
		t.Fatal(err)
	}
	tapB, err := capture.NewTap(capture.LinkCommercial2, capture.PaperFilter, nil, plain)
	if err != nil {
		t.Fatal(err)
	}
	traffic.NewGenerator(net1, eng1,
		capture.NewMonitor(capture.NewAssigner(pfx, net1.AcademicClients()), tapA, tapB))
	eng1.RunUntil(cfg.Start.Add(24 * time.Hour))

	// Facade run with shard workers on and a watcher attached.
	net2, eng2, _ := buildCampus(t, cfg)
	pl, err := NewPipeline(Config{
		Campus:   pfx.String(),
		Shards:   4,
		Academic: net2.AcademicClients(),
	})
	if err != nil {
		t.Fatal(err)
	}
	pl.Run(context.Background())
	sub := pl.Subscribe(1 << 16)
	traffic.NewGenerator(net2, eng2, pl)

	// Mid-campaign live snapshots: no flush, no close, engine keeps going.
	var mids []*Inventory
	for _, hours := range []int{6, 12, 18} {
		eng2.RunUntil(cfg.Start.Add(time.Duration(hours) * time.Hour))
		mids = append(mids, pl.Snapshot())
	}
	eng2.RunUntil(cfg.Start.Add(24 * time.Hour))
	final := pl.Snapshot()
	pl.Close()

	for i := 1; i < len(mids); i++ {
		if mids[i].Len() < mids[i-1].Len() || mids[i].Packets() < mids[i-1].Packets() {
			t.Fatal("live snapshots went backwards")
		}
	}
	if final.Len() < mids[len(mids)-1].Len() {
		t.Fatal("final snapshot smaller than a mid-campaign one")
	}
	assertInventoriesEqual(t, core.NewInventory(plain), final)

	// Event stream: exactly one discovery per final-inventory service.
	if sub.Dropped() != 0 {
		t.Fatalf("watcher dropped %d events", sub.Dropped())
	}
	seen := make(map[ServiceKey]int)
	for ev := range sub.Events() {
		if ev.Kind == EventServiceDiscovered {
			seen[ev.Key]++
		}
	}
	keys := final.Keys()
	if len(seen) != len(keys) {
		t.Fatalf("%d distinct discovery events, inventory has %d services", len(seen), len(keys))
	}
	for _, key := range keys {
		if seen[key] != 1 {
			t.Fatalf("service %v discovered %d times", key, seen[key])
		}
	}
}

// TestFacadeWatchContextCancel checks that cancelling the Watch context
// ends the event channel even while the engine stays open.
func TestFacadeWatchContextCancel(t *testing.T) {
	pl, err := NewPipeline(Config{Campus: "128.125.0.0/16", Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	ctx, cancel := context.WithCancel(context.Background())
	ch := pl.Watch(ctx)
	cancel()
	select {
	case _, ok := <-ch:
		if ok {
			t.Fatal("event before any traffic")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Watch channel not closed after context cancellation")
	}
}

// TestPipelineReplayMatchesDiscover replays a recorded trace through a
// live pipeline (Replay bypasses the taps, like Discover) and requires
// the same inventory Discover produces, while snapshots taken during the
// replay stay consistent.
func TestPipelineReplayMatchesDiscover(t *testing.T) {
	buf, pfx := recordTrace(t, 1)
	raw := buf.Bytes()

	want, err := Discover(context.Background(), bytes.NewReader(raw), Config{
		Campus: pfx.String(),
		Shards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}

	pl, err := NewPipeline(Config{Campus: pfx.String(), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	pl.Run(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := pl.Replay(context.Background(), bytes.NewReader(raw))
		done <- err
	}()
	// Live snapshots while the replay streams in.
	deadline := time.After(30 * time.Second)
	for {
		inv := pl.Snapshot()
		if inv.Packets() > want.Packets() {
			t.Fatalf("live snapshot overshot: %d > %d packets", inv.Packets(), want.Packets())
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			pl.Close()
			assertInventoriesEqual(t, want, pl.Snapshot())
			return
		case <-deadline:
			t.Fatal("replay did not finish")
		default:
		}
	}
}

// TestColdStartSLI: a restored pipeline's first snapshot builds its first
// index epoch bottom up, observed once under path="build", and sets the
// cold-start gauge; the next snapshot patches that epoch, observed under
// path="patch".
func TestColdStartSLI(t *testing.T) {
	cfg := Config{Campus: "10.20.0.0/16", Shards: 2, QueryIndex: true, Checkpoint: &CheckpointOptions{Dir: t.TempDir()}}
	pfx := netaddr.MustParsePrefix(cfg.Campus)
	bld := packet.NewBuilder(0)
	client := packet.Endpoint{Addr: netaddr.MustParseV4("64.9.0.1"), Port: 33000}
	t0 := time.Date(2006, 9, 19, 10, 0, 0, 0, time.UTC)
	synAcks := func(from, n int) []packet.Packet {
		out := make([]packet.Packet, 0, n)
		for i := from; i < from+n; i++ {
			srv := packet.Endpoint{Addr: pfx.Base() + netaddr.V4(1+i/4), Port: uint16(2000 + i%4)}
			out = append(out, *bld.SynAck(t0.Add(time.Duration(i)*time.Second), srv, client, 1, 1))
		}
		return out
	}

	first, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first.engine.HandleBatch(synAcks(0, 100))
	if _, err := first.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	first.Close()

	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if man, err := p.RestoreFromCheckpoint(); err != nil || man == nil {
		t.Fatalf("restore: manifest %v, err %v", man, err)
	}
	build, patch := p.epochLat[query.PathBuild], p.epochLat[query.PathPatch]
	if n := p.Snapshot().Len(); n != 100 || p.qix.Len() != n {
		t.Fatalf("restored inventory holds %d services, index %d, want 100", n, p.qix.Len())
	}
	if build.Count() != 1 || patch.Count() != 0 {
		t.Errorf("first snapshot: %d build and %d patch observations, want 1 and 0", build.Count(), patch.Count())
	}
	cold := p.coldStart.Value()
	if cold <= 0 {
		t.Errorf("cold-start gauge reads %v after the first epoch, want > 0", cold)
	}

	p.engine.HandleBatch(synAcks(100, 10))
	if n := p.Snapshot().Len(); n != 110 || p.qix.Len() != n {
		t.Fatalf("inventory holds %d services, index %d, want 110", n, p.qix.Len())
	}
	if build.Count() != 1 || patch.Count() != 1 {
		t.Errorf("next snapshot: %d build and %d patch observations, want 1 and 1", build.Count(), patch.Count())
	}
	if p.coldStart.Value() != cold {
		t.Errorf("cold-start gauge moved from %v to %v after the first epoch", cold, p.coldStart.Value())
	}
}

// ingestServices feeds a running two-shard pipeline one SYN-ACK from each
// of n campus services and flushes, failing if ingest blocks.
func ingestServices(t *testing.T, pl *Pipeline, n int) {
	t.Helper()
	bld := packet.NewBuilder(0)
	at := time.Date(2006, 9, 19, 10, 0, 0, 0, time.UTC)
	cli := packet.Endpoint{Addr: netaddr.MustParseV4("64.9.0.1"), Port: 40000}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var batch []packet.Packet
		for i := range n {
			srv := packet.Endpoint{Addr: netaddr.MustParseV4("128.125.0.0") + netaddr.V4(i), Port: 80}
			batch = append(batch, *bld.SynAck(at, srv, cli, 1, 1))
			if len(batch) == 256 || i == n-1 {
				pl.HandleBatch(batch)
				batch = batch[:0]
			}
		}
		pl.Flush()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("ingest blocked behind a stalled subscriber")
	}
}

// TestWatchOverload: a Watch subscriber that stops reading holds its
// 1 024-event buffer and loses the rest, counted by the engine; ingest runs
// on. Watch exposes no per-subscription count, so the full channel and the
// engine's count stand for it.
func TestWatchOverload(t *testing.T) {
	const services, ceiling = 3000, 1024 * 208
	pl, err := NewPipeline(Config{Campus: "128.125.0.0/16", Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	events := pl.Watch(context.Background())
	pl.Run(context.Background())
	ingestServices(t, pl, services)
	if got := len(events); got != watchBuffer {
		t.Errorf("the stalled watcher holds %d events, want %d", got, watchBuffer)
	}
	if got, want := pl.EventCounters().Dropped(), services-watchBuffer; got != want {
		t.Errorf("the engine counts %d drops, want %d", got, want)
	}
	held := cap(events) * int(unsafe.Sizeof(Event{}))
	if held > ceiling {
		t.Errorf("a stalled watcher holds up to %d bytes, over the %d-byte ceiling", held, ceiling)
	}
	t.Logf("a stalled watcher holds up to %d bytes", held)
}
