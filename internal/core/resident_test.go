package core

import (
	"runtime"
	"testing"
	"time"

	"servdisc/internal/netaddr"
	"servdisc/internal/packet"
	"servdisc/internal/probe"
)

// TestResidentBytesPerFlowState is the memory gate beside the alloc gates:
// what one ordinary external client and one ordinary service cost the
// engine in live heap. A border monitor sees hundreds of one-off clients
// for every service, so bytes per (source, window) pair decide whether the
// passive technique is deployable at all. Budgets are ≈1.15–1.25× the
// measured figures (DESIGN.md §7): 58 B and one allocation per source, and 9.7 B
// per further 12 h window of a client that keeps coming back (the shape an
// 18-day campaign has), since a source's windows are packed into one run of
// words behind a 16-byte table slot, each window under a one-word header —
// a Go map of word slices with a header and an index word per window read
// 69 B and 14.3 B, the slice of 56-byte windows before it 112 B, 2
// allocations and 58.4 B, the map-per-set form 416 B and 7 — and 133 B per
// service since its record holds the first peer inline in 48 bytes (a
// 64-byte record with a 16-byte peer array beside it read 165 B, which fails
// the service budget). The event join reads passive presence from the
// shard's own record: the engine-wide join table it replaced held a 16-byte
// entry behind every service and read 200 B. The saving must not be a
// passive-engine special case: the same services in a Hybrid that has
// reconciled a sweep over other keys cost the same, and the join holds an
// entry per probe-answered key and none per passive service. Four more
// readings price the addrSet behind the engine's resident address sets, in
// each of its forms: 8.3 B per further distinct client of a 2 000-client
// service whose clients are scattered (a table), 0.25 B when they are
// contiguous (a bitmap), and 16.9 B per destination of a scanner's
// promoted window (one member in each of its two sets) when the
// destinations are scattered, 0.81 B when it sweeps them in order. The Go
// maps it replaced read 19.2 B and 38.6 B; the table alone read 8.3 B and
// 16.9 B in either layout.
func TestResidentBytesPerFlowState(t *testing.T) {
	const (
		n             = 100_000
		sourceBudget  = 66 // bytes per one-destination external source
		repeats       = 20_000
		windows       = 36  // 18 days
		windowBudget  = 12  // bytes per (source, window) of a repeat client
		svcBudget     = 150 // bytes per single-client service
		hybridSlack   = 2   // bytes a Hybrid may add per passive-only service
		allocBudget   = 1   // allocations for a first SYN from a new source
		probed        = 1000
		busySvcs      = 1000
		busyClients   = 2000
		clientBudget  = 10 // bytes per further distinct client of a busy service
		scanSrcs      = 64
		scanDsts      = 2000
		scanDstBudget = 21 // bytes per SYN+RST destination of a scanner's window

		denseClientBudget  = 0.31 // the same, contiguous clients
		denseScanDstBudget = 1.0  // the same, destinations swept in order
	)
	wide := residentCampus
	ext := netaddr.MustParseV4("64.0.0.0")
	pb := packet.NewBuilder(0)

	// grow reports live-heap growth per packet across filling a 1-shard
	// engine with n packets, each made from tmpl by edit.
	grow := func(eng *ShardedPassive, n int, tmpl *packet.Packet, edit func(p *packet.Packet, i int)) float64 {
		var m0, m1 runtime.MemStats
		liveHeap(&m0)
		fillEngine(eng, n, tmpl, edit)
		liveHeap(&m1)
		runtime.KeepAlive(eng)
		return (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / float64(n)
	}

	syn := pb.Syn(t0, packet.Endpoint{Addr: ext, Port: 40000}, packet.Endpoint{Addr: wide.Base() + 9, Port: 80}, 1)
	perSource := grow(NewShardedPassive(wide, nil, 1), n, syn, func(p *packet.Packet, i int) { p.IPv4.Src = ext + netaddr.V4(i) })
	t.Logf("one-destination external source: %.0f B (budget %d)", perSource, sourceBudget)
	if perSource > sourceBudget {
		t.Errorf("one-destination external source holds %.0f B of live heap, budget %d", perSource, sourceBudget)
	}

	// The repeat client: every source back in every window, in capture order.
	perWindow := grow(NewShardedPassive(wide, nil, 1), repeats*windows, syn, func(p *packet.Packet, i int) {
		p.IPv4.Src = ext + netaddr.V4(i%repeats)
		p.Timestamp = t0.Add(time.Duration(i/repeats)*ScanDetectWindow + time.Duration(i%repeats)*time.Millisecond)
	})
	t.Logf("repeat client, per (source, 12 h window) over %d windows: %.1f B (budget %d)", windows, perWindow, windowBudget)
	if perWindow > windowBudget {
		t.Errorf("a repeat client holds %.1f B of live heap per (source, window), budget %d", perWindow, windowBudget)
	}

	accept := synAck(t0, wide.Base(), 80, ext)
	oneEach := func(p *packet.Packet, i int) { p.IPv4.Src = wide.Base() + netaddr.V4(i) }
	plain := NewShardedPassive(wide, nil, 1)
	perSvc := grow(plain, n, accept, oneEach)
	t.Logf("single-client service: %.0f B (budget %d)", perSvc, svcBudget)
	if perSvc > svcBudget {
		t.Errorf("single-client service holds %.0f B of live heap, budget %d", perSvc, svcBudget)
	}

	hyb := NewHybrid(wide, nil, 1, []uint16{80})
	sweep := &probe.ScanReport{ID: 1, Started: t0, Finished: t0}
	for i := 0; i < probed; i++ {
		sweep.TCP = append(sweep.TCP, probe.TCPResult{Time: t0, Addr: wide.Base() + netaddr.V4(n+i), Port: 80, State: probe.StateOpen})
	}
	hyb.AddReport(sweep)
	perHybSvc := grow(hyb.Passive(), n, accept, oneEach)
	runtime.KeepAlive(hyb)
	t.Logf("single-client service in a hybrid engine: %.0f B (plain %.0f, slack %d)", perHybSvc, perSvc, hybridSlack)
	if perHybSvc > perSvc+hybridSlack {
		t.Errorf("single-client service holds %.0f B in a hybrid engine, %.0f B in a passive one", perHybSvc, perSvc)
	}
	if got := joinEntries(plain); got != 0 {
		t.Errorf("passive engine holds %d join entries for %d passive-only services, want 0", got, n)
	}
	if got := joinEntries(hyb.Passive()); got != probed {
		t.Errorf("hybrid engine holds %d join entries, want one per probe-answered key (%d)", got, probed)
	}

	// A busy service: once its peer history is full, a further distinct
	// client lands in its distinct-peer set and nowhere else. Contiguous
	// clients make the set a bitmap; one client to each of 128 external
	// /8s in turn keeps it a table.
	for _, layout := range []struct {
		name   string
		client func(k int) netaddr.V4
		budget float64
	}{
		{"contiguous", func(k int) netaddr.V4 { return ext + netaddr.V4(k) }, denseClientBudget},
		{"scattered", func(k int) netaddr.V4 { return netaddr.V4(64+k%128)<<24 | netaddr.V4(uint32(k)*0x9e3779b1)&0xffffff }, clientBudget},
	} {
		busyClient := func(base int) func(p *packet.Packet, i int) {
			return func(p *packet.Packet, i int) {
				p.IPv4.Src = wide.Base() + netaddr.V4(i%busySvcs)
				p.IPv4.Dst = layout.client(base + i/busySvcs)
			}
		}
		busy := NewShardedPassive(wide, nil, 1)
		fillEngine(busy, busySvcs*maxFirstPeers, accept, busyClient(0))
		perClient := grow(busy, busySvcs*(busyClients-maxFirstPeers), accept, busyClient(maxFirstPeers))
		t.Logf("further distinct %s client of a %d-client service: %.2f B (budget %g)", layout.name, busyClients, perClient, layout.budget)
		if perClient > layout.budget {
			t.Errorf("a further distinct %s client of a busy service holds %.2f B of live heap, budget %g", layout.name, perClient, layout.budget)
		}
	}

	// Scanners: every source sweeps the same destinations, each answered by
	// a RST, so each window holds both sets promoted far past scanInline.
	// A sweep in address order makes them bitmaps; destinations spread over
	// the campus /8 keep them tables.
	for _, layout := range []struct {
		name   string
		dst    func(j int) netaddr.V4
		budget float64
	}{
		{"contiguous", func(j int) netaddr.V4 { return wide.Base() + netaddr.V4(j) }, denseScanDstBudget},
		{"scattered", func(j int) netaddr.V4 { return wide.Base() + netaddr.V4(uint32(j)*0x9e3779b1)&0xffffff }, scanDstBudget},
	} {
		perDst := 2 * grow(NewShardedPassive(wide, nil, 1), 2*scanSrcs*scanDsts, syn, func(p *packet.Packet, i int) {
			src, dst := ext+netaddr.V4(i/2%scanSrcs), layout.dst(i/2/scanSrcs)
			p.IPv4.Src, p.IPv4.Dst = src, dst
			if i%2 == 1 {
				p.IPv4.Src, p.IPv4.Dst, p.TCP.Flags = dst, src, packet.FlagRST|packet.FlagACK
			}
		})
		t.Logf("%s scanner, per SYN+RST destination of a promoted window: %.2f B (budget %g)", layout.name, perDst, layout.budget)
		if perDst > layout.budget {
			t.Errorf("a %s scanner holds %.2f B of live heap per SYN+RST destination, budget %g", layout.name, perDst, layout.budget)
		}
	}

	d := NewPassiveDiscoverer(wide, nil)
	p := *syn
	allocs := testing.AllocsPerRun(10_000, func() {
		p.IPv4.Src++
		d.HandlePacket(&p)
	})
	t.Logf("first SYN from a new source: %.0f allocs (budget %d)", allocs, allocBudget)
	if allocs > allocBudget {
		t.Errorf("first SYN from a new source costs %.0f allocations, budget %d", allocs, allocBudget)
	}
}

// TestResidentBytesFirstSnapshot is the reading the gate above does not
// take (it measures before any snapshot): what one service costs once the
// inventory is queryable. Live-heap growth per service across filling an
// engine with 100 k single-client services, one per address, and taking its
// first Snapshot, with the inventory kept alive: the merged store's two
// B+-trees bulk-built, their leaves holding each 40-byte record by value
// beside its key and each trail's header beside its address, the trails'
// arrays, and nothing else — the install after the merge empties every
// shard's write layers, so no shard index survives it (DESIGN.md §5).
// Budget ≈1.15× the measured 91 B; leaves holding a pointer to a record
// allocated apart read 107 B, and shards that kept a map of every record
// and every trail beside the store 183 B.
func TestResidentBytesFirstSnapshot(t *testing.T) {
	const (
		n      = 100_000
		budget = 105 // bytes per service, fill plus first snapshot
	)
	accept := synAck(t0, residentCampus.Base(), 80, netaddr.MustParseV4("64.0.0.0"))
	for _, shards := range []int{1, 2} {
		var m0, m1 runtime.MemStats
		liveHeap(&m0)
		eng := NewShardedPassive(residentCampus, nil, shards)
		fillEngine(eng, n, accept, func(p *packet.Packet, i int) { p.IPv4.Src = residentCampus.Base() + netaddr.V4(i) })
		inv := eng.Snapshot()
		liveHeap(&m1)
		runtime.KeepAlive(inv)
		runtime.KeepAlive(eng)
		if inv.Len() != n {
			t.Fatalf("shards=%d: snapshot holds %d services, want %d", shards, inv.Len(), n)
		}
		per := (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / n
		t.Logf("shards=%d: fill plus first snapshot holds %.0f B per service (budget %d)", shards, per, budget)
		if per > budget {
			t.Errorf("shards=%d: fill plus first snapshot holds %.0f B of live heap per service, budget %d", shards, per, budget)
		}
	}
}

// residentCampus is wide enough for 100 k one-service addresses.
var residentCampus = netaddr.MustParsePrefix("10.0.0.0/8")

// fillEngine feeds n packets, each made from tmpl by edit and stamped a
// millisecond apart, and flushes. Packets go through one reused batch so
// the trace itself is not on the heap.
func fillEngine(eng *ShardedPassive, n int, tmpl *packet.Packet, edit func(p *packet.Packet, i int)) {
	batch := make([]packet.Packet, 0, 256)
	for i := 0; i < n; i++ {
		p := *tmpl
		p.Timestamp = t0.Add(time.Duration(i) * time.Millisecond)
		edit(&p, i)
		if batch = append(batch, p); len(batch) == cap(batch) {
			eng.HandleBatch(batch)
			batch = batch[:0]
		}
	}
	eng.HandleBatch(batch)
	eng.Flush()
}

// liveHeap reads the heap after two collections — the second reclaims what
// the first cycle's sweep released — as the repo benchmark's
// heap_bytes_per_service does.
func liveHeap(m *runtime.MemStats) {
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(m)
}
