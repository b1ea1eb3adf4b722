package core

import (
	"bytes"
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"servdisc/internal/netaddr"
	"servdisc/internal/packet"
	"servdisc/internal/stats"
)

// genTrace synthesizes a deterministic border-traffic stream exercising
// every state path of the passive discoverer: TCP services answering
// clients, UDP services, below- and above-threshold scanners with RST
// responses, and ignorable noise (bare ACKs, inbound SYNs that never
// complete). Packets come out in timestamp order, like a real capture.
func genTrace(seed uint64, n int) []packet.Packet {
	campus := netaddr.MustParsePrefix("128.125.0.0/16")
	rng := stats.NewRNG(seed).Derive("sharded-test")
	bld := packet.NewBuilder(0)
	base := time.Date(2006, 9, 19, 10, 0, 0, 0, time.UTC)

	servers := make([]netaddr.V4, 60)
	for i := range servers {
		servers[i] = campus.Base() + netaddr.V4(256+i)
	}
	ports := []uint16{21, 22, 80, 443, 3306}
	ext := netaddr.MustParseV4("64.0.0.0")

	var out []packet.Packet
	now := base
	add := func(p *packet.Packet) { out = append(out, *p) }

	// Three full-threshold scanners and one that stays below it.
	type scanPlan struct {
		src      netaddr.V4
		dsts     int
		rsts     int
		startOff time.Duration
	}
	scans := []scanPlan{
		{netaddr.MustParseV4("211.1.1.1"), 150, 120, 1 * time.Hour},
		{netaddr.MustParseV4("211.2.2.2"), 300, 250, 13 * time.Hour}, // second window
		{netaddr.MustParseV4("211.3.3.3"), 120, 101, 20 * time.Hour},
		{netaddr.MustParseV4("211.4.4.4"), 90, 80, 2 * time.Hour}, // below threshold
	}
	for _, sc := range scans {
		t := base.Add(sc.startOff)
		for i := 0; i < sc.dsts; i++ {
			dst := campus.Base() + netaddr.V4(1000+i)
			syn := bld.Syn(t.Add(time.Duration(i)*time.Millisecond),
				packet.Endpoint{Addr: sc.src, Port: 40000}, packet.Endpoint{Addr: dst, Port: 80}, uint32(i))
			add(syn)
			if i < sc.rsts {
				rst := bld.Rst(t.Add(time.Duration(i)*time.Millisecond+500*time.Microsecond),
					packet.Endpoint{Addr: dst, Port: 80}, packet.Endpoint{Addr: sc.src, Port: 40000}, uint32(i)+1)
				add(rst)
			}
		}
	}

	// Client flows and noise, spread over 30 hours.
	for i := 0; i < n; i++ {
		now = base.Add(time.Duration(float64(30*time.Hour) * float64(i) / float64(n)))
		srv := servers[rng.Intn(len(servers))]
		cli := ext + netaddr.V4(rng.Intn(5000))
		port := ports[rng.Intn(len(ports))]
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4: // completed TCP handshake
			add(bld.Syn(now, packet.Endpoint{Addr: cli, Port: 33000}, packet.Endpoint{Addr: srv, Port: port}, 7))
			add(bld.SynAck(now.Add(500*time.Microsecond), packet.Endpoint{Addr: srv, Port: port},
				packet.Endpoint{Addr: cli, Port: 33000}, 9, 8))
		case 5: // refused connection: campus RST to the client
			add(bld.Syn(now, packet.Endpoint{Addr: cli, Port: 33001}, packet.Endpoint{Addr: srv, Port: 9999}, 7))
			add(bld.Rst(now.Add(500*time.Microsecond), packet.Endpoint{Addr: srv, Port: 9999},
				packet.Endpoint{Addr: cli, Port: 33001}, 8))
		case 6: // UDP service reply from a well-known port
			add(bld.UDPPacket(now, packet.Endpoint{Addr: cli, Port: 34000},
				packet.Endpoint{Addr: srv, Port: 53}, []byte("q")))
			add(bld.UDPPacket(now.Add(500*time.Microsecond), packet.Endpoint{Addr: srv, Port: 53},
				packet.Endpoint{Addr: cli, Port: 34000}, []byte("r")))
		case 7: // UDP from a non-service port: ignored evidence
			add(bld.UDPPacket(now, packet.Endpoint{Addr: srv, Port: 30000},
				packet.Endpoint{Addr: cli, Port: 34001}, []byte("x")))
		case 8: // bare ACK noise: no discoverer state at all
			add(bld.TCPPacket(now, packet.Endpoint{Addr: srv, Port: port},
				packet.Endpoint{Addr: cli, Port: 33000}, packet.FlagACK, 1, 2, nil))
		case 9: // campus-internal SYN: not scan-relevant
			add(bld.Syn(now, packet.Endpoint{Addr: campus.Base() + 5, Port: 40000},
				packet.Endpoint{Addr: srv, Port: port}, 3))
		}
	}
	return out
}

// feedBatches drives a batch sink with uneven batch sizes.
func feedBatches(sink interface{ HandleBatch([]packet.Packet) }, pkts []packet.Packet, rng *stats.RNG) {
	for off := 0; off < len(pkts); {
		sz := 1 + rng.Intn(400)
		if off+sz > len(pkts) {
			sz = len(pkts) - off
		}
		sink.HandleBatch(pkts[off : off+sz])
		off += sz
	}
}

// assertEquivalent checks that a sharded run's snapshot is byte-for-byte
// identical to the single-threaded reference's inventory.
func assertEquivalent(t *testing.T, label string, want, got *Inventory) {
	t.Helper()
	if want.Packets() != got.Packets() {
		t.Fatalf("%s: Packets = %d, want %d", label, got.Packets(), want.Packets())
	}
	wk, gk := want.Keys(), got.Keys()
	if len(wk) != len(gk) {
		t.Fatalf("%s: %d services, want %d", label, len(gk), len(wk))
	}
	for i := range wk {
		if wk[i] != gk[i] {
			t.Fatalf("%s: key %d = %v, want %v", label, i, gk[i], wk[i])
		}
		wr, _ := want.Record(wk[i])
		gr, _ := got.Record(gk[i])
		if !wr.FirstSeen().Equal(gr.FirstSeen()) || wr.Flows != gr.Flows || wr.Clients() != gr.Clients() {
			t.Fatalf("%s: record %v = {%v %d %d}, want {%v %d %d}", label, wk[i],
				gr.FirstSeen(), gr.Flows, gr.Clients(), wr.FirstSeen(), wr.Flows, wr.Clients())
		}
		wp, gp := wr.FirstPeers(), gr.FirstPeers()
		if len(wp) != len(gp) {
			t.Fatalf("%s: record %v has %d first peers, want %d", label, wk[i], len(gp), len(wp))
		}
		for j := range wp {
			if wp[j].Peer != gp[j].Peer || !wp[j].Time.Equal(gp[j].Time) {
				t.Fatalf("%s: record %v peer %d differs", label, wk[i], j)
			}
		}
	}
	ws, gs := want.Scanners(), got.Scanners()
	if len(ws) != len(gs) {
		t.Fatalf("%s: %d scanners, want %d", label, len(gs), len(ws))
	}
	for i := range ws {
		if ws[i] != gs[i] {
			t.Fatalf("%s: scanner %d = %+v, want %+v", label, i, gs[i], ws[i])
		}
	}
	excl := want.ScannerSet()
	wfs := want.AddrFirstSeenExcluding(excl, nil)
	gfs := got.AddrFirstSeenExcluding(got.ScannerSet(), nil)
	if len(wfs) != len(gfs) {
		t.Fatalf("%s: AddrFirstSeenExcluding has %d addrs, want %d", label, len(gfs), len(wfs))
	}
	for a, wt := range wfs {
		if gt, ok := gfs[a]; !ok || !gt.Equal(wt) {
			t.Fatalf("%s: AddrFirstSeenExcluding[%v] = %v, want %v", label, a, gt, wt)
		}
	}
	wall := want.AddrFirstSeen(nil)
	gall := got.AddrFirstSeen(nil)
	if len(wall) != len(gall) {
		t.Fatalf("%s: AddrFirstSeen has %d addrs, want %d", label, len(gall), len(wall))
	}
	for a, wt := range wall {
		if gt, ok := gall[a]; !ok || !gt.Equal(wt) {
			t.Fatalf("%s: AddrFirstSeen[%v] differs", label, a)
		}
		wl, wok := want.LastActivity(a)
		gl, gok := got.LastActivity(a)
		if wok != gok || !wl.Equal(gl) {
			t.Fatalf("%s: LastActivity[%v] differs", label, a)
		}
	}
}

func TestShardedMatchesSequential(t *testing.T) {
	campus := netaddr.MustParsePrefix("128.125.0.0/16")
	udpPorts := []uint16{53, 123, 137}
	for _, seed := range []uint64{1, 0xBEEF} {
		pkts := genTrace(seed, 20000)

		ref := NewPassiveDiscoverer(campus, udpPorts)
		feedBatches(ref, pkts, stats.NewRNG(seed).Derive("batching"))
		want := NewInventory(ref)

		for _, shards := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("seed=%d/sync-%d", seed, shards), func(t *testing.T) {
				sp := NewShardedPassive(campus, udpPorts, shards)
				feedBatches(sp, pkts, stats.NewRNG(seed).Derive("batching"))
				assertEquivalent(t, "sync", want, sp.Snapshot())
			})
			t.Run(fmt.Sprintf("seed=%d/async-%d", seed, shards), func(t *testing.T) {
				sp := NewShardedPassive(campus, udpPorts, shards)
				sp.Run(context.Background())
				feedBatches(sp, pkts, stats.NewRNG(seed).Derive("batching"))
				sp.Close()
				assertEquivalent(t, "async", want, sp.Snapshot())
			})
		}
	}
}

// TestShardQueueBackpressures stalls one shard's worker (its mu held, so
// apply cannot start) and dispatches more sub-batches to it than its queue
// holds: HandleBatch must block rather than drop, and once the stall ends
// the engine must hold exactly what an unstalled run holds.
func TestShardQueueBackpressures(t *testing.T) {
	if sz := unsafe.Sizeof(packet.Packet{}); sz != 152 && unsafe.Sizeof(uintptr(0)) == 8 {
		t.Errorf("packet.Packet is %d B; the ceiling on HandleBatch's doc assumes 152", sz)
	}
	b := packet.NewBuilder(0)
	mk := func() *ShardedPassive { return NewShardedPassive(campusPfx, nil, 2) }
	sp := mk()
	var owned [2][]netaddr.V4
	for a := campusPfx.Base() + 1; len(owned[0]) < 2*shardQueueDepth || len(owned[1]) < 2*shardQueueDepth; a++ {
		i := sp.shardOf(a)
		owned[i] = append(owned[i], a)
	}
	batches := make([][]packet.Packet, 2*shardQueueDepth)
	for i := range batches {
		at := t0.Add(time.Duration(i) * time.Second)
		client := packet.Endpoint{Addr: cli, Port: 40000}
		batches[i] = []packet.Packet{
			*b.SynAck(at, packet.Endpoint{Addr: owned[0][i], Port: 80}, client, 1, 2),
			*b.SynAck(at, packet.Endpoint{Addr: owned[1][i], Port: 22}, client, 1, 2),
		}
	}

	sp.Run(context.Background())
	defer sp.Close()
	stalled := sp.shards[0]
	stalled.mu.Lock()
	var returned atomic.Int64
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for _, batch := range batches {
			sp.HandleBatch(batch)
			returned.Add(1)
		}
	}()
	for deadline := time.Now().Add(10 * time.Second); len(sp.queues[0]) < shardQueueDepth; {
		if time.Now().After(deadline) {
			stalled.mu.Unlock()
			t.Fatalf("stalled shard's queue holds %d sub-batches after 10s, want %d", len(sp.queues[0]), shardQueueDepth)
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-finished:
		t.Error("every HandleBatch returned while a shard queue was full")
	case <-time.After(20 * time.Millisecond):
	}
	// The queue plus the one sub-batch the stalled worker may hold.
	if n := returned.Load(); n > shardQueueDepth+1 {
		t.Errorf("%d HandleBatch calls returned past a full %d-deep queue", n, shardQueueDepth)
	}
	if d := sp.Counters().Dropped(); d != 0 {
		t.Errorf("Dropped = %d during the stall", d)
	}
	stalled.mu.Unlock()
	<-finished
	sp.Flush()
	if d := sp.Counters().Dropped(); d != 0 {
		t.Errorf("Dropped = %d after the stall", d)
	}

	ref := mk()
	for _, batch := range batches {
		ref.HandleBatch(batch)
	}
	if got, want := sp.Snapshot().Dump(), ref.Snapshot().Dump(); !bytes.Equal(got, want) {
		t.Errorf("stalled run's dump (%d B) differs from the unstalled run's (%d B)", len(got), len(want))
	}
}

func TestShardedSnapshotReadOnlyView(t *testing.T) {
	campus := netaddr.MustParsePrefix("128.125.0.0/16")
	pkts := genTrace(7, 5000)

	ref := NewPassiveDiscoverer(campus, []uint16{53})
	ref.HandleBatch(pkts)
	sp := NewShardedPassive(campus, []uint16{53}, 4)
	sp.Run(context.Background())
	sp.HandleBatch(pkts)
	sp.Close()

	want, got := NewInventory(ref), sp.Snapshot()
	if want.Len() != got.Len() || want.Packets() != got.Packets() {
		t.Fatalf("snapshot len/packets = %d/%d, want %d/%d",
			got.Len(), got.Packets(), want.Len(), want.Packets())
	}
	wk, gk := want.Keys(), got.Keys()
	for i := range wk {
		if wk[i] != gk[i] {
			t.Fatalf("snapshot key %d differs", i)
		}
	}
	if len(want.Scanners()) != len(got.Scanners()) {
		t.Fatalf("snapshot scanners = %d, want %d", len(got.Scanners()), len(want.Scanners()))
	}
	for i, s := range want.Scanners() {
		if got.Scanners()[i] != s {
			t.Fatalf("snapshot scanner %d differs", i)
		}
	}
	// Ingest after Close is dropped: the snapshot stays frozen.
	sp.HandleBatch(pkts)
	if after := sp.Snapshot(); after.Packets() != want.Packets() {
		t.Errorf("post-Close ingest mutated the sharded state: %d packets", after.Packets())
	}
}

func TestShardedHandlesPacketlessEdges(t *testing.T) {
	campus := netaddr.MustParsePrefix("128.125.0.0/16")
	sp := NewShardedPassive(campus, nil, 3)
	sp.HandleBatch(nil) // empty batch is a no-op
	if inv := sp.Snapshot(); inv.Packets() != 0 || inv.Len() != 0 {
		t.Fatal("empty ingest produced state")
	}
	if sp.NumShards() != 3 {
		t.Errorf("NumShards = %d", sp.NumShards())
	}
	// n < 1 clamps to one shard.
	if NewShardedPassive(campus, nil, 0).NumShards() != 1 {
		t.Error("shard clamp failed")
	}
}
