package federate

import (
	"runtime"
	"testing"
	"time"

	"servdisc/internal/core"
	"servdisc/internal/netaddr"
	"servdisc/internal/packet"
	"servdisc/internal/query"
)

// liveHeap reads the heap after two collections, as the repo benchmark
// measures heap_bytes_per_service.
func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestAggregatorResidentBytesPerService is the aggregator's memory gate:
// live-heap growth per global service across one snapshot frame of n
// services from one site, then one Query (which flushes and indexes
// them). The aggregator holds a service once: its site cells (one 88-byte
// cell, in the 96-byte size class, for one site) under a 32-byte tree
// entry in the cell tree, which the query epoch reads, plus the four
// posting trees — 167 B measured, budget ≈1.1× that. A cell of seven
// time.Times (208 B) read 279 B and fails; a mutable per-site cell map
// beside a packed doc tree read 551 B.
func TestAggregatorResidentBytesPerService(t *testing.T) {
	const (
		n      = 100_000
		budget = 184
	)
	base := time.Date(2006, 12, 16, 10, 0, 0, 0, time.UTC)
	agg := NewAggregator()
	before := liveHeap()
	func() {
		svcs := make([]SnapshotService, n)
		for i := range svcs {
			svcs[i] = SnapshotService{
				Key:        testKey(0x807D0000+uint32(i/4), 6, uint16(2000+i%4)),
				Provenance: core.PassiveOnly,
				PassiveAt:  base.Add(time.Duration(i) * time.Second),
				Flows:      1 + i%50, Clients: 1 + i%5,
			}
		}
		if err := agg.Apply(&Frame{V: WireVersion, Type: FrameSnapshot, Site: "east", Seq: 1,
			Snapshot: &Snapshot{Services: svcs}}); err != nil {
			t.Fatal(err)
		}
		if res, err := agg.Query(query.Query{Limit: 1}); err != nil || res.Total != n {
			t.Fatalf("query: total %d (err %v), want %d", res.Total, err, n)
		}
	}()
	perService := (float64(liveHeap()) - float64(before)) / n
	runtime.KeepAlive(agg)
	t.Logf("global service: %.1f B (budget %d)", perService, budget)
	if perService > budget {
		t.Errorf("a global service holds %.1f B of live heap, budget %d", perService, budget)
	}
}

// TestPublisherHoldsNoSealHistory is the publisher's memory gate: a site
// of 2 000 services, each re-observed between 1 000 snapshots, ships 1 000
// seal frames of 2 000 rows, and the publisher must keep none of them. It
// holds what a resume needs — each key's last seal position — and nothing
// else of size: the whole publisher is counted. A frame ring that kept the
// seals read ≈ 160 MB, and a 32 768-event subscription buffer ≈ 6.8 MB.
func TestPublisherHoldsNoSealHistory(t *testing.T) {
	const services, snapshots = 2000, 1000
	eng := core.NewShardedPassive(testCampus, nil, 1)
	pub := NewPublisherOpts("history", eng, PublisherOptions{Heartbeat: -1})
	bld := packet.NewBuilder(0)
	batch := make([]packet.Packet, services)
	for i := range batch {
		batch[i] = *bld.SynAck(retBase, packet.Endpoint{Addr: testCampus.Base() + netaddr.V4(i), Port: 80},
			packet.Endpoint{Addr: netaddr.MustParseV4("64.20.0.1"), Port: 33000}, 9, 8)
	}
	for r := range snapshots {
		eng.HandleBatch(batch)
		eng.Snapshot()
		// The discoveries, then a seal frame per snapshot but the first.
		if got := pub.State().Seq; got != uint64(services+r) {
			t.Fatalf("after snapshot %d the stream is at %d, want %d", r, got, services+r)
		}
	}
	with := liveHeap()
	eng.OnSnapshot(nil)
	pub.Close()
	pub = nil
	without := liveHeap()
	runtime.KeepAlive(eng)
	held := int64(with) - int64(without)
	t.Logf("publisher holds %d B after %d seals", held, snapshots-1)
	if held > 256<<10 {
		t.Errorf("the publisher holds %d B after %d seal frames, want <= 256 KiB", held, snapshots-1)
	}
}
