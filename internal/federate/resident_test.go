package federate

import (
	"runtime"
	"testing"
	"time"

	"servdisc/internal/core"
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
// them). The aggregator holds a service once: its site cells (208 B for
// one site) under a 32-byte tree entry in the cell tree, which the query
// epoch reads, plus the four posting trees — 280 B measured, budget ≈1.1×
// that. A mutable per-site cell map beside a packed doc tree read 551 B
// and fails.
func TestAggregatorResidentBytesPerService(t *testing.T) {
	const (
		n      = 100_000
		budget = 308
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
