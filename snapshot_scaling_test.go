package servdisc

// The O(churn) merged-snapshot gate. BenchmarkSnapshotUnderLoad/entries=2M
// shows the property at scale in the CI bench archive; this test enforces
// it on every `go test` run, cheaply: snapshot an engine after a fixed
// batch of re-observations and count allocations with AllocsPerRun at two
// inventory sizes an order of magnitude apart. If merging the frozen shard
// views into the published inventory ever regresses to cloning or
// rescanning the resident records (the pre-persistent-map behavior), the
// large engine's count blows up by roughly the size ratio and both bounds
// below fail loudly. The delta checkpoint export rides the same snapshot
// point and is held to the same bounds.

import (
	"testing"
	"time"

	"servdisc/internal/core"
	"servdisc/internal/packet"
)

const (
	scalingChurn        = 2048
	scalingSmallEntries = 50_000
	scalingLargeEntries = 400_000
)

var scalingT0 = time.Date(2006, 9, 19, 10, 0, 0, 0, time.UTC)

// churnAllocs loads an engine with entries services, hands it to prime, and
// returns the allocations of one step: the fixed churn batch, re-timed past
// the watermark, passed to op.
func churnAllocs(t *testing.T, entries int, prime func(*core.ShardedPassive), op func(*core.ShardedPassive, []packet.Packet)) float64 {
	pfx := synthPrefix(t)
	sp := core.NewShardedPassive(pfx, nil, 4)
	defer sp.Close()
	feedSyntheticServices(sp, pfx, entries, scalingT0)
	if got := sp.Snapshot().Len(); got != entries {
		t.Fatalf("synthetic load produced %d services, want %d", got, entries)
	}
	prime(sp)
	churnPkts := synthChurn(pfx, scalingChurn)
	round := 0
	step := func() {
		round++
		retimeChurn(churnPkts, scalingT0.Add(time.Duration(round)*time.Minute))
		op(sp, churnPkts)
	}
	// Warm rounds let the engine's internal buffers reach steady-state
	// capacity so growth noise is not charged to the measured rounds
	// (AllocsPerRun adds one more warm-up call of its own).
	for i := 0; i < 3; i++ {
		step()
	}
	return testing.AllocsPerRun(8, step)
}

// checkChurnScaling applies the two bounds to what one churn step cost at
// the small and the large inventory.
func checkChurnScaling(t *testing.T, what string, small, large float64) {
	t.Helper()
	t.Logf("allocs per churn-%d %s: %d entries → %.0f, %d entries → %.0f",
		scalingChurn, what, scalingSmallEntries, small, scalingLargeEntries, large)

	// Absolute bound: a churned record costs a bounded handful of
	// allocations (dirty-seal copy plus a path-copied trie spine), nowhere
	// near one per resident record. 64 per churned record is ~5x headroom
	// over observed cost while staying ~400x below O(inventory) behavior.
	const maxPerChurned = 64
	for _, c := range []struct {
		entries int
		allocs  float64
	}{{scalingSmallEntries, small}, {scalingLargeEntries, large}} {
		if c.allocs > maxPerChurned*scalingChurn {
			t.Errorf("%d-entry engine: %.0f allocs per %s for %d churned records (> %d per record)",
				c.entries, c.allocs, what, scalingChurn, maxPerChurned)
		}
	}

	// Scaling bound: 8x the inventory may deepen the trie spine by at most
	// a level or so — identical churn must not cost more than ~2x the
	// allocations. O(inventory) work would make this ratio ~8x.
	if large > 2*small+64 {
		t.Errorf("identical churn cost %.0f allocs per %s at %d entries vs %.0f at %d: the cost is scaling with inventory size",
			large, what, scalingLargeEntries, small, scalingSmallEntries)
	}
}

func TestSnapshotMergeCostScalesWithChurn(t *testing.T) {
	measure := func(entries int) float64 {
		return churnAllocs(t, entries, func(*core.ShardedPassive) {}, func(sp *core.ShardedPassive, churn []packet.Packet) {
			sp.HandleBatch(churn)
			if sp.Snapshot() == nil {
				t.Fatal("nil snapshot")
			}
		})
	}
	checkChurnScaling(t, "snapshot", measure(scalingSmallEntries), measure(scalingLargeEntries))
}

// TestCheckpointDeltaCostScalesWithChurn is the same gate on a delta
// checkpoint export. Half the churn lands before a snapshot and half after,
// so the export finds its changes both ways: in the diff of the cursor's
// inventory against the chain's newest, and in its own freeze's seal.
func TestCheckpointDeltaCostScalesWithChurn(t *testing.T) {
	measure := func(entries int) float64 {
		var cur core.CheckpointCursor
		return churnAllocs(t, entries, func(sp *core.ShardedPassive) {
			_, cur = sp.ExportDelta(nil)
		}, func(sp *core.ShardedPassive, churn []packet.Packet) {
			sp.HandleBatch(churn[:len(churn)/2])
			sp.Snapshot()
			sp.HandleBatch(churn[len(churn)/2:])
			var ed *core.EngineDelta
			if ed, cur = sp.ExportDelta(&cur); len(ed.Services) != len(churn) {
				t.Fatalf("delta export carries %d services, want the %d churned", len(ed.Services), len(churn))
			}
		})
	}
	checkChurnScaling(t, "delta export", measure(scalingSmallEntries), measure(scalingLargeEntries))
}
