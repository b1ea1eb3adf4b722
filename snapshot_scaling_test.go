package servdisc

// The O(churn) merged-snapshot gate. BenchmarkSnapshotUnderLoad/entries=2M
// shows the property at scale in the CI bench archive; this test enforces
// it on every `go test` run, cheaply: snapshot an engine after a fixed
// batch of churn and count allocations and bytes allocated at two
// inventory sizes an order of magnitude apart. If merging the frozen shard
// views into the published inventory ever regresses to cloning or
// rescanning the resident records, or to copying a flat listing of their
// keys, the large engine's cost blows up by roughly the size ratio and the
// bounds below fail loudly. The delta checkpoint export rides the same
// snapshot point and is held to the same bounds.

import (
	"runtime"
	"testing"
	"time"

	"servdisc/internal/core"
	"servdisc/internal/netaddr"
	"servdisc/internal/packet"
)

const (
	scalingChurn        = 2048
	scalingSmallEntries = 50_000
	scalingLargeEntries = 400_000
)

var scalingT0 = time.Date(2006, 9, 19, 10, 0, 0, 0, time.UTC)

// churnCost loads an engine with entries services, hands it to prime, and
// returns what one step costs in allocations and in bytes allocated: a
// batch of scalingChurn observations, timed past the watermark, passed to
// op. The batch re-observes the first services, or with fresh brings ones
// the engine has never seen (synthFresh), so every step grows the key set.
func churnCost(t *testing.T, entries int, fresh bool, prime func(*core.ShardedPassive), op func(*core.ShardedPassive, []packet.Packet)) (allocs, bytes float64) {
	pfx := synthPrefix(t)
	sp := core.NewShardedPassive(pfx, nil, 4)
	defer sp.Close()
	feedSyntheticServices(sp, pfx, entries, scalingT0)
	if got := sp.Snapshot().Len(); got != entries {
		t.Fatalf("synthetic load produced %d services, want %d", got, entries)
	}
	prime(sp)
	// Warm rounds let the engine's internal buffers reach steady-state
	// capacity so growth noise is not charged to the measured rounds.
	const warm, runs = 4, 8
	reobs := synthChurn(pfx, scalingChurn)
	var m0, m1 runtime.MemStats
	for round := 0; round < warm+runs; round++ {
		batch := reobs
		if fresh {
			batch = synthFresh(pfx, entries, round)
		}
		retimeChurn(batch, scalingT0.Add(time.Duration(round+1)*time.Minute))
		if round == warm {
			runtime.ReadMemStats(&m0)
		}
		op(sp, batch)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / runs, float64(m1.TotalAlloc-m0.TotalAlloc) / runs
}

// synthFresh prebuilds round's batch of scalingChurn services new to an
// engine loaded with entries: two ports no earlier round used on each of
// scalingChurn/2 loaded addresses spread evenly across them, so the new
// keys land all over the key order rather than past its end.
func synthFresh(pfx netaddr.Prefix, entries, round int) []packet.Packet {
	bld := packet.NewBuilder(0)
	client := packet.Endpoint{Addr: netaddr.MustParseV4("64.9.0.2"), Port: 41000}
	addrs := entries / synthPortsPerAddr
	out := make([]packet.Packet, 0, scalingChurn)
	for j := 0; j < scalingChurn; j++ {
		srv := packet.Endpoint{
			Addr: pfx.Base() + netaddr.V4(1+j/2*addrs/(scalingChurn/2)),
			Port: uint16(9000 + synthPortsPerAddr + 2*round + j%2),
		}
		out = append(out, *bld.SynAck(time.Time{}, srv, client, 7, 7))
	}
	return out
}

// checkChurnScaling applies the bounds to what one churn step cost at the
// small and the large inventory.
func checkChurnScaling(t *testing.T, what string, small, large [2]float64) {
	t.Helper()
	t.Logf("per churn-%d %s: %d entries → %.0f allocs, %.2f MB; %d entries → %.0f allocs, %.2f MB",
		scalingChurn, what, scalingSmallEntries, small[0], small[1]/1e6, scalingLargeEntries, large[0], large[1]/1e6)

	// Absolute bound: a churned record costs a bounded handful of
	// allocations (dirty-seal copy plus a path-copied tree spine), nowhere
	// near one per resident record. 64 per churned record is ~5x headroom
	// over observed cost while staying ~400x below O(inventory) behavior.
	const maxPerChurned = 64
	for _, c := range []struct {
		entries int
		allocs  float64
	}{{scalingSmallEntries, small[0]}, {scalingLargeEntries, large[0]}} {
		if c.allocs > maxPerChurned*scalingChurn {
			t.Errorf("%d-entry engine: %.0f allocs per %s for %d churned records (> %d per record)",
				c.entries, c.allocs, what, scalingChurn, maxPerChurned)
		}
	}

	// Scaling bounds: 8x the inventory may deepen the tree spine by at most
	// a level or so — identical churn must not cost more than ~2x the
	// allocations or the bytes. O(inventory) work would make either ratio
	// ~8x; a flat key list copied per snapshot costs 8 B per resident key.
	if large[0] > 2*small[0]+64 {
		t.Errorf("identical churn cost %.0f allocs per %s at %d entries vs %.0f at %d: the cost is scaling with inventory size",
			large[0], what, scalingLargeEntries, small[0], scalingSmallEntries)
	}
	if large[1] > 2*small[1] {
		t.Errorf("identical churn allocated %.2f MB per %s at %d entries vs %.2f MB at %d: the cost is scaling with inventory size",
			large[1]/1e6, what, scalingLargeEntries, small[1]/1e6, scalingSmallEntries)
	}
}

// snapshotCost measures churnCost of a batch followed by a snapshot.
func snapshotCost(t *testing.T, entries int, fresh bool) [2]float64 {
	allocs, bytes := churnCost(t, entries, fresh, func(*core.ShardedPassive) {}, func(sp *core.ShardedPassive, churn []packet.Packet) {
		sp.HandleBatch(churn)
		if sp.Snapshot() == nil {
			t.Fatal("nil snapshot")
		}
	})
	return [2]float64{allocs, bytes}
}

func TestSnapshotMergeCostScalesWithChurn(t *testing.T) {
	checkChurnScaling(t, "snapshot", snapshotCost(t, scalingSmallEntries, false), snapshotCost(t, scalingLargeEntries, false))
}

// TestSnapshotNewKeyCostScalesWithChurn is the gate on churn that adds
// services: every step grows the inventory's key set by the batch, spread
// across the key order, and the snapshot must still cost what the batch
// touched, in bytes as in allocations.
func TestSnapshotNewKeyCostScalesWithChurn(t *testing.T) {
	checkChurnScaling(t, "new-key snapshot", snapshotCost(t, scalingSmallEntries, true), snapshotCost(t, scalingLargeEntries, true))
}

// TestCheckpointDeltaCostScalesWithChurn is the same gate on a delta
// checkpoint export. Half the churn lands before a snapshot and half after,
// so the export finds its changes both ways: in the diff of the cursor's
// inventory against the chain's newest, and in its own freeze's seal.
func TestCheckpointDeltaCostScalesWithChurn(t *testing.T) {
	measure := func(entries int) [2]float64 {
		var cur core.CheckpointCursor
		allocs, bytes := churnCost(t, entries, false, func(sp *core.ShardedPassive) {
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
		return [2]float64{allocs, bytes}
	}
	checkChurnScaling(t, "delta export", measure(scalingSmallEntries), measure(scalingLargeEntries))
}
