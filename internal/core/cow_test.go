package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"servdisc/internal/netaddr"
	"servdisc/internal/obs"
	"servdisc/internal/probe"
	"servdisc/internal/stats"
)

// These tests pin the copy-on-write sharing invariant behind live
// snapshots: a frozen Inventory aliases record structures, activity-trail
// arrays and scanner caches with the live engine, and the dirty-set seal
// machinery must guarantee that no later ingestion is ever visible
// through an already-returned view. Run with -race (CI does): the tests
// are written so any broken sharing is a concurrent read/write on the
// aliased memory, not just a value mismatch.

// TestSnapshotAliasingUnderChurn is the canonical guard: freeze, keep the
// old Inventory, ingest 10k more packets, and verify the old view is
// bit-for-bit unchanged.
func TestSnapshotAliasingUnderChurn(t *testing.T) {
	campus := netaddr.MustParsePrefix("128.125.0.0/16")
	udpPorts := []uint16{53, 123, 137}
	pkts := genTrace(21, 20000)
	half := len(pkts) / 2

	for _, shards := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			sp := NewShardedPassive(campus, udpPorts, shards)
			sp.Run(context.Background())
			for _, b := range splitBatches(pkts[:half], 256) {
				sp.HandleBatch(b)
			}
			sp.Flush()
			old := sp.Snapshot()
			want := append([]byte(nil), old.Dump()...)

			for _, b := range splitBatches(pkts[half:], 256) {
				sp.HandleBatch(b)
			}
			sp.Close()
			if got := sp.Snapshot().Dump(); bytes.Equal(got, want) {
				t.Fatal("post-freeze ingest did not change the new snapshot; churn test is vacuous")
			}
			if got := old.Dump(); !bytes.Equal(got, want) {
				t.Fatal("old inventory changed under later ingest: COW sharing leaked")
			}
		})
	}
}

// TestSnapshotCOWHammer interleaves many small ingest bursts with
// snapshots, retaining every inventory, and re-verifies all of them after
// every round — mutate-after-freeze at every epoch, plus the
// freeze-twice-no-churn identity, against the sequential reference.
func TestSnapshotCOWHammer(t *testing.T) {
	campus := netaddr.MustParsePrefix("128.125.0.0/16")
	udpPorts := []uint16{53, 123, 137}
	pkts := genTrace(22, 12000)
	batches := splitBatches(pkts, 128)

	for _, shards := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			sp := NewShardedPassive(campus, udpPorts, shards)
			sp.Run(context.Background())

			type frozen struct {
				inv  *Inventory
				dump []byte
			}
			var kept []frozen
			rng := stats.NewRNG(7).Derive("cow-hammer")
			fed := 0
			for fed < len(batches) {
				burst := 1 + rng.Intn(8)
				for i := 0; i < burst && fed < len(batches); i++ {
					sp.HandleBatch(batches[fed])
					fed++
				}
				sp.Flush()
				inv := sp.Snapshot()
				if again := sp.Snapshot(); again != inv {
					t.Fatal("freeze-twice with no churn rebuilt the inventory")
				}
				want := refPassiveDump(campus, udpPorts, pkts[:min(fed*128, len(pkts))])
				if got := inv.Dump(); !bytes.Equal(got, want) {
					t.Fatalf("snapshot after %d batches differs from sequential reference", fed)
				}
				kept = append(kept, frozen{inv, want})
				for i, f := range kept {
					if got := f.inv.Dump(); !bytes.Equal(got, f.dump) {
						t.Fatalf("inventory frozen at epoch %d mutated after later ingest (round %d)", i, len(kept))
					}
				}
			}
			sp.Close()
		})
	}
}

// TestHybridSnapshotAliasing extends the guard to the hybrid engine:
// interleaved passive batches and scan reports, every inventory retained
// and re-verified as both sides keep moving — this hammers the patched
// provenance/key tables and the active side's shared outcome histories.
func TestHybridSnapshotAliasing(t *testing.T) {
	campusPfx := netaddr.MustParsePrefix("128.125.0.0/16")
	udpPorts := []uint16{53, 123, 137}
	tcpPorts := []uint16{21, 22, 80, 443, 3306}
	pkts := genTrace(23, 12000)
	reps := genReports(6)
	batches := splitBatches(pkts, 128)

	for _, shards := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			h := NewHybrid(campusPfx, udpPorts, shards, tcpPorts)
			h.Run(context.Background())

			type frozen struct {
				inv  *Inventory
				dump []byte
			}
			var kept []frozen
			rng := stats.NewRNG(8).Derive("cow-hybrid")
			nb, nr := 0, 0
			for nb < len(batches) || nr < len(reps) {
				if nr < len(reps) && (nb == len(batches) || rng.Intn(len(batches)/len(reps)) == 0) {
					h.AddReport(reps[nr])
					nr++
				} else {
					h.HandleBatch(batches[nb])
					nb++
				}
				if (nb+nr)%40 == 3 {
					h.Flush()
					inv := h.Snapshot()
					kept = append(kept, frozen{inv, append([]byte(nil), inv.Dump()...)})
					for i, f := range kept {
						if got := f.inv.Dump(); !bytes.Equal(got, f.dump) {
							t.Fatalf("hybrid inventory frozen at epoch %d mutated after later ingest", i)
						}
					}
				}
			}
			h.Close()
			// Final state must still match the sequential reference, proving
			// the patched inventories converged right.
			want := seqHybridDump(campusPfx, udpPorts, tcpPorts, batches, reps)
			if got := h.Snapshot().Dump(); !bytes.Equal(got, want) {
				t.Fatal("final hybrid snapshot differs from sequential reference")
			}
			for i, f := range kept {
				if got := f.inv.Dump(); !bytes.Equal(got, f.dump) {
					t.Fatalf("hybrid inventory %d mutated after Close", i)
				}
			}
		})
	}
}

// invReads is everything TestInventoryConstructorsFreeze reads off an
// inventory, copied out.
type invReads struct {
	dump  []byte
	n     int
	keys  []ServiceKey
	recs  []PassiveRecord
	first map[netaddr.V4]time.Time
	scans []ScanMeta
}

func readInventory(inv *Inventory) invReads {
	r := invReads{
		dump:  inv.Dump(),
		n:     inv.Len(),
		keys:  append([]ServiceKey(nil), inv.Keys()...),
		first: inv.AddrFirstSeen(nil),
		scans: append([]ScanMeta(nil), inv.Scans()...),
	}
	for _, k := range r.keys {
		if rec, ok := inv.Record(k); ok {
			r.recs = append(r.recs, *rec)
		}
	}
	return r
}

// TestInventoryConstructorsFreeze: NewInventory and NewHybridInventory
// return snapshots — more traffic into the passive discoverer, or a report
// into the active one, leaves every read of an inventory built earlier as
// it was.
func TestInventoryConstructorsFreeze(t *testing.T) {
	pkts := genTrace(3, 20000)
	half := len(pkts) / 2
	d := NewPassiveDiscoverer(campusPfx, []uint16{53, 123, 137})
	a := NewActiveDiscoverer(nil)
	d.HandleBatch(pkts[:half])
	passive := NewInventory(d)
	wantPassive := readInventory(passive)
	d.HandleBatch(pkts[half:])
	hybrid := NewHybridInventory(d, a)
	wantHybrid := readInventory(hybrid)
	key := hybrid.Keys()[0]
	at := t0.Add(-time.Hour) // before any passive evidence: the key turns active-first
	a.AddReport(&probe.ScanReport{ID: 1, Started: at, Finished: at.Add(time.Minute),
		TCP: []probe.TCPResult{{Time: at, Addr: key.Addr, Port: key.Port, State: probe.StateOpen}}})

	if bytes.Equal(NewInventory(d).Dump(), wantPassive.dump) || bytes.Equal(NewHybridInventory(d, a).Dump(), wantHybrid.dump) {
		t.Fatal("the later input changed nothing: the test is vacuous")
	}
	if got := readInventory(passive); !reflect.DeepEqual(got, wantPassive) {
		t.Errorf("NewInventory: inventory moved under later ingest (dump %d -> %d bytes)", len(wantPassive.dump), len(got.dump))
	}
	if got := readInventory(hybrid); !reflect.DeepEqual(got, wantHybrid) {
		t.Errorf("NewHybridInventory: inventory moved under a later report (dump %d -> %d bytes)", len(wantHybrid.dump), len(got.dump))
	}
}

// testEngineMetrics builds a live telemetry bundle so the alloc-gated
// tests exercise the instrumented hot path — zero allocations must hold
// with the histograms and flight recorder attached, exactly as the
// facade wires them in production.
func testEngineMetrics() *EngineMetrics {
	reg := obs.NewRegistry()
	return &EngineMetrics{
		Dispatch: reg.Histogram("test_dispatch_seconds", "test instrumentation"),
		Apply:    reg.Histogram("test_apply_seconds", "test instrumentation"),
		Snapshot: reg.Histogram("test_snapshot_seconds", "test instrumentation"),
		Flight:   reg.Flight(),
	}
}

// TestSnapshotZeroChurnAllocs pins the fast path: snapshotting an
// unchanged engine must not allocate (and must return the identical
// Inventory) — the property the CI bench gate watches at the benchmark
// level.
func TestSnapshotZeroChurnAllocs(t *testing.T) {
	campus := netaddr.MustParsePrefix("128.125.0.0/16")
	sp := NewShardedPassive(campus, []uint16{53}, 8)
	sp.SetMetrics(testEngineMetrics())
	sp.HandleBatch(genTrace(24, 5000))
	inv := sp.Snapshot()

	allocs := testing.AllocsPerRun(200, func() {
		if sp.Snapshot() != inv {
			t.Fatal("zero-churn snapshot rebuilt the inventory")
		}
	})
	if allocs != 0 {
		t.Errorf("zero-churn Snapshot allocates %.1f objects per call, want 0", allocs)
	}
}

// TestIngestShardedAllocs bounds the steady-state ingest path's
// allocations per packet so regressions (per-record garbage, lost buffer
// reuse) surface as a test failure, not just a bench delta.
func TestIngestShardedAllocs(t *testing.T) {
	campus := netaddr.MustParsePrefix("128.125.0.0/16")
	pkts := genTrace(25, 20000)
	sp := NewShardedPassive(campus, []uint16{53, 123, 137}, 4)
	sp.SetMetrics(testEngineMetrics())
	// Warm up: populate the service records, trails and tracker windows so
	// the measured runs see steady state, not first-touch growth.
	sp.HandleBatch(pkts)

	batches := splitBatches(pkts, 256)
	i := 0
	allocs := testing.AllocsPerRun(40, func() {
		sp.HandleBatch(batches[i%len(batches)])
		i++
	})
	perPacket := allocs / 256
	if perPacket > 0.5 {
		t.Errorf("sharded ingest allocates %.2f objects per packet in steady state, want <= 0.5", perPacket)
	}
}

// TestIngestShardedAllocsFirstTouch is the gate above with a snapshot before
// every measured batch, so each batch is the first touch of its keys since a
// seal: every record it re-observes is cloned, and every key it touches is
// looked up below the shard's write layer. Only the ingest is measured. The
// budget is the reading of the engine whose shards kept a map of every
// service and a dirty set beside it, reused across seals (0.2786 allocations
// per packet): a write layer started afresh at each seal must not cost more.
func TestIngestShardedAllocsFirstTouch(t *testing.T) {
	const (
		runs   = 40
		budget = 0.2786
	)
	campus := netaddr.MustParsePrefix("128.125.0.0/16")
	pkts := genTrace(25, 20000)
	sp := NewShardedPassive(campus, []uint16{53, 123, 137}, 4)
	sp.SetMetrics(testEngineMetrics())
	sp.HandleBatch(pkts)

	batches := splitBatches(pkts, 256)
	var m0, m1 runtime.MemStats
	var mallocs uint64
	for i := 0; i < runs; i++ {
		sp.Snapshot()
		runtime.ReadMemStats(&m0)
		sp.HandleBatch(batches[i%len(batches)])
		runtime.ReadMemStats(&m1)
		mallocs += m1.Mallocs - m0.Mallocs
	}
	perPacket := float64(mallocs) / (runs * 256)
	t.Logf("first-touch ingest: %.4f allocations per packet (budget %.4f)", perPacket, budget)
	if perPacket > budget {
		t.Errorf("sharded ingest after a snapshot allocates %.4f objects per packet, budget %.4f", perPacket, budget)
	}
}

// TestAccessorsReturnCopies pins the contract that nothing handed out by
// FirstPeers or a checkpoint export aliases engine state: the peer history
// and activity trails are append-only arrays that sealed snapshot views
// and copy-on-write clones share, so one element write through a returned
// slice would silently rewrite every snapshot that shares it. The test
// scribbles over everything it can reach and checks that an earlier
// snapshot, the live engine and a re-export all read as before.
func TestAccessorsReturnCopies(t *testing.T) {
	campus := netaddr.MustParsePrefix("128.125.0.0/16")
	sp := NewShardedPassive(campus, []uint16{53, 123, 137}, 2)
	sp.HandleBatch(genTrace(23, 20000))

	// fingerprint renders everything an inventory exposes of the aliased
	// arrays: the dump, each service's peer history, each address's trail.
	fingerprint := func(inv *Inventory) string {
		var b bytes.Buffer
		b.Write(inv.Dump())
		for _, k := range inv.Keys() {
			rec, _ := inv.Record(k)
			last, _ := inv.LastActivity(k.Addr)
			fmt.Fprintln(&b, k, rec.FirstPeers(), last)
		}
		return b.String()
	}
	export := func() (*EngineDelta, string) {
		ed, _ := sp.ExportDelta(nil)
		raw, err := json.Marshal(ed)
		if err != nil {
			t.Fatal(err)
		}
		return ed, string(raw)
	}

	old := sp.Snapshot()
	wantInv := fingerprint(old)
	ed, wantExport := export()

	scribbled := 0
	for _, k := range old.Keys() {
		rec, _ := old.Record(k)
		live, _ := sp.Snapshot().Record(k)
		for _, peers := range [][]PeerContact{rec.FirstPeers(), live.FirstPeers()} {
			for i := range peers {
				peers[i] = PeerContact{}
				scribbled++
			}
		}
	}
	for i := range ed.Services {
		for j := range ed.Services[i].FirstPeers {
			ed.Services[i].FirstPeers[j] = PeerContact{}
			scribbled++
		}
	}
	for i := range ed.Trails {
		for j := range ed.Trails[i].Times {
			ed.Trails[i].Times[j] = time.Time{}
			scribbled++
		}
	}
	if scribbled < 1000 {
		t.Fatalf("only %d elements to scribble over; the test is vacuous", scribbled)
	}

	if got := fingerprint(old); got != wantInv {
		t.Error("writing through FirstPeers() or an export changed an earlier snapshot")
	}
	if got := fingerprint(sp.Snapshot()); got != wantInv {
		t.Error("writing through FirstPeers() or an export changed the live engine's next snapshot")
	}
	if _, got := export(); got != wantExport {
		t.Error("writing through FirstPeers() or an export changed the re-export")
	}
	sp.Close()
}
