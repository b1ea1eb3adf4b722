package core

// Inventory.EachService is the one O(inventory) read every whole-inventory
// consumer shares (index rebuild, bootstrap frame, dump), so it has one
// contract: the visited sequence is exactly [Service(k) for k in Keys()].

import (
	"fmt"
	"slices"
	"sort"
	"testing"
	"time"

	"servdisc/internal/netaddr"
	"servdisc/internal/packet"
	"servdisc/internal/stats"
)

// eachServiceTally is what checkEachService saw in one inventory: services
// per class, and the ActiveOnly ones that carry a passive tombstone — a key
// whose record expired and which only a probe answer keeps listed.
type eachServiceTally struct {
	classes   [4]int
	keptAlive int
}

func (a *eachServiceTally) add(b eachServiceTally) {
	for i, n := range b.classes {
		a.classes[i] += n
	}
	a.keptAlive += b.keptAlive
}

// checkEachService asserts the walk's contract on one inventory, resumed
// mid-inventory too, that ProvenanceCounts agrees with it, and that an early
// false stops the walk.
func checkEachService(t *testing.T, label string, inv *Inventory) (tally eachServiceTally) {
	t.Helper()
	expired := make(map[ServiceKey]bool)
	inv.EachTombstone(func(k ServiceKey, _ time.Time, prov Provenance) bool {
		if prov == PassiveOnly {
			expired[k] = true
		}
		return true
	})
	keys := inv.Keys()
	i := 0
	inv.EachService(func(key ServiceKey, rec *PassiveRecord, prov Provenance, first, activeAt time.Time) bool {
		if i == len(keys) {
			t.Fatalf("%s: the walk went past the %d keys, to %s", label, len(keys), key)
		}
		if i > 0 && !keys[i-1].Before(keys[i]) {
			t.Fatalf("%s: Keys[%d] = %s does not sort after %s", label, i, keys[i], keys[i-1])
		}
		wRec, wProv, wFirst, wActiveAt, ok := inv.Service(keys[i])
		if !ok || key != keys[i] || rec != wRec || prov != wProv || first != wFirst || activeAt != wActiveAt {
			t.Fatalf("%s: visit %d = (%s, %p, %s, %s, %s), want Service(%s) = (%p, %s, %s, %s, %v)", label, i,
				key, rec, prov, first, activeAt, keys[i], wRec, wProv, wFirst, wActiveAt, ok)
		}
		tally.classes[prov]++
		if prov == ActiveOnly && expired[key] {
			tally.keptAlive++
		}
		i++
		return true
	})
	if i != len(keys) {
		t.Fatalf("%s: the walk visited %d services, Keys lists %d", label, i, len(keys))
	}
	if got := inv.ProvenanceCounts(); got != tally.classes {
		t.Fatalf("%s: ProvenanceCounts = %v, the walk saw %v", label, got, tally.classes)
	}
	if len(keys) > 0 {
		visits := 0
		inv.EachService(func(ServiceKey, *PassiveRecord, Provenance, time.Time, time.Time) bool {
			visits++
			return visits <= len(keys)/2
		})
		if visits != len(keys)/2+1 {
			t.Fatalf("%s: a false on visit %d stopped the walk after %d", label, len(keys)/2+1, visits)
		}
		j := len(keys) / 2
		inv.EachServiceAfter(&keys[j], func(key ServiceKey, _ *PassiveRecord, prov Provenance, _, activeAt time.Time) bool {
			j++
			if _, wProv, _, wActiveAt, _ := inv.Service(key); key != keys[j] || prov != wProv || activeAt != wActiveAt {
				t.Fatalf("%s: resumed visit of Keys[%d] = %s is (%s, %s, %s), want Service's (%s, %s)", label, j, keys[j], key, prov, activeAt, wProv, wActiveAt)
			}
			return true
		})
		if j != len(keys)-1 {
			t.Fatalf("%s: the walk resumed mid-inventory stopped at Keys[%d] of %d", label, j, len(keys))
		}
	}
	return tally
}

// TestEachServiceMatchesService drives the walk over every inventory shape
// the engine builds — the first (bulk-built) one, delta-patched ones, ones
// patched by a report, one restored from a checkpoint at another shard
// count — with retention on, so keys expire, come back, and outlive their
// record on a probe answer.
func TestEachServiceMatchesService(t *testing.T) {
	pkts := genRetentionTrace(42)
	for _, shards := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("passive/shards=%d", shards), func(t *testing.T) {
			s := NewShardedPassive(campusPfx, []uint16{53}, shards)
			s.SetRetention(RetentionPolicy{PassiveTTL: 3 * time.Hour})
			rng := stats.NewRNG(11).Derive("retention-batches")
			const cuts = 6
			for c := 0; c < cuts; c++ {
				feedBatches(s, pkts[len(pkts)*c/cuts:len(pkts)*(c+1)/cuts], rng)
				tally := checkEachService(t, fmt.Sprintf("cut %d", c), s.Snapshot())
				if tally.classes[PassiveOnly] == 0 {
					t.Fatalf("cut %d: empty inventory", c)
				}
			}
			s.Close()
		})

		t.Run(fmt.Sprintf("hybrid/shards=%d", shards), func(t *testing.T) {
			reps := genRetentionReports()
			engine := func(shards int) *Hybrid {
				h := NewHybrid(campusPfx, []uint16{53, 123, 137}, shards, []uint16{21, 22, 80, 443, 3306})
				h.SetRetention(joinRetention)
				return h
			}
			// Small batches, each sweep's report once the trace's clock has
			// passed it, a snapshot after every batch.
			var seen eachServiceTally
			ri := 0
			run := func(h *Hybrid, pkts []packet.Packet, label string) {
				const batch = 40
				for off := 0; off < len(pkts); off += batch {
					for ; ri < len(reps) && reps[ri].Finished.Before(pkts[off].Timestamp); ri++ {
						h.AddReport(reps[ri])
					}
					h.HandleBatch(pkts[off:min(off+batch, len(pkts))])
					seen.add(checkEachService(t, fmt.Sprintf("%s, packet %d", label, off), h.Snapshot()))
				}
			}
			cut := len(pkts) * 45 / 100
			a := engine(shards)
			run(a, pkts[:cut], "first incarnation")
			chunk, _ := a.ExportDelta(nil)
			a.Close()
			b := engine(10 - shards) // restored at another shard count: 9, 8, 2
			if err := b.ImportDelta(chunk); err != nil {
				t.Fatal(err)
			}
			seen.add(checkEachService(t, "restored", b.Snapshot()))
			run(b, pkts[cut:], "second incarnation")
			b.Close()
			for p, n := range seen.classes {
				if n == 0 {
					t.Errorf("the campaign never listed a %s service", Provenance(p))
				}
			}
			if seen.keptAlive == 0 {
				t.Error("the campaign never listed an expired key kept alive by a probe answer")
			}
		})
	}
}

// TestKeyOrderIsFieldOrder pins the packed form every key sort compares to
// the (addr, proto, port) field order it stands for, over keys that differ in
// every byte — a campus trace only ever varies the low ones — for Compare,
// SortKeys and the radix sort behind a tree's bulk build.
func TestKeyOrderIsFieldOrder(t *testing.T) {
	rng := stats.NewRNG(5).Derive("key-order")
	fieldLess := func(a, b ServiceKey) bool {
		if a.Addr != b.Addr {
			return a.Addr < b.Addr
		}
		if a.Proto != b.Proto {
			return a.Proto < b.Proto
		}
		return a.Port < b.Port
	}
	for _, n := range []int{0, 1, 2, 300, 5000} {
		keys := make([]ServiceKey, n)
		ents := make([]svcEntry, n)
		for i := range keys {
			keys[i] = ServiceKey{Addr: netaddr.V4(rng.Intn(1 << 32)), Proto: packet.IPProtocol(rng.Intn(256)), Port: uint16(rng.Intn(1 << 16))}
			if i%3 == 0 && i > 0 { // near-duplicates: same address, often same protocol
				keys[i].Addr, keys[i].Proto = keys[i-1].Addr, keys[i-1].Proto+packet.IPProtocol(i%2)
			}
			ents[i].Key = keys[i]
		}
		want := slices.Clone(keys)
		sort.SliceStable(want, func(i, j int) bool { return fieldLess(want[i], want[j]) })
		SortKeys(keys)
		ents = sortEntries(ents)
		for i := range want {
			if keys[i] != want[i] || ents[i].Key != want[i] {
				t.Fatalf("n=%d: position %d: SortKeys %s, sortEntries %s, field order %s", n, i, keys[i], ents[i].Key, want[i])
			}
			if i > 0 && want[i-1].Compare(want[i]) > 0 || want[i].Compare(want[i]) != 0 {
				t.Fatalf("n=%d: Compare disagrees with field order at %d", n, i)
			}
		}
	}
}
