package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"servdisc/internal/netaddr"
	"servdisc/internal/packet"
	"servdisc/internal/probe"
	"servdisc/internal/stats"
)

// deltaRecorder captures every OnSnapshot invocation.
type deltaRecorder struct {
	prevs  []*Inventory
	invs   []*Inventory
	deltas []SnapshotDelta
}

func (r *deltaRecorder) observe(prev, inv *Inventory, d SnapshotDelta) {
	r.prevs = append(r.prevs, prev)
	r.invs = append(r.invs, inv)
	r.deltas = append(r.deltas, d)
}

func keySet(keys []ServiceKey) map[ServiceKey]bool {
	out := make(map[ServiceKey]bool, len(keys))
	for _, k := range keys {
		out[k] = true
	}
	return out
}

// checkDelta verifies one observed transition: sorted disjoint sets, and
// prev's key set patched by the delta equals inv's key set.
func checkDelta(t *testing.T, prev, inv *Inventory, d SnapshotDelta, ctx string) {
	t.Helper()
	if d.Full {
		return
	}
	sorted := func(name string, ks []ServiceKey) {
		for i := 1; i < len(ks); i++ {
			if !ks[i-1].Before(ks[i]) {
				t.Fatalf("%s: %s not sorted/unique at %d", ctx, name, i)
			}
		}
	}
	sorted("Added", d.Added)
	sorted("Updated", d.Updated)
	sorted("Removed", d.Removed)
	add, upd, rem := keySet(d.Added), keySet(d.Updated), keySet(d.Removed)
	for k := range add {
		if upd[k] || rem[k] {
			t.Fatalf("%s: key %v in multiple delta sets", ctx, k)
		}
	}
	for k := range upd {
		if rem[k] {
			t.Fatalf("%s: key %v both updated and removed", ctx, k)
		}
	}
	want := map[ServiceKey]bool{}
	if prev != nil {
		for _, k := range prev.Keys() {
			want[k] = true
		}
	}
	for k := range add {
		want[k] = true
	}
	for k := range rem {
		delete(want, k)
	}
	got := keySet(inv.Keys())
	if len(got) != len(want) {
		t.Fatalf("%s: delta-patched key set has %d keys, inventory %d", ctx, len(want), len(got))
	}
	for k := range got {
		if !want[k] {
			t.Fatalf("%s: inventory key %v not produced by delta", ctx, k)
		}
	}
	for k := range upd {
		if !got[k] {
			t.Fatalf("%s: updated key %v not in inventory", ctx, k)
		}
		if prev != nil {
			if _, ok := prev.Provenance(k); !ok {
				t.Fatalf("%s: updated key %v was not in prev", ctx, k)
			}
		}
	}
}

// Passive engine: discovery, churn, expiry and rebirth all surface as
// correct deltas, at several shard counts.
func TestSnapshotDeltaObserverPassive(t *testing.T) {
	for _, shards := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			pfx := netaddr.MustParsePrefix("10.30.0.0/16")
			t0 := time.Date(2006, 9, 19, 10, 0, 0, 0, time.UTC)
			sp := NewShardedPassive(pfx, nil, shards)
			defer sp.Close()
			sp.SetRetention(RetentionPolicy{PassiveTTL: 20 * time.Minute})
			sp.Run(context.Background())
			rec := &deltaRecorder{}
			sp.OnSnapshot(rec.observe)

			bld := packet.NewBuilder(0)
			client := packet.Endpoint{Addr: netaddr.MustParseV4("64.9.0.1"), Port: 33000}
			rng := rand.New(rand.NewSource(int64(shards)))
			now := t0
			for round := 0; round < 20; round++ {
				var batch []packet.Packet
				for i, n := 0, 30+rng.Intn(60); i < n; i++ {
					idx := rng.Intn(200)
					ep := packet.Endpoint{Addr: pfx.Base() + netaddr.V4(1+idx/4), Port: uint16(2000 + idx%4)}
					batch = append(batch, *bld.SynAck(now, ep, client, 1, 1))
					now = now.Add(time.Second)
				}
				now = now.Add(4 * time.Minute)
				sp.HandleBatch(batch)
				sp.Flush()
				sp.Snapshot()
				// Cache hit: a repeated snapshot of the unchanged engine
				// must not re-notify.
				n := len(rec.deltas)
				sp.Snapshot()
				if len(rec.deltas) != n {
					t.Fatal("cached snapshot invoked the observer")
				}
			}
			var prev *Inventory
			deltaCount := 0
			for i := range rec.deltas {
				if rec.prevs[i] != prev && rec.deltas[i].Full == false {
					t.Fatalf("observation %d: prev pointer does not chain", i)
				}
				if rec.invs[i].Hybrid() {
					t.Fatalf("observation %d: an engine without an active side built a hybrid inventory", i)
				}
				checkDelta(t, rec.prevs[i], rec.invs[i], rec.deltas[i], fmt.Sprintf("obs %d", i))
				if !rec.deltas[i].Full {
					deltaCount++
					if len(rec.deltas[i].Updated) == 0 && len(rec.deltas[i].Added) == 0 && len(rec.deltas[i].Removed) == 0 {
						t.Errorf("obs %d: empty non-full delta for a changed snapshot", i)
					}
				}
				prev = rec.invs[i]
			}
			if deltaCount == 0 {
				t.Error("no delta-path observations")
			}
		})
	}
}

// Hybrid engine: a passive expiry of a probe-confirmed service must
// surface as Updated (downgrade to ActiveOnly), not Removed; only the first
// snapshot is Full.
func TestSnapshotDeltaObserverHybridDowngrade(t *testing.T) {
	pfx := netaddr.MustParsePrefix("10.40.0.0/16")
	t0 := time.Date(2006, 9, 19, 10, 0, 0, 0, time.UTC)
	h := NewHybrid(pfx, nil, 2, []uint16{80})
	defer h.Close()
	h.SetRetention(RetentionPolicy{PassiveTTL: 10 * time.Minute})
	rec := &deltaRecorder{}
	h.OnSnapshot(rec.observe)

	bld := packet.NewBuilder(0)
	client := packet.Endpoint{Addr: netaddr.MustParseV4("64.9.0.1"), Port: 33000}
	srv := pfx.Base() + 7
	other := pfx.Base() + 9
	svc := ServiceKey{Addr: srv, Proto: packet.ProtoTCP, Port: 80}

	// Passive evidence for two services; a probe confirms one of them.
	h.HandleBatch([]packet.Packet{
		*bld.SynAck(t0, packet.Endpoint{Addr: srv, Port: 80}, client, 1, 1),
		*bld.SynAck(t0.Add(time.Second), packet.Endpoint{Addr: other, Port: 80}, client, 1, 1),
	})
	h.AddReport(&probe.ScanReport{
		ID: 1, Started: t0.Add(time.Minute), Finished: t0.Add(2 * time.Minute),
		TCP: []probe.TCPResult{{Time: t0.Add(time.Minute), Addr: srv, Port: 80, State: probe.StateOpen}},
	})
	inv := h.Snapshot()
	if inv.Len() != 2 {
		t.Fatalf("inventory has %d services, want 2", inv.Len())
	}
	if len(rec.deltas) != 1 || !rec.deltas[0].Full {
		t.Fatal("the first snapshot should have produced one Full observation")
	}

	// Background population seen at t0+9m, so it outlives the expiry round
	// below and keeps the per-seal churn small relative to the inventory
	// (a seal touching most of the shard re-merges rather than patching —
	// that path is exercised by the Full assertions, not this one).
	var fill []packet.Packet
	for i := 0; i < 200; i++ {
		ep := packet.Endpoint{Addr: pfx.Base() + netaddr.V4(100+i), Port: 8080}
		fill = append(fill, *bld.SynAck(t0.Add(9*time.Minute), ep, client, 1, 1))
	}
	h.HandleBatch(fill)
	h.Flush()
	h.Snapshot()

	// Advance the observation clock past the original pair's deadline with
	// unrelated traffic: both records expire passively, but svc answered a
	// probe — it must downgrade, not leave.
	h.HandleBatch([]packet.Packet{
		*bld.SynAck(t0.Add(12*time.Minute), packet.Endpoint{Addr: pfx.Base() + 50, Port: 81}, client, 1, 1),
	})
	h.Flush()
	inv2 := h.Snapshot()
	d := rec.deltas[len(rec.deltas)-1]
	checkDelta(t, rec.prevs[len(rec.prevs)-1], inv2, d, "downgrade")
	if d.Full {
		t.Fatal("expiry round unexpectedly took the full path")
	}
	if got := keySet(d.Updated); !got[svc] {
		t.Fatalf("downgraded service not in Updated: %+v", d)
	}
	if got := keySet(d.Removed); !got[ServiceKey{Addr: other, Proto: packet.ProtoTCP, Port: 80}] {
		t.Fatalf("fully-expired service not in Removed: %+v", d)
	}
	if p, ok := inv2.Provenance(svc); !ok || p != ActiveOnly {
		t.Fatalf("downgraded service provenance = %v/%v, want ActiveOnly", p, ok)
	}
}

// TestSnapshotEntryPointsInterleaved drives Passive().Snapshot() and
// Snapshot() in random order on one running hybrid engine, with one observer
// registered through both OnSnapshot names, retention on, reports arriving
// mid-stream and every snapshot racing the producer. The two names are one
// entry point onto one chain, so: every inventory equals the
// pause-flush-snapshot reference at the point it froze; the observer is
// called exactly once per snapshot built, whichever name built it, and any
// delta it gets is against the inventory it was handed last; the only Full
// observation is the first, reports and active expiries included; every
// expiry is published once; and at a quiescent engine both names return the
// same *Inventory.
func TestSnapshotEntryPointsInterleaved(t *testing.T) {
	policy := RetentionPolicy{PassiveTTL: 3 * time.Hour, ActiveTTL: 5 * time.Hour}
	trace := genRetentionTrace(42)
	batches := splitBatches(trace, 16)

	// Three sweeps arrive mid-stream, stamped with the stream's clock on
	// arrival. Each probes addresses of its own (nothing is probed twice,
	// so active expiry does not depend on snapshot cadence): ten of the
	// trace's services, whose passive expiry then downgrades instead of
	// removing, and five addresses passive monitoring never sees.
	var reps []*probe.ScanReport
	reportAfter := make(map[int]*probe.ScanReport) // keyed by batches fed before it
	for i := 0; i < 3; i++ {
		after := len(batches) * (i + 1) / 4
		last := batches[after-1]
		at := last[len(last)-1].Timestamp
		rep := &probe.ScanReport{ID: i + 1, Started: at, Finished: at.Add(time.Minute)}
		for j := 10 * i; j < 10*i+10; j++ {
			rep.TCP = append(rep.TCP, probe.TCPResult{Time: at, State: probe.StateOpen,
				Addr: campusPfx.Base() + netaddr.V4(700+j), Port: []uint16{22, 80, 443}[j%3]})
		}
		for j := 5 * i; j < 5*i+5; j++ {
			rep.TCP = append(rep.TCP, probe.TCPResult{Time: at, State: probe.StateOpen,
				Addr: campusPfx.Base() + netaddr.V4(9000+j), Port: 80})
		}
		reps = append(reps, rep)
		reportAfter[after] = rep
	}

	// reference is the pause-flush-snapshot answer after n packets and r
	// reports: a fresh inline engine asked once, so it merges its shard whole
	// and never patches anything.
	reference := func(n, r int, sub **EventSub) *Hybrid {
		ref := NewHybrid(campusPfx, []uint16{53}, 1, nil)
		ref.SetRetention(policy)
		if sub != nil {
			*sub = ref.Subscribe(1 << 16)
		}
		ref.HandleBatch(trace[:n])
		for _, rep := range reps[:r] {
			ref.AddReport(rep)
		}
		return ref
	}
	sortExpiries := func(exp []expiryRec) []expiryRec {
		sort.Slice(exp, func(i, j int) bool { return exp[i].String() < exp[j].String() })
		return exp
	}
	var refSub *EventSub
	ref := reference(len(trace), len(reps), &refSub)
	ref.Snapshot()
	ref.Close()
	wantExp := sortExpiries(drainExpired(refSub))
	byProv := map[Provenance]int{}
	for _, e := range wantExp {
		byProv[e.prov]++
	}
	if byProv[PassiveOnly] == 0 || byProv[ActiveOnly] == 0 {
		t.Fatalf("reference run expired %v; want both passive and active expiries", byProv)
	}

	for _, shards := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			h := NewHybrid(campusPfx, []uint16{53}, shards, nil)
			h.SetRetention(policy)
			sub := h.Subscribe(1 << 16)
			var rec deltaRecorder
			h.Passive().OnSnapshot(rec.observe)
			h.OnSnapshot(rec.observe)
			h.Run(context.Background())

			// The producer feeds as many batches as it is told to and says so
			// after the first, so the snapshot the test goroutine takes next
			// has something new to freeze and races the rest.
			feed := make(chan int)
			started := make(chan struct{})
			var producer sync.WaitGroup
			producer.Add(1)
			go func() {
				defer producer.Done()
				fed := 0
				for k := range feed {
					for i := 0; i < k && fed < len(batches); i++ {
						h.HandleBatch(batches[fed])
						fed++
						if rep := reportAfter[fed]; rep != nil {
							h.AddReport(rep)
							h.inflight.Wait() // applied at a known point of the stream
						}
						if i == 0 {
							started <- struct{}{}
						}
					}
				}
			}()

			rng := stats.NewRNG(uint64(shards)).Derive("entry-points")
			checked := make(map[*Inventory]bool)
			snapshot := func(hybrid bool) *Inventory {
				t.Helper()
				seen := len(rec.invs)
				var inv *Inventory
				if hybrid {
					inv = h.Snapshot()
				} else {
					inv = h.Passive().Snapshot()
				}
				if checked[inv] {
					if len(rec.invs) != seen {
						t.Fatal("a cached snapshot called the observer")
					}
					return inv
				}
				checked[inv] = true
				if len(rec.invs) != seen+1 || rec.invs[seen] != inv {
					t.Fatalf("a built snapshot called the observer %d times", len(rec.invs)-seen)
				}
				want := reference(inv.Packets(), len(inv.Scans()), nil).Snapshot()
				if !bytes.Equal(inv.Dump(), want.Dump()) {
					t.Fatalf("hybrid=%v snapshot at %d packets, %d reports differs from the reference", hybrid, inv.Packets(), len(inv.Scans()))
				}
				return inv
			}
			// The name changes before one snapshot in three, so each gets runs
			// long enough to patch and is cut in on by the other.
			hybrid := false
			next := func() bool {
				if rng.Intn(3) == 0 {
					hybrid = !hybrid
				}
				return hybrid
			}
			for sent := 0; sent < len(batches); {
				k := 2 + rng.Intn(3)
				feed <- k
				<-started
				sent += k
				snapshot(next())
				if rng.Intn(3) == 0 {
					snapshot(next())
				}
			}
			close(feed)
			producer.Wait()
			if a, b := snapshot(false), snapshot(true); a != b {
				t.Fatal("at a quiescent engine the two names returned different inventories")
			}
			h.Close()

			// Tombstones of both kinds come out merged in (key, kind) order,
			// a key's passive one before its active one.
			var prevKey ServiceKey
			var prevProv Provenance
			n, both := 0, 0
			h.Snapshot().EachTombstone(func(k ServiceKey, _ time.Time, prov Provenance) bool {
				if prov != PassiveOnly && prov != ActiveOnly || n > 0 && (k.Before(prevKey) || k == prevKey && prov <= prevProv) {
					t.Fatalf("tombstone (%s, %s) follows (%s, %s)", k, prov, prevKey, prevProv)
				}
				if n > 0 && k == prevKey {
					both++
				}
				n, prevKey, prevProv = n+1, k, prov
				return true
			})
			if both == 0 {
				t.Error("no key holds tombstones of both kinds")
			}

			var last *Inventory
			deltas := 0
			for i, inv := range rec.invs {
				if !inv.Hybrid() {
					t.Fatalf("observation %d: a Hybrid's snapshot is not a hybrid inventory", i)
				}
				if full := last == nil; rec.deltas[i].Full != full {
					t.Fatalf("observation %d: Full=%v, want %v (the first and nothing else)", i, rec.deltas[i].Full, full)
				}
				if !rec.deltas[i].Full {
					deltas++
					if rec.prevs[i] != last {
						t.Fatalf("observation %d: delta is not against the inventory the observer was handed last", i)
					}
				}
				checkDelta(t, rec.prevs[i], inv, rec.deltas[i], fmt.Sprintf("obs %d", i))
				last = inv
			}
			if deltas == 0 {
				t.Errorf("observer saw no delta in %d observations", len(rec.invs))
			}
			assertSameExpiries(t, "expiries across both names", wantExp, sortExpiries(drainExpired(sub)))
		})
	}
}
