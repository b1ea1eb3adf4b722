package core

// The cross-technique event join, tested against whole engines: the join is
// the owning shard's records plus its live-probe-answer table (events.go),
// written by shard workers and each report's caller under one lock per
// shard. These are the properties that lock exists for, at shards 1/2/8,
// inline and running, with reports racing packets.

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"servdisc/internal/netaddr"
	"servdisc/internal/packet"
	"servdisc/internal/probe"
	"servdisc/internal/stats"
)

// joinOp is one step of a scripted campaign: a batch, a report or a
// snapshot.
type joinOp struct {
	batch []packet.Packet
	rep   *probe.ScanReport
	snap  bool
}

// genJoinOps interleaves the packets (in uneven batches), the reports (in
// the order given) and a snapshot every few steps, by the seed.
func genJoinOps(seed uint64, pkts []packet.Packet, reps []*probe.ScanReport) []joinOp {
	rng := stats.NewRNG(seed).Derive("join-ops")
	var ops []joinOp
	everyN := 1 + len(pkts)/200/(len(reps)+1) // batches between reports, roughly even
	for off, ri, n := 0, 0, 0; off < len(pkts) || ri < len(reps); n++ {
		switch {
		case ri < len(reps) && (off == len(pkts) || rng.Intn(everyN) == 0):
			ops = append(ops, joinOp{rep: reps[ri]})
			ri++
		case rng.Intn(12) == 0:
			ops = append(ops, joinOp{snap: true})
		default:
			sz := min(1+rng.Intn(400), len(pkts)-off)
			ops = append(ops, joinOp{batch: pkts[off : off+sz]})
			off += sz
		}
	}
	return ops
}

// applyJoinOps runs ops in order on the caller's goroutine.
func applyJoinOps(h *Hybrid, ops []joinOp) {
	for _, op := range ops {
		switch {
		case op.rep != nil:
			h.AddReport(op.rep)
		case op.snap:
			h.Snapshot()
		default:
			h.HandleBatch(op.batch)
		}
	}
}

// raceJoinOps runs the campaign against a running engine from three
// goroutines at once: one dispatches the batches, one applies the reports,
// one snapshots. A report or snapshot waits only until the batch goroutine
// has begun dispatching past its scripted position — the shard workers are
// still applying what was queued before it — so reports race packets for
// the same shards all the way through the trace, in an order the scheduler
// picks.
func raceJoinOps(h *Hybrid, ops []joinOp) {
	var dispatching atomic.Int64 // index of the batch op being dispatched
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i, op := range ops {
			if op.batch != nil {
				dispatching.Store(int64(i))
				h.HandleBatch(op.batch)
			}
		}
		dispatching.Store(int64(len(ops)))
	}()
	for _, reports := range []bool{true, false} {
		go func() {
			defer wg.Done()
			for i, op := range ops {
				if op.batch != nil || reports != (op.rep != nil) {
					continue
				}
				for dispatching.Load() < int64(i) {
					runtime.Gosched()
				}
				applyJoinOps(h, ops[i:i+1])
			}
		}()
	}
	wg.Wait()
}

// runJoinCampaign drives a fresh Hybrid through ops and returns the service
// events per key in publication order, the final inventory and the engine
// (closed).
func runJoinCampaign(t *testing.T, shards int, running bool, policy RetentionPolicy, ops []joinOp) (map[ServiceKey][]Event, *Inventory, *Hybrid) {
	t.Helper()
	h := NewHybrid(campusPfx, []uint16{53, 123, 137}, shards, []uint16{21, 22, 80, 443, 3306})
	h.SetRetention(policy)
	sub := h.Subscribe(1 << 17)
	if running {
		h.Run(context.Background())
		raceJoinOps(h, ops)
	} else {
		applyJoinOps(h, ops)
	}
	h.Flush()
	inv := h.Snapshot() // publishes every expiry still pending
	h.Close()
	if sub.Dropped() != 0 {
		t.Fatalf("%d events dropped despite the huge buffer", sub.Dropped())
	}
	perKey := make(map[ServiceKey][]Event)
	for _, ev := range drainEvents(sub) {
		switch ev.Kind {
		case EventServiceDiscovered, EventProvenanceUpgraded, EventServiceExpired:
			perKey[ev.Key] = append(perKey[ev.Key], ev)
		}
	}
	return perKey, inv, h
}

// joinModes names the engine shapes every join property runs at.
func joinModes(t *testing.T, f func(t *testing.T, shards int, running bool)) {
	for _, shards := range []int{1, 2, 8} {
		for _, running := range []bool{false, true} {
			mode := "inline"
			if running {
				mode = "running"
			}
			t.Run(fmt.Sprintf("shards=%d/%s", shards, mode), func(t *testing.T) { f(t, shards, running) })
		}
	}
}

// TestJoinOneDiscoveryOneUpgrade: with nothing expiring, every service's
// stream is exactly `discovered` or `discovered upgraded` — one discovery,
// never an upgrade ahead of it — the discovered set is the inventory's key
// set, and the upgrade's provenance is the frozen inventory's. Reports
// applied in sweep order always agree; applied in reverse they may differ
// only as Event's doc comment allows (an earlier open time arriving after
// the upgrade fired: the event said passive-first, the inventory says
// active-first).
func TestJoinOneDiscoveryOneUpgrade(t *testing.T) {
	pkts := genTrace(5, 12000)
	inOrder := genReports(6)
	reversed := slices.Clone(inOrder)
	slices.Reverse(reversed)
	joinModes(t, func(t *testing.T, shards int, running bool) {
		for _, c := range []struct {
			name     string
			reps     []*probe.ScanReport
			overtake bool // a later-applied report may carry an earlier open time
		}{{"sweep order", inOrder, false}, {"reverse sweep order", reversed, true}} {
			perKey, inv, h := runJoinCampaign(t, shards, running, RetentionPolicy{}, genJoinOps(uint64(shards), pkts, c.reps))
			if len(perKey) != inv.Len() || inv.Len() == 0 {
				t.Fatalf("%s: events name %d services, inventory holds %d", c.name, len(perKey), inv.Len())
			}
			upgrades, late := 0, 0
			for _, key := range inv.Keys() {
				evs := perKey[key]
				prov, _ := inv.Provenance(key)
				both := prov == PassiveFirst || prov == ActiveFirst
				if len(evs) == 0 || evs[0].Kind != EventServiceDiscovered || len(evs) > 2 ||
					(len(evs) == 2) != both || (both && evs[1].Kind != EventProvenanceUpgraded) {
					t.Fatalf("%s: %v (%v) stream is %v", c.name, key, prov, eventStrings(evs))
				}
				if !both {
					continue
				}
				upgrades++
				if got := evs[1].Provenance; got != prov {
					late++
					if !c.overtake || got != PassiveFirst || prov != ActiveFirst {
						t.Fatalf("%s: %v upgraded as %v, inventory says %v", c.name, key, got, prov)
					}
				}
				// The upgrade names both first times it compared: the
				// inventory's, bar an open time that overtook it.
				rec, _ := inv.Record(key)
				activeAt, _ := inv.ActiveFirstOpen(key)
				if up := evs[1]; !up.PassiveAt.Equal(rec.FirstSeen()) || up.ActiveAt.Before(activeAt) ||
					(!c.overtake && !up.ActiveAt.Equal(activeAt)) {
					t.Fatalf("%s: %v upgrade says passive %v active %v, inventory %v and %v",
						c.name, key, up.PassiveAt, up.ActiveAt, rec.FirstSeen(), activeAt)
				}
			}
			if upgrades == 0 {
				t.Fatalf("%s: degenerate campaign, no service found by both techniques", c.name)
			}
			t.Logf("%s: %d services, %d upgrades, %d overtaken by a later report", c.name, inv.Len(), upgrades, late)
			if got, want := joinEntries(h), len(h.active.Services()); got != want {
				t.Errorf("%s: join holds %d entries, %d keys have a live probe answer", c.name, got, want)
			}
		}
	})
}

// genRetentionReports sweeps genRetentionTrace's services every six hours:
// each sweep finds alternate services open (so with an active TTL under
// twelve hours probe answers lapse between a service's sweeps) plus a few
// addresses the trace never shows.
func genRetentionReports() []*probe.ScanReport {
	base := time.Date(2006, 9, 19, 10, 0, 0, 0, time.UTC)
	ports := []uint16{22, 80, 443}
	var out []*probe.ScanReport
	for i := 0; i < 6; i++ {
		start := base.Add(time.Duration(2+6*i) * time.Hour)
		rep := &probe.ScanReport{ID: i, Started: start, Finished: start.Add(10 * time.Minute)}
		for s := 0; s < 48+8; s++ {
			state := probe.StateClosed
			if (s+i)%2 == 0 {
				state = probe.StateOpen
			}
			rep.TCP = append(rep.TCP, probe.TCPResult{Time: start.Add(time.Duration(s) * time.Second),
				Addr: campusPfx.Base() + netaddr.V4(700+s), Port: ports[s%3], State: state})
		}
		out = append(out, rep)
	}
	return out
}

var joinRetention = RetentionPolicy{PassiveTTL: 3 * time.Hour, ActiveTTL: 7 * time.Hour}

// TestJoinUnderExpiryAnnouncesEveryArrival: with both TTLs on and snapshots
// racing ingest, evidence comes and goes many times per key. Whatever the
// interleaving, per key in publication order: the first event is a
// discovery and no upgrade precedes one; an expiry is never published ahead
// of the arrival it withdraws; and at the end every arrival of either
// technique's evidence was announced exactly once — discoveries plus
// upgrades equal expiries plus the halves still live in the inventory. A
// swallowed rediscovery or a double announcement breaks the count.
func TestJoinUnderExpiryAnnouncesEveryArrival(t *testing.T) {
	pkts := genRetentionTrace(42)
	reps := genRetentionReports()
	joinModes(t, func(t *testing.T, shards int, running bool) {
		perKey, inv, h := runJoinCampaign(t, shards, running, joinRetention, genJoinOps(uint64(shards), pkts, reps))
		rediscovered, expiries := 0, 0
		for key, evs := range perKey {
			var arrived, expired, discovered int
			for i, ev := range evs {
				switch ev.Kind {
				case EventServiceDiscovered:
					arrived++
					discovered++
				case EventProvenanceUpgraded:
					arrived++
					if discovered == 0 {
						t.Fatalf("%v: upgrade before any discovery: %v", key, eventStrings(evs[:i+1]))
					}
				case EventServiceExpired:
					if expired++; expired > arrived {
						t.Fatalf("%v: expiry ahead of its arrival: %v", key, eventStrings(evs[:i+1]))
					}
				}
			}
			live := 0
			if _, ok := inv.Record(key); ok {
				live++
			}
			if _, ok := inv.ActiveFirstOpen(key); ok {
				live++
			}
			if arrived != expired+live {
				t.Fatalf("%v: %d arrivals announced, %d expired + %d live: %v", key, arrived, expired, live, eventStrings(evs))
			}
			if discovered > 1 {
				rediscovered++
			}
			expiries += expired
		}
		if rediscovered == 0 || expiries == 0 {
			t.Fatalf("degenerate campaign: %d keys rediscovered, %d expiries", rediscovered, expiries)
		}
		for _, key := range inv.Keys() {
			if len(perKey[key]) == 0 {
				t.Fatalf("%v is in the inventory and in no event", key)
			}
		}
		if got, want := joinEntries(h), len(h.active.Services()); got != want {
			t.Errorf("join holds %d entries, %d keys have a live probe answer", got, want)
		}
	})
}

// TestJoinRestoreReannouncesNothing: kill the engine mid-campaign, restore
// its checkpoint into a fresh one with a different shard count, finish the
// campaign. The two incarnations' streams together are the uninterrupted
// run's, event for event — nothing the first announced is announced again,
// nothing is lost — with and without retention.
func TestJoinRestoreReannouncesNothing(t *testing.T) {
	for _, c := range []struct {
		name   string
		policy RetentionPolicy
		pkts   []packet.Packet
		reps   []*probe.ScanReport
	}{
		{"no retention", RetentionPolicy{}, genTrace(5, 12000), genReports(6)},
		{"retention", joinRetention, genRetentionTrace(42), genRetentionReports()},
	} {
		t.Run(c.name, func(t *testing.T) {
			ops := genJoinOps(3, c.pkts, c.reps)
			cut := len(ops) * 45 / 100
			// Both runs snapshot at the cut: active expiry is decided at
			// snapshots, so the cadence is part of the campaign.
			lines := func(subs ...*EventSub) []string {
				var out []string
				for _, sub := range subs {
					out = append(out, eventStrings(drainEvents(sub))...)
				}
				sort.Strings(out)
				return out
			}
			engine := func(shards int) (*Hybrid, *EventSub) {
				h := NewHybrid(campusPfx, []uint16{53, 123, 137}, shards, []uint16{21, 22, 80, 443, 3306})
				h.SetRetention(c.policy)
				return h, h.Subscribe(1 << 17)
			}

			ref, refSub := engine(2)
			applyJoinOps(ref, ops[:cut])
			ref.Snapshot()
			applyJoinOps(ref, ops[cut:])
			want := ref.Snapshot().Dump()
			ref.Close()

			a, subA := engine(2)
			applyJoinOps(a, ops[:cut])
			a.Snapshot()
			chunk, _ := a.ExportDelta(nil)
			a.Close()
			b, subB := engine(8)
			if err := b.ImportDelta(chunk); err != nil {
				t.Fatal(err)
			}
			applyJoinOps(b, ops[cut:])
			got := b.Snapshot().Dump()
			b.Close()

			if string(got) != string(want) {
				t.Error("restored run's final dump differs from the uninterrupted run's")
			}
			wantEv, gotEv := lines(refSub), lines(subA, subB)
			if len(wantEv) == 0 {
				t.Fatal("campaign produced no events")
			}
			if !slices.Equal(wantEv, gotEv) {
				t.Fatalf("uninterrupted run published %d events, the two incarnations %d;\nfirst difference: %s",
					len(wantEv), len(gotEv), firstDiff(wantEv, gotEv))
			}
		})
	}
}

// firstDiff names the first position two sorted line lists part ways.
func firstDiff(want, got []string) string {
	for i := 0; i < len(want) || i < len(got); i++ {
		var w, g string
		if i < len(want) {
			w = want[i]
		}
		if i < len(got) {
			g = got[i]
		}
		if w != g {
			return fmt.Sprintf("[%d] want %q, got %q", i, w, g)
		}
	}
	return "none"
}

// TestRediscoveryBetweenFreezeAndExpiryPublication: a record the freeze
// expired is gone from its shard at once, but its expiry notice is
// published later, by advance. A packet applied in that window re-creates
// the record, and must be announced — with the join's passive half kept in
// a table cleared only at publication, the rediscovery found the stale
// entry and stayed silent, leaving a service that is in every later
// inventory and in no event. advance freezes its active side exactly in the
// window, and its beforeFreezeActive seam is where this test re-observes the
// service.
func TestRediscoveryBetweenFreezeAndExpiryPublication(t *testing.T) {
	key := ServiceKey{Addr: srv, Proto: packet.ProtoTCP, Port: 80}
	s := NewHybrid(campusPfx, nil, 1, nil)
	s.SetRetention(RetentionPolicy{PassiveTTL: time.Hour})
	sub := s.SubscribeFiltered(16, func(ev Event) bool { return ev.Key == key })
	s.Run(context.Background())

	s.HandleBatch([]packet.Packet{*synAck(t0, srv, 80, cli)})
	s.Snapshot()
	s.HandleBatch([]packet.Packet{*synAck(t0.Add(2*time.Hour), srv2, 80, cli)}) // watermark past key's deadline
	s.beforeFreezeActive = func() {
		s.HandleBatch([]packet.Packet{*synAck(t0.Add(3*time.Hour), srv, 80, cli2)})
		s.Flush()
	}
	s.Snapshot()
	s.beforeFreezeActive = nil
	inv := s.Snapshot()
	s.Close()

	var got []string
	for _, ev := range drainEvents(sub) {
		got = append(got, fmt.Sprintf("%s@%s", ev.Kind, ev.Time.Sub(t0)))
	}
	want := []string{"service-discovered@0s", "service-discovered@3h0m0s", "service-expired@1h0m0s"}
	if !slices.Equal(got, want) {
		t.Errorf("events for the service:\n got %q\nwant %q", got, want)
	}
	if rec, ok := inv.Record(key); !ok || !rec.FirstSeen().Equal(t0.Add(3*time.Hour)) {
		t.Errorf("inventory record = %v/%v, want the incarnation first seen at +3h", rec, ok)
	}
}
