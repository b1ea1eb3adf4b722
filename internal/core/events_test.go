package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"servdisc/internal/netaddr"
	"servdisc/internal/packet"
	"servdisc/internal/probe"
	"servdisc/internal/stats"
)

// drainEvents collects everything buffered in a subscription after the
// engine has closed (the channel is closed, so the loop terminates).
func drainEvents(sub *EventSub) []Event {
	var out []Event
	for ev := range sub.Events() {
		out = append(out, ev)
	}
	return out
}

// eventStrings renders events one per line for comparison.
func eventStrings(events []Event) []string {
	out := make([]string, len(events))
	for i, ev := range events {
		out[i] = ev.String()
	}
	return out
}

// TestSlowSubscriberDropsNotStalls is the backpressure satellite: a
// subscriber that never drains its one-slot buffer loses events (counted)
// while ingest runs to completion unimpeded.
func TestSlowSubscriberDropsNotStalls(t *testing.T) {
	campus := netaddr.MustParsePrefix("128.125.0.0/16")
	pkts := genTrace(6, 20000)

	sp := NewShardedPassive(campus, []uint16{53}, 4)
	slow := sp.Subscribe(1) // never drained until the end
	sp.Run(context.Background())
	feedBatches(sp, pkts, stats.NewRNG(2).Derive("batching"))
	sp.Close()

	if slow.Dropped() == 0 {
		t.Fatal("one-slot subscriber dropped nothing on a multi-hundred-event campaign")
	}
	if got := len(drainEvents(slow)); got != 1 {
		t.Fatalf("slow subscriber buffered %d events, want 1", got)
	}
	if c := sp.EventCounters(); c.Dropped() != slow.Dropped() {
		t.Errorf("hub counted %d drops, subscriber %d", c.Dropped(), slow.Dropped())
	}
	// Ingest was unaffected: the snapshot covers the full stream.
	if got := sp.Snapshot().Packets(); got != len(pkts) {
		t.Errorf("ingest stalled: %d of %d packets", got, len(pkts))
	}
}

// TestScannerDetectedEvents checks online scan detection against the
// offline detector: one event per above-threshold source, none for the
// below-threshold one, fired at crossing time.
func TestScannerDetectedEvents(t *testing.T) {
	campus := netaddr.MustParsePrefix("128.125.0.0/16")
	pkts := genTrace(1, 20000)

	sp := NewShardedPassive(campus, []uint16{53}, 2)
	sub := sp.Subscribe(1 << 16)
	sp.HandleBatch(pkts)
	inv := sp.Snapshot()
	sp.Close()

	want := make(map[netaddr.V4]bool)
	for _, s := range inv.Scanners() {
		want[s.Source] = true
	}
	if len(want) == 0 {
		t.Fatal("degenerate trace: no scanners detected")
	}
	got := make(map[netaddr.V4]int)
	for _, ev := range drainEvents(sub) {
		if ev.Kind != EventScannerDetected {
			continue
		}
		got[ev.Scanner.Source]++
		if ev.Scanner.UniqueDsts < ScanDetectMinDsts || ev.Scanner.RstDsts < ScanDetectMinRsts {
			t.Errorf("scanner %v flagged below threshold: %d/%d",
				ev.Scanner.Source, ev.Scanner.UniqueDsts, ev.Scanner.RstDsts)
		}
		if ev.Time.IsZero() {
			t.Errorf("scanner %v event lacks a crossing timestamp", ev.Scanner.Source)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("scanner events for %d sources, detector found %d", len(got), len(want))
	}
	for src, n := range got {
		if !want[src] {
			t.Errorf("event for undetected scanner %v", src)
		}
		if n != 1 {
			t.Errorf("scanner %v fired %d events", src, n)
		}
	}
}

// joinRig drives a 1-shard inline Hybrid one observation at a time: the
// engine-level form of the calls the event join used to take directly.
type joinRig struct {
	t      *testing.T
	h      *Hybrid
	policy RetentionPolicy
	sweeps int
}

func newJoinRig(t *testing.T, policy RetentionPolicy) *joinRig {
	r := &joinRig{t: t, h: NewHybrid(campusPfx, nil, 1, []uint16{80}), policy: policy}
	r.h.SetRetention(policy)
	return r
}

// passive applies one accept response from key's server at t.
func (r *joinRig) passive(key ServiceKey, t time.Time) {
	r.h.HandleBatch([]packet.Packet{*synAck(t, key.Addr, key.Port, cli)})
}

// active applies a one-answer sweep report: key open at t.
func (r *joinRig) active(key ServiceKey, t time.Time) {
	r.sweeps++
	r.h.AddReport(&probe.ScanReport{ID: r.sweeps, Started: t, Finished: t,
		TCP: []probe.TCPResult{{Time: t, Addr: key.Addr, Port: key.Port, State: probe.StateOpen}}})
}

// snapshotAt moves the observation clock to t with a packet that is
// evidence of nothing (a bare ACK) and snapshots, surfacing every expiry
// due by then.
func (r *joinRig) snapshotAt(t time.Time) {
	r.h.HandleBatch([]packet.Packet{*bld.TCPPacket(t, packet.Endpoint{Addr: cli, Port: 40000},
		packet.Endpoint{Addr: cli2, Port: 40000}, packet.FlagACK, 1, 2, nil)})
	r.h.Snapshot()
}

// restoreFrom makes the rig's engine the restored successor of a donor that
// ran prior: export the donor's checkpoint, import it here.
func (r *joinRig) restoreFrom(prior func(donor *joinRig)) {
	donor := newJoinRig(r.t, r.policy)
	prior(donor)
	chunk, _ := donor.h.ExportDelta(nil)
	donor.h.Close()
	if err := r.h.ImportDelta(chunk); err != nil {
		r.t.Fatal(err)
	}
}

// joinEntries counts the engine's event-join entries: one per key with a
// live probe answer, none for passive evidence.
func joinEntries(s *ShardedPassive) int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += len(sh.disc.answers)
		sh.mu.Unlock()
	}
	return n
}

// TestEventJoinTableCorners drives the cross-technique join through its
// corners and pins the exact service-event sequence of each. The expected
// lists are the ones the engine-wide join table produced when these were
// calls on it; each sequence now runs through a 1-shard Hybrid — packets,
// sweep reports, TTL expiry, checkpoint restore — because the join is the
// owning shard's records plus its live-probe-answer table, and has no form
// apart from an engine.
func TestEventJoinTableCorners(t *testing.T) {
	key := ServiceKey{Addr: netaddr.MustParseV4("128.125.1.9"), Proto: packet.ProtoTCP, Port: 80}
	other := ServiceKey{Addr: netaddr.MustParseV4("128.125.1.10"), Proto: packet.ProtoTCP, Port: 80}
	at := func(min int) time.Time { return t0.Add(time.Duration(min) * time.Minute) }
	cases := []struct {
		name   string
		policy RetentionPolicy
		run    func(r *joinRig)
		want   []string // kind provenance @minute (or "zero")
	}{
		{"passive then active", RetentionPolicy{}, func(r *joinRig) {
			r.passive(key, at(1))
			r.active(key, at(2))
			r.passive(key, at(3)) // further evidence of a known half announces nothing
			r.active(key, at(4))
		}, []string{"service-discovered passive-only @1", "provenance-upgraded passive-first @2"}},
		{"active then passive", RetentionPolicy{}, func(r *joinRig) {
			r.active(key, at(1))
			r.passive(key, at(2))
		}, []string{"service-discovered active-only @1", "provenance-upgraded active-first @2"}},
		{"active reported later but answered earlier", RetentionPolicy{}, func(r *joinRig) {
			r.passive(key, at(5))
			r.active(key, at(2))
		}, []string{"service-discovered passive-only @5", "provenance-upgraded active-first @2"}},
		{"tie goes passive, active first", RetentionPolicy{}, func(r *joinRig) {
			r.active(key, at(1))
			r.passive(key, at(1))
		}, []string{"service-discovered active-only @1", "provenance-upgraded passive-first @1"}},
		{"tie goes passive, passive first", RetentionPolicy{}, func(r *joinRig) {
			r.passive(key, at(1))
			r.active(key, at(1))
		}, []string{"service-discovered passive-only @1", "provenance-upgraded passive-first @1"}},
		{"activeOpenEarlier before the upgrade moves the comparison", RetentionPolicy{}, func(r *joinRig) {
			r.active(key, at(5))
			r.active(key, at(1)) // a later-applied sweep that answered earlier
			r.active(key, at(9)) // later, not earlier: ignored
			r.passive(key, at(3))
		}, []string{"service-discovered active-only @5", "provenance-upgraded active-first @3"}},
		{"activeOpenEarlier after the upgrade retracts nothing", RetentionPolicy{}, func(r *joinRig) {
			r.active(key, at(5))
			r.passive(key, at(3))
			r.active(key, at(1))
			// The table-level row also moved an unknown key's time and checked
			// no entry appeared; the active discoverer reports an earlier open
			// only for a key it already holds, so that call cannot happen.
			r.passive(other, at(7))
		}, []string{"service-discovered active-only @5", "provenance-upgraded passive-first @3",
			"service-discovered passive-only @7"}},
		{"expiry of one technique, then the other, then rediscovery",
			RetentionPolicy{PassiveTTL: 9 * time.Minute, ActiveTTL: 18 * time.Minute}, func(r *joinRig) {
				// The table-level row published one expiry notice (@22) that
				// touched no entry. On one key the engine cannot: every passive
				// expiry follows an arrival that was announced. It is a second
				// service here, restored from a checkpoint — so its discovery
				// belongs to the previous incarnation's stream — and last seen
				// at minute 13; its expiry must leave key's join alone.
				// The restore carries the donor's watermark, minute 13, so the
				// report of minute 2 settles key there: the passive evidence of
				// minute 1 expires first (at 10), and the answer is a discovery.
				r.restoreFrom(func(donor *joinRig) { donor.passive(other, at(13)) })
				r.passive(key, at(1))
				r.active(key, at(2))
				r.snapshotAt(at(13))
				r.passive(key, at(11)) // active still stands: an upgrade, not a discovery
				r.passive(key, at(12))
				r.snapshotAt(at(22)) // the probe answer (2+18), key (12+9) and other (13+9) all lapse
				r.active(key, at(30))
			}, []string{"service-discovered passive-only @1", "service-expired passive-only @10",
				"service-discovered active-only @2", "provenance-upgraded active-first @11",
				"service-expired active-only @20", "service-expired passive-only @21",
				"service-expired passive-only @22", "service-discovered active-only @30"}},
		{"retirePassive re-announces, and keeps the active report",
			RetentionPolicy{PassiveTTL: time.Minute}, func(r *joinRig) {
				// Each passive packet arrives at its predecessor's deadline, so
				// observe retires the old record on the spot and announces the
				// expiry ahead of the rebirth, with no snapshot taken.
				r.passive(key, at(1))
				r.passive(key, at(2))
				r.active(key, at(3))
				r.passive(key, at(4))
			}, []string{"service-discovered passive-only @1", "service-expired passive-only @2",
				"service-discovered passive-only @2", "provenance-upgraded passive-first @3",
				"service-expired passive-only @3", "provenance-upgraded active-first @4"}},
		{"a report stamped time.Time{} still counts, passive first", RetentionPolicy{}, func(r *joinRig) {
			r.passive(key, time.Time{})
			r.passive(key, at(1))
			r.active(key, at(2))
		}, []string{"service-discovered passive-only @zero", "provenance-upgraded passive-first @2"}},
		{"a report stamped time.Time{} still counts, active first", RetentionPolicy{}, func(r *joinRig) {
			r.active(key, time.Time{})
			r.active(key, at(1))
			r.passive(key, time.Time{}) // zero vs zero is a tie
		}, []string{"service-discovered active-only @zero", "provenance-upgraded passive-first @zero"}},
		{"seeds after restore publish nothing and suppress re-announcement", RetentionPolicy{}, func(r *joinRig) {
			r.restoreFrom(func(donor *joinRig) {
				donor.passive(key, at(1))
				donor.active(key, at(2))
				donor.active(other, time.Time{})
			})
			r.passive(key, at(3))
			r.active(key, at(4))
			r.active(other, at(5))
			r.passive(other, at(6)) // the one new fact
		}, []string{"provenance-upgraded active-first @6"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := newJoinRig(t, c.policy)
			sub := r.h.SubscribeFiltered(64, func(ev Event) bool { return ev.Kind != EventScanCompleted })
			c.run(r)
			r.h.Close()
			var got []string
			for _, ev := range drainEvents(sub) {
				when := "zero"
				if !ev.Time.IsZero() {
					when = fmt.Sprint(int(ev.Time.Sub(t0) / time.Minute))
				}
				got = append(got, fmt.Sprintf("%s %s @%s", ev.Kind, ev.Provenance, when))
			}
			if fmt.Sprint(got) != fmt.Sprint(c.want) {
				t.Fatalf("events:\n got %q\nwant %q", got, c.want)
			}
			if n := joinEntries(r.h); c.name == "expiry of one technique, then the other, then rediscovery" && n != 1 {
				t.Errorf("join holds %d entries after full expiry and one rediscovery, want 1", n)
			}
		})
	}
}
