package core

// Retention determinism suite: expiry must behave like a pure function of
// the packet stream — same events, same final inventory — no matter how
// the engine is sharded, how often anyone snapshots, or whether the
// process was killed and restored from a checkpoint in the middle.

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"servdisc/internal/netaddr"
	"servdisc/internal/packet"
	"servdisc/internal/probe"
	"servdisc/internal/stats"
)

// retSvcPlan scripts one service's lifetime: it answers clients every
// period within [from, to] and then goes silent. Sparse periods (longer
// than the test TTL) force observe-side expiry-and-rebirth; bounded
// windows force snapshot-side expiry once the watermark moves past them.
type retSvcPlan struct {
	addr   netaddr.V4
	port   uint16
	udp    bool
	from   time.Duration
	to     time.Duration
	period time.Duration
}

// genRetentionTrace synthesizes a timestamp-ordered border trace (a
// monotone observation clock, like a real capture) whose services churn:
// some chatter steadily, some die mid-trace, some reappear after gaps
// longer than any reasonable TTL.
func genRetentionTrace(seed uint64) []packet.Packet {
	rng := stats.NewRNG(seed).Derive("retention-trace")
	ports := []uint16{22, 80, 443}
	var plans []retSvcPlan
	for i := 0; i < 48; i++ {
		p := retSvcPlan{
			addr:   campusPfx.Base() + netaddr.V4(700+i),
			port:   ports[i%3],
			from:   time.Duration(rng.Intn(10)) * time.Hour,
			period: time.Duration(10+rng.Intn(110)) * time.Minute,
		}
		p.to = p.from + time.Duration(4+rng.Intn(20))*time.Hour
		if i%5 == 0 {
			// Sparse talker: every gap overruns a 3h TTL, so each
			// observation after the first arrives at a dead record.
			p.period = time.Duration(3+rng.Intn(3))*time.Hour + 30*time.Minute
		}
		if i%7 == 0 {
			p.udp, p.port = true, 53
		}
		plans = append(plans, p)
	}

	type emission struct {
		at time.Duration
		pi int
	}
	var ems []emission
	for pi, p := range plans {
		for off := p.from; off <= p.to; off += p.period {
			ems = append(ems, emission{off, pi})
		}
	}
	sort.Slice(ems, func(i, j int) bool {
		if ems[i].at != ems[j].at {
			return ems[i].at < ems[j].at
		}
		return ems[i].pi < ems[j].pi
	})

	b := packet.NewBuilder(0)
	base := time.Date(2006, 9, 19, 10, 0, 0, 0, time.UTC)
	ext := netaddr.MustParseV4("64.10.0.0")
	var out []packet.Packet
	for i, e := range ems {
		p := plans[e.pi]
		now := base.Add(e.at)
		c := ext + netaddr.V4((i*13)%4000)
		if p.udp {
			out = append(out, *b.UDPPacket(now, packet.Endpoint{Addr: c, Port: 34000},
				packet.Endpoint{Addr: p.addr, Port: p.port}, []byte("q")))
			out = append(out, *b.UDPPacket(now.Add(300*time.Microsecond),
				packet.Endpoint{Addr: p.addr, Port: p.port}, packet.Endpoint{Addr: c, Port: 34000}, []byte("r")))
		} else {
			out = append(out, *b.Syn(now, packet.Endpoint{Addr: c, Port: 33000},
				packet.Endpoint{Addr: p.addr, Port: p.port}, 1))
			out = append(out, *b.SynAck(now.Add(300*time.Microsecond),
				packet.Endpoint{Addr: p.addr, Port: p.port}, packet.Endpoint{Addr: c, Port: 33000}, 2, 2))
		}
	}
	return out
}

// expiryRec is one observed EventServiceExpired, in comparable form.
type expiryRec struct {
	key  ServiceKey
	at   time.Time
	prov Provenance
}

func (r expiryRec) String() string {
	return fmt.Sprintf("%s %s %s", r.key, r.at.Format(time.RFC3339), r.prov)
}

// drainExpired collects the expiry subsequence of a closed subscription's
// event stream.
func drainExpired(sub *EventSub) []expiryRec {
	var out []expiryRec
	for ev := range sub.Events() {
		if ev.Kind == EventServiceExpired {
			out = append(out, expiryRec{key: ev.Key, at: ev.Time, prov: ev.Provenance})
		}
	}
	return out
}

// tombList flattens an inventory's tombstones into sorted comparable form.
func tombList(inv *Inventory) []expiryRec {
	var out []expiryRec
	inv.EachTombstone(func(key ServiceKey, at time.Time, prov Provenance) bool {
		out = append(out, expiryRec{key: key, at: at, prov: prov})
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].key != out[j].key {
			return out[i].key.Before(out[j].key)
		}
		return out[i].prov < out[j].prov
	})
	return out
}

// byKey orders expiries by key, each key's in publication order: the
// order a published sequence fixes. A retirement observe decides is
// announced at the packet that decided it, ahead of the rebirth, so the
// order across keys follows the apply order, which shard count and
// snapshot cadence move.
func byKey(exp []expiryRec) []expiryRec {
	slices.SortStableFunc(exp, func(a, b expiryRec) int { return a.key.Compare(b.key) })
	return exp
}

func assertSameExpiries(t *testing.T, label string, want, got []expiryRec) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d expiries, want %d\n got: %v\nwant: %v", label, len(got), len(want), got, want)
	}
	for i := range want {
		if want[i].key != got[i].key || !want[i].at.Equal(got[i].at) || want[i].prov != got[i].prov {
			t.Fatalf("%s: expiry[%d] = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// runRetention feeds the trace through a fresh inline engine in `cuts`
// segments, snapshotting after each (cuts==1 means one final snapshot:
// pure lazy expiry), and checks that each snapshot announces the expiries
// it decides together, sorted by (deadline, key). Returns the expiry event
// sequence, the final dump, the final tombstone list and the whole stream.
func runRetention(t *testing.T, trace []packet.Packet, shards, cuts int, ttl time.Duration) (exps []expiryRec, dump []byte, tombs []expiryRec, stream []string) {
	s := NewShardedPassive(campusPfx, []uint16{53}, shards)
	s.SetRetention(RetentionPolicy{PassiveTTL: ttl})
	sub := s.Subscribe(1 << 16)
	rng := stats.NewRNG(11).Derive("retention-batches")
	var inv *Inventory
	var evs []Event
	for c := 0; c < cuts; c++ {
		lo, hi := len(trace)*c/cuts, len(trace)*(c+1)/cuts
		feedBatches(s, trace[lo:hi], rng)
		evs = append(evs, pending(sub)...)
		inv = s.Snapshot()
		swept := pending(sub)
		evs = append(evs, swept...)
		swept = slices.DeleteFunc(swept, func(ev Event) bool { return ev.Kind != EventServiceExpired })
		if !slices.IsSortedFunc(swept, func(a, b Event) int { return cmp.Or(a.Time.Compare(b.Time), a.Key.Compare(b.Key)) }) {
			t.Errorf("shards=%d: snapshot %d announced its expiries out of (deadline, key) order:\n%s", shards, c, strings.Join(eventStrings(swept), "\n"))
		}
	}
	s.Close()
	for _, ev := range evs {
		stream = append(stream, ev.String())
		if ev.Kind == EventServiceExpired {
			exps = append(exps, expiryRec{key: ev.Key, at: ev.Time, prov: ev.Provenance})
		}
	}
	return exps, inv.Dump(), tombList(inv), stream
}

// pending takes the events already delivered to sub, without waiting.
func pending(sub *EventSub) (out []Event) {
	for len(sub.Events()) > 0 {
		out = append(out, <-sub.Events())
	}
	return out
}

// TestRetentionExpiryDeterministicAcrossShards: each key's published expiry
// sequence, the final dump, and the tombstone set are identical at shard
// counts 1, 2 and 8 under a mid-trace snapshot cadence. Across keys the
// order follows the apply order, so the whole stream is what a repeat run
// of the one-shard engine reproduces.
func TestRetentionExpiryDeterministicAcrossShards(t *testing.T) {
	trace := genRetentionTrace(42)
	const ttl = 3 * time.Hour
	wantExp, wantDump, wantTombs, stream := runRetention(t, trace, 1, 6, ttl)
	if len(wantExp) == 0 {
		t.Fatal("trace produced no expiries; test is vacuous")
	}
	if _, _, _, again := runRetention(t, trace, 1, 6, ttl); !slices.Equal(stream, again) {
		t.Errorf("a repeat run published a different stream (%d events, then %d)", len(stream), len(again))
	}
	for _, shards := range []int{2, 8} {
		label := fmt.Sprintf("shards=%d", shards)
		exp, dump, tombs, _ := runRetention(t, trace, shards, 6, ttl)
		assertSameExpiries(t, label+" events", byKey(wantExp), byKey(exp))
		if !bytes.Equal(wantDump, dump) {
			t.Errorf("%s: final dump differs from shards=1", label)
		}
		assertSameExpiries(t, label+" tombstones", wantTombs, tombs)
	}
}

// TestRetentionLazyMatchesSweep: snapshot cadence is invisible. A run
// that snapshots once at the end (every expiry decided lazily) publishes
// the exact same expiry sequence per key, and the same final state, as one
// swept 12 times.
func TestRetentionLazyMatchesSweep(t *testing.T) {
	trace := genRetentionTrace(42)
	const ttl = 3 * time.Hour
	lazyExp, lazyDump, lazyTombs, _ := runRetention(t, trace, 4, 1, ttl)
	sweptExp, sweptDump, sweptTombs, _ := runRetention(t, trace, 4, 12, ttl)
	if len(lazyExp) == 0 {
		t.Fatal("trace produced no expiries; test is vacuous")
	}
	assertSameExpiries(t, "events", byKey(lazyExp), byKey(sweptExp))
	if !bytes.Equal(lazyDump, sweptDump) {
		t.Errorf("final dump differs between lazy and swept runs")
	}
	assertSameExpiries(t, "tombstones", lazyTombs, sweptTombs)
}

// TestRetentionSurvivesRestore: kill-and-restore equivalence with
// retention on. An engine checkpointed mid-trace (baseline plus an
// incremental delta, like the real writer produces) and restored into a
// fresh engine must publish exactly the expiries the uninterrupted run
// had left to publish, and converge on the identical dump and tombstone
// set.
func TestRetentionSurvivesRestore(t *testing.T) {
	trace := genRetentionTrace(42)
	const ttl, shards = 3 * time.Hour, 4
	policy := RetentionPolicy{PassiveTTL: ttl}

	refExp, refDump, refTombs, _ := runRetention(t, trace, shards, 1, ttl)
	if len(refExp) == 0 {
		t.Fatal("trace produced no expiries; test is vacuous")
	}

	// First incarnation: two checkpoint cycles (baseline at 30%, delta at
	// 55%), each preceded by a snapshot — the shape a periodic writer
	// produces. The delta carries tombstones recorded since the baseline.
	cutA, cutB := len(trace)*30/100, len(trace)*55/100
	rng := stats.NewRNG(11).Derive("retention-batches")
	a := NewShardedPassive(campusPfx, []uint16{53}, shards)
	a.SetRetention(policy)
	subA := a.Subscribe(1 << 16)
	feedBatches(a, trace[:cutA], rng)
	a.Snapshot()
	base, cur := a.ExportDelta(nil)
	feedBatches(a, trace[cutA:cutB], rng)
	a.Snapshot()
	delta, _ := a.ExportDelta(&cur)
	a.Close()
	preExp := drainExpired(subA)

	// Second incarnation: restore both chunks, then finish the trace.
	b := NewShardedPassive(campusPfx, []uint16{53}, shards)
	b.SetRetention(policy)
	if err := b.ImportDelta(base); err != nil {
		t.Fatalf("import baseline: %v", err)
	}
	if err := b.ImportDelta(delta); err != nil {
		t.Fatalf("import delta: %v", err)
	}
	subB := b.Subscribe(1 << 16)
	feedBatches(b, trace[cutB:], rng)
	inv := b.Snapshot()
	b.Close()
	postExp := drainExpired(subB)

	assertSameExpiries(t, "events across restore", byKey(refExp), byKey(append(preExp, postExp...)))
	if !bytes.Equal(refDump, inv.Dump()) {
		t.Errorf("restored dump differs from uninterrupted run")
	}
	assertSameExpiries(t, "tombstones", refTombs, tombList(inv))
}

// TestHybridActiveExpiry: active (probe) evidence ages out on its own TTL
// against the passive watermark. A probe-only service disappears from the
// hybrid snapshot with an ActiveOnly expiry event; a still-chattering
// passive service on the same engine survives.
func TestHybridActiveExpiry(t *testing.T) {
	h := NewHybrid(campusPfx, []uint16{53}, 2, []uint16{80, 443})
	h.SetRetention(RetentionPolicy{PassiveTTL: 12 * time.Hour, ActiveTTL: 2 * time.Hour})
	sub := h.Subscribe(64)

	probed := campusPfx.Base() + netaddr.V4(9000)
	h.AddReport(&probe.ScanReport{
		ID: 1, Started: t0, Finished: t0.Add(time.Minute),
		TCP: []probe.TCPResult{{Time: t0, Addr: probed, Port: 443, State: probe.StateOpen}},
	})
	// Passive chatter advances the watermark past the active deadline.
	h.HandleBatch([]packet.Packet{*synAck(t0.Add(time.Hour), srv, 80, cli)})
	h.HandleBatch([]packet.Packet{*synAck(t0.Add(3*time.Hour), srv, 80, cli2)})

	inv := h.Snapshot()
	probedKey := ServiceKey{Addr: probed, Proto: packet.ProtoTCP, Port: 443}
	if _, ok := inv.Provenance(probedKey); ok {
		t.Error("probe-only service still present after its active TTL")
	}
	if _, ok := inv.Provenance(ServiceKey{Addr: srv, Proto: packet.ProtoTCP, Port: 80}); !ok {
		t.Error("fresh passive service should survive")
	}
	wantAt := t0.Add(2 * time.Hour) // lastOpen + ActiveTTL
	tombs := tombList(inv)
	if len(tombs) != 1 || tombs[0].key != probedKey || tombs[0].prov != ActiveOnly || !tombs[0].at.Equal(wantAt) {
		t.Errorf("tombstones = %v, want [%s at %s ActiveOnly]", tombs, probedKey, wantAt.Format(time.RFC3339))
	}
	h.Close()
	exp := drainExpired(sub)
	if len(exp) != 1 || exp[0].key != probedKey || exp[0].prov != ActiveOnly || !exp[0].at.Equal(wantAt) {
		t.Errorf("expiry events = %v, want one ActiveOnly expiry of %s", exp, probedKey)
	}
}
