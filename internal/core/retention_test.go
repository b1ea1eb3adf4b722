package core

// Retention determinism suite: expiry must behave like a pure function of
// the input — same events per key, same final inventory — no matter how
// the engine is sharded, who snapshots and how often, or whether the
// process was killed and restored from a checkpoint in the middle.

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"servdisc/internal/netaddr"
	"servdisc/internal/packet"
	"servdisc/internal/probe"
	"servdisc/internal/stats"
)

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

// joinRetention expires both techniques' evidence well inside the retention
// trace, so answers lapse between a service's sweeps.
var joinRetention = RetentionPolicy{PassiveTTL: 3 * time.Hour, ActiveTTL: 7 * time.Hour}

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
// order a published sequence fixes. A retirement is announced by whatever
// touches the key first, so the order across keys follows the apply order,
// which shard count and snapshot cadence move.
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
// pure lazy expiry), and checks that within each snapshot every shard
// announces the expiries it decides in (deadline, key) order — each shard
// announces under its own lock, so the order holds per owner shard. Returns
// the expiry event sequence, the final dump, the final tombstone list and
// the whole stream.
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
		byShard := make([][]Event, shards)
		for _, ev := range swept {
			if ev.Kind == EventServiceExpired {
				byShard[s.shardOf(ev.Key.Addr)] = append(byShard[s.shardOf(ev.Key.Addr)], ev)
			}
		}
		for i, exp := range byShard {
			if !slices.IsSortedFunc(exp, func(a, b Event) int { return cmp.Or(a.Time.Compare(b.Time), a.Key.Compare(b.Key)) }) {
				t.Errorf("shards=%d: snapshot %d: shard %d announced its expiries out of (deadline, key) order:\n%s", shards, c, i, strings.Join(eventStrings(exp), "\n"))
			}
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

// cadenceStep is one step of a cadence run: a batch, or a report applied
// after Flush.
type cadenceStep struct {
	pkts []packet.Packet
	rep  *probe.ScanReport
}

// probeAnswer is a one-result sweep report: addr's port 80 open at at.
func probeAnswer(id int, at time.Time, addr netaddr.V4) cadenceStep {
	return cadenceStep{rep: &probe.ScanReport{ID: id, Started: at, Finished: at,
		TCP: []probe.TCPResult{{Time: at, Addr: addr, Port: 80, State: probe.StateOpen}}}}
}

// cadence says who snapshots a cadence run, and when.
type cadence uint8

const (
	everyStep cadence = iota // after every batch and every report
	atTheEnd                 // only once the input is in
	reader                   // a second goroutine, throughout
)

func (c cadence) String() string { return [...]string{"every step", "at the end", "reader"}[c] }

// runCadence feeds steps through a fresh hybrid engine under policy and
// returns each key's service events (times as offsets from t0), the final
// dump and the tombstones.
func runCadence(t *testing.T, steps []cadenceStep, shards int, running bool, policy RetentionPolicy, c cadence) (map[ServiceKey][]string, []byte, []expiryRec) {
	s := NewHybrid(campusPfx, []uint16{53}, shards, []uint16{22, 80, 443})
	s.SetRetention(policy)
	var mu sync.Mutex
	streams := make(map[ServiceKey][]string)
	s.SubscribeSync(func(ev Event) {
		var e string
		switch ev.Kind {
		case EventServiceDiscovered, EventServiceExpired:
			e = fmt.Sprintf("%s %s@%s", ev.Kind, ev.Provenance, ev.Time.Sub(t0))
		case EventProvenanceUpgraded:
			e = fmt.Sprintf("%s %s passive@%s active@%s", ev.Kind, ev.Provenance, ev.PassiveAt.Sub(t0), ev.ActiveAt.Sub(t0))
		default:
			return
		}
		mu.Lock()
		streams[ev.Key] = append(streams[ev.Key], e)
		mu.Unlock()
	})
	if running {
		s.Run(context.Background())
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for c == reader {
			select {
			case <-stop:
				return
			default:
				s.Snapshot()
			}
		}
	}()
	for _, st := range steps {
		if st.rep != nil {
			s.Flush()
			s.AddReport(st.rep)
		} else {
			s.HandleBatch(st.pkts)
		}
		if c == everyStep {
			s.Snapshot()
		}
	}
	close(stop)
	<-done
	s.Flush()
	inv := s.Snapshot()
	s.Close()
	mu.Lock()
	defer mu.Unlock()
	return maps.Clone(streams), inv.Dump(), tombList(inv)
}

// TestRetentionCadenceInvisibleHybrid: whatever touches a key first retires
// its dead incarnations, at the packet's time, the watermark a report reads,
// or a freeze's watermark, so who snapshots and how often moves no key's
// events, no dump and no tombstone. Three scenarios pin the streams a
// snapshot after every step gives (srv:80; passive TTL 1h, active 2h): (A) a
// probe answer's later passive return, (B) a passive record's later probe
// answer, (C) a report answering behind a watermark past the old answer's
// deadline. A rediscovery the freeze's watermark would have retired is
// announced after its expiry on a running engine. The retention trace with
// its sweeps runs at 1, 2 and 8 shards, inline and running.
func TestRetentionCadenceInvisibleHybrid(t *testing.T) {
	key := ServiceKey{Addr: srv, Proto: packet.ProtoTCP, Port: 80}
	at := func(d time.Duration) time.Time { return t0.Add(d) }
	batch := func(p ...*packet.Packet) cadenceStep {
		var st cadenceStep
		for _, q := range p {
			st.pkts = append(st.pkts, *q)
		}
		return st
	}
	both := RetentionPolicy{PassiveTTL: time.Hour, ActiveTTL: 2 * time.Hour}
	rows := []struct {
		name   string
		steps  []cadenceStep
		policy RetentionPolicy
		want   []string // key's stream
		dump   string   // a line the dump must hold
	}{
		{"A: a probe answer, then passive past its deadline", []cadenceStep{
			probeAnswer(1, at(0), srv), batch(synAck(at(3*time.Hour), srv2, 80, cli)), batch(synAck(at(3*time.Hour+time.Minute), srv, 80, cli)),
		}, both, []string{"service-discovered active-only@0s", "service-expired active-only@2h0m0s", "service-discovered passive-only@3h1m0s"}, ""},
		{"B: passive, then a probe answer past its deadline", []cadenceStep{
			batch(synAck(at(0), srv, 80, cli)), batch(synAck(at(90*time.Minute), srv2, 80, cli)), probeAnswer(1, at(90*time.Minute), srv),
		}, both, []string{"service-discovered passive-only@0s", "service-expired passive-only@1h0m0s", "service-discovered active-only@1h30m0s"}, ""},
		{"C: a report answering behind the watermark", []cadenceStep{
			probeAnswer(1, at(0), srv), batch(synAck(at(150*time.Minute), srv2, 80, cli)), probeAnswer(2, at(90*time.Minute), srv),
		}, both, []string{"service-discovered active-only@0s", "service-expired active-only@2h0m0s", "service-discovered active-only@1h30m0s"}, "active=2006-09-19T11:30:00Z"},
		{"a rediscovery past the deadline follows the expiry", []cadenceStep{
			batch(synAck(at(0), srv, 80, cli)), batch(synAck(at(2*time.Hour), srv2, 80, cli)), batch(synAck(at(3*time.Hour), srv, 80, cli2)),
		}, RetentionPolicy{PassiveTTL: time.Hour}, []string{"service-discovered passive-only@0s", "service-expired passive-only@1h0m0s", "service-discovered passive-only@3h0m0s"}, ""},
	}
	for _, r := range rows {
		for _, running := range []bool{false, true} {
			label := fmt.Sprintf("%s, running %v", r.name, running)
			for _, c := range []cadence{everyStep, atTheEnd, reader} {
				streams, dump, _ := runCadence(t, r.steps, 1, running, r.policy, c)
				if got := streams[key]; !slices.Equal(got, r.want) {
					t.Errorf("%s, cadence %s: %s announced\n  %s\nwant\n  %s", label, c, key, strings.Join(got, "\n  "), strings.Join(r.want, "\n  "))
				}
				if !bytes.Contains(dump, []byte(r.dump)) {
					t.Errorf("%s, cadence %s: the dump lacks %q:\n%s", label, c, r.dump, dump)
				}
			}
		}
	}

	// The retention trace, cut at each sweep's finish.
	trace, reps := genRetentionTrace(42), genRetentionReports()
	var steps []cadenceStep
	for _, rep := range append(reps, nil) {
		n := len(trace)
		if rep != nil {
			n, _ = slices.BinarySearchFunc(trace, rep.Finished, func(p packet.Packet, t time.Time) int { return p.Timestamp.Compare(t) })
		}
		for len(trace[:n]) > 0 {
			m := min(n, 97)
			steps = append(steps, cadenceStep{pkts: trace[:m]})
			trace, n = trace[m:], n-m
		}
		if rep != nil {
			steps = append(steps, cadenceStep{rep: rep})
		}
	}
	for _, shards := range []int{1, 2, 8} {
		for _, running := range []bool{false, true} {
			label := fmt.Sprintf("trace, shards %d, running %v", shards, running)
			wantStreams, wantDump, wantTombs := runCadence(t, steps, shards, running, joinRetention, everyStep)
			if len(wantTombs) == 0 {
				t.Fatalf("%s: no expiry; the test is vacuous", label)
			}
			for _, c := range []cadence{atTheEnd, reader} {
				streams, dump, tombs := runCadence(t, steps, shards, running, joinRetention, c)
				for k := range wantStreams {
					if !slices.Equal(streams[k], wantStreams[k]) {
						t.Fatalf("%s, cadence %s: %s announced\n  %s\nsnapshotting every step\n  %s", label, c, k, strings.Join(streams[k], "\n  "), strings.Join(wantStreams[k], "\n  "))
					}
				}
				if len(streams) != len(wantStreams) {
					t.Errorf("%s, cadence %s: %d keys announced, %d snapshotting every step", label, c, len(streams), len(wantStreams))
				}
				if !bytes.Equal(dump, wantDump) {
					t.Errorf("%s, cadence %s: the dump differs from snapshotting every step", label, c)
				}
				assertSameExpiries(t, label+" tombstones", wantTombs, tombs)
			}
		}
	}
}

// Snapshots racing Close: every expiry due at the final watermark is
// announced exactly once, before the stream ends, whichever freeze decides
// it.
func TestSnapshotRacingCloseAnnouncesItsExpiries(t *testing.T) {
	const services = 8
	for round := 0; round < 300; round++ {
		s := NewHybrid(campusPfx, nil, 1+round%3, nil)
		s.SetRetention(RetentionPolicy{PassiveTTL: time.Hour})
		sub := s.Subscribe(64)
		if round%2 == 1 {
			s.Run(context.Background())
		}
		var pkts []packet.Packet
		for i := range services {
			pkts = append(pkts, *synAck(t0, srv+netaddr.V4(i), 80, cli))
		}
		s.HandleBatch(pkts)
		s.HandleBatch([]packet.Packet{*synAck(t0.Add(2*time.Hour), srv2, 80, cli)}) // watermark past their deadlines
		var racing sync.WaitGroup
		for range 3 {
			racing.Add(1)
			go func() {
				defer racing.Done()
				s.Snapshot()
			}()
		}
		s.Close()
		racing.Wait()
		expired := make(map[ServiceKey]int)
		for _, ev := range drainEvents(sub) {
			if ev.Kind == EventServiceExpired {
				expired[ev.Key]++
			}
		}
		if len(expired) != services || sub.Dropped() != 0 {
			t.Fatalf("round %d: %d of %d services announced expired (%d events dropped)", round, len(expired), services, sub.Dropped())
		}
		for k, n := range expired {
			if n != 1 {
				t.Fatalf("round %d: %s announced expired %d times", round, k, n)
			}
		}
	}
}

// Checkpoint exports racing reports, with retention on: a report's settle
// retires passive records in the owner shard's stores while an export copies
// them out, so the export must read under the shard lock. Services each seen
// once fall due a second apart; a producer moves the watermark ten seconds
// at a time and, before any freeze need have reached it, sweeps the ten
// services that fell due, so its settle retires them. Exports, every fourth
// a baseline that walks every record, run beside it on running shards. The
// race detector checks the locking; each service must expire once, and the
// chain of exports since the last baseline must rebuild the final inventory.
func TestExportDeltaRacingReports(t *testing.T) {
	const services, step = 1000, 10
	base := campusPfx.Base() + 4096
	for _, shards := range []int{1, 2, 8} {
		s := NewHybrid(campusPfx, nil, shards, nil)
		s.SetRetention(RetentionPolicy{PassiveTTL: time.Hour, ActiveTTL: time.Hour})
		s.Run(context.Background())
		sub := s.Subscribe(4 * services)
		var pkts []packet.Packet
		for i := range services {
			pkts = append(pkts, *synAck(t0.Add(time.Duration(i)*time.Second), base+netaddr.V4(i), 80, cli))
		}
		s.HandleBatch(pkts)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for k := 0; k < services; k += step {
				at := t0.Add(time.Hour + time.Duration(k+step-1)*time.Second)
				s.HandleBatch([]packet.Packet{*synAck(at, srv, 22, cli)})
				rep := &probe.ScanReport{ID: k, Started: at, Finished: at}
				for i := k; i < k+step; i++ {
					rep.TCP = append(rep.TCP, probe.TCPResult{Time: at, Addr: base + netaddr.V4(i), Port: 80, State: probe.StateOpen})
				}
				s.AddReport(rep)
			}
		}()
		var chain []*EngineDelta
		var cur *CheckpointCursor
		for n, racing := 0, true; racing; n++ {
			select {
			case <-done:
				racing = false
			default:
			}
			if n%4 == 0 {
				chain, cur = chain[:0], nil
			}
			ed, next := s.ExportDelta(cur)
			chain, cur = append(chain, ed), &next
		}
		want := s.Snapshot().Dump()
		s.Close()
		expired := make(map[ServiceKey]int)
		for _, e := range drainExpired(sub) {
			expired[e.key]++
		}
		if len(expired) != services || sub.Dropped() != 0 {
			t.Fatalf("shards=%d: %d of %d services expired (%d events dropped)", shards, len(expired), services, sub.Dropped())
		}
		for k, n := range expired {
			if n != 1 {
				t.Fatalf("shards=%d: %s expired %d times", shards, k, n)
			}
		}

		r := NewHybrid(campusPfx, nil, shards, nil)
		r.SetRetention(RetentionPolicy{PassiveTTL: time.Hour, ActiveTTL: time.Hour})
		for i, ed := range chain {
			if err := r.ImportDelta(ed); err != nil {
				t.Fatalf("shards=%d: import %d of %d: %v", shards, i, len(chain), err)
			}
		}
		if got := r.Snapshot().Dump(); !bytes.Equal(got, want) {
			t.Errorf("shards=%d: restored dump differs:\n got %s\nwant %s", shards, got, want)
		}
		r.Close()
	}
}
