package federate

// Retraction hardening: hostile or stale input must never half-apply a
// withdrawal, and a publisher reconnect (even one replaying pre-expiry
// state) must never resurrect an expired service.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"servdisc/internal/core"
	"servdisc/internal/netaddr"
	"servdisc/internal/packet"
)

var (
	retBase = time.Date(2006, 12, 16, 10, 0, 0, 0, time.UTC)
	keyA    = core.ServiceKey{Addr: netaddr.MustParseV4("128.125.3.1"), Proto: packet.ProtoTCP, Port: 80}
	keyB    = core.ServiceKey{Addr: netaddr.MustParseV4("128.125.3.2"), Proto: packet.ProtoTCP, Port: 443}
)

// seedAggregator builds a deterministic aggregator holding one site with
// two live services and one already-applied retraction — enough surface
// that a hostile frame has real state to corrupt.
func seedAggregator(tb testing.TB) *Aggregator {
	tb.Helper()
	agg := NewAggregator()
	snap := &Snapshot{
		Services: []SnapshotService{
			{Key: keyA, Provenance: core.PassiveOnly, PassiveAt: retBase, Flows: 7, Clients: 3},
			{Key: keyB, Provenance: core.ActiveOnly, ActiveAt: retBase.Add(time.Minute)},
		},
		Retractions: []Retraction{
			{Key: keyB, At: retBase.Add(-time.Hour), Prov: core.PassiveOnly},
		},
		Packets: 100,
	}
	f := &Frame{V: WireVersion, Type: FrameSnapshot, Site: "seed-site", Epoch: 1, Seq: 5, Snapshot: snap}
	if err := agg.Apply(f); err != nil {
		tb.Fatalf("seed snapshot: %v", err)
	}
	return agg
}

// invSignature renders the aggregator's merged inventory (services and
// scanners, not the per-site dedup cursors — those legitimately move on
// any frame, including rejected ones that open a new epoch) in canonical
// bytes for before/after comparison.
func invSignature(tb testing.TB, a *Aggregator) []byte {
	tb.Helper()
	st := a.ExportState()
	st.Sites = nil
	b, err := json.Marshal(st)
	if err != nil {
		tb.Fatalf("marshal state: %v", err)
	}
	return b
}

// FuzzRetractionFrameDecode feeds arbitrary bytes through the wire
// decoder into a seeded aggregator and asserts the never-half-apply
// contract: any frame Apply rejects leaves the merged inventory
// byte-identical. (Accepted frames may of course mutate it.)
func FuzzRetractionFrameDecode(f *testing.F) {
	valid := Retraction{Key: keyA, At: retBase.Add(2 * time.Hour), Prov: core.PassiveOnly}
	noDeadline := Retraction{Key: keyA, Prov: core.PassiveOnly}
	// PassiveFirst is a legal wire value but not a legal retraction kind.
	badProv := Retraction{Key: keyA, At: retBase.Add(2 * time.Hour), Prov: core.PassiveFirst}
	seal := func(epoch, seq uint64, rs ...Retraction) Frame {
		return Frame{V: WireVersion, Type: FrameSeal, Site: "seed-site", Epoch: epoch, Seq: seq, Snapshot: &Snapshot{Retractions: rs}}
	}
	f.Add(encodeFrames(f, seal(1, 6, valid)))
	f.Add(encodeFrames(f, seal(1, 6, noDeadline)))
	f.Add(encodeFrames(f, seal(2, 1, badProv)))
	// A frame that is all header: a seal whose body is missing entirely.
	f.Add(rawFrame(WireVersion<<4|headerEnvelope|codeSeal, 9, 's', 'e', 'e', 'd', '-', 's', 'i', 't', 'e', 1, 0, 0, 0, 0, 0, 0, 0))
	// The half-apply honeypot: valid retractions ahead of an invalid one
	// in a single snapshot — none may land.
	f.Add(encodeFrames(f, Frame{
		V: WireVersion, Type: FrameSnapshot, Site: "seed-site", Epoch: 1, Seq: 9,
		Snapshot: &Snapshot{Retractions: []Retraction{valid, valid, noDeadline}},
	}))
	f.Add(encodeFrames(f, Frame{V: WireVersion, Type: FrameHello, Site: "seed-site", Epoch: 3}, seal(3, 1, valid)))
	f.Add(append(encodeFrames(f, seal(1, 8, valid)), "garbage"...))
	// Rows whose weights or times no cell can hold, behind a valid
	// retraction and a valid row: the whole frame is refused.
	for _, bad := range refusedRows() {
		fr := seal(1, 10, valid)
		fr.Snapshot.Services = []SnapshotService{{Key: keyB, Provenance: core.ActiveOnly, ActiveAt: retBase}, bad}
		f.Add(encodeFrames(f, fr))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		agg := seedAggregator(t)
		dec := NewDecoder(bytes.NewReader(data))
		for i := 0; i < 64; i++ {
			fr, err := dec.Decode()
			if err != nil {
				return // framing rejected the rest of the stream
			}
			pre := invSignature(t, agg)
			if aerr := agg.Apply(fr); aerr != nil {
				if post := invSignature(t, agg); !bytes.Equal(pre, post) {
					t.Fatalf("rejected frame mutated inventory\nframe: %+v\n pre: %s\npost: %s", fr, pre, post)
				}
			}
		}
	})
}

// TestSnapshotInvalidRetractionNotHalfApplied pins the honeypot case
// deterministically (the fuzzer's most important seed): a snapshot whose
// retraction list is valid except for its last entry must be rejected
// wholesale — the valid prefix must not land.
func TestSnapshotInvalidRetractionNotHalfApplied(t *testing.T) {
	agg := seedAggregator(t)
	pre := invSignature(t, agg)
	f := &Frame{
		V: WireVersion, Type: FrameSnapshot, Site: "seed-site", Epoch: 1, Seq: 9,
		Snapshot: &Snapshot{Retractions: []Retraction{
			{Key: keyA, At: retBase.Add(2 * time.Hour), Prov: core.PassiveOnly},
			{Key: keyB, Prov: core.ActiveOnly}, // zero deadline: invalid
		}},
	}
	if err := agg.Apply(f); err == nil {
		t.Fatal("snapshot with an invalid retraction was accepted")
	}
	if post := invSignature(t, agg); !bytes.Equal(pre, post) {
		t.Fatalf("rejected snapshot half-applied its retractions\n pre: %s\npost: %s", pre, post)
	}
	if n := agg.NumServices(); n != 2 {
		t.Fatalf("NumServices = %d, want 2", n)
	}
}

// refusedRows lists one snapshot row per shape a site cell cannot hold:
// negative weights, a client count past uint32, and a time outside the
// instant range (the int64-nanosecond floor, which the wire carries).
func refusedRows() []SnapshotService {
	row := SnapshotService{Key: keyA, Provenance: core.PassiveOnly, PassiveAt: retBase.Add(3 * time.Hour), Flows: 9, Clients: 4}
	negFlows, negClients, wideClients, early := row, row, row, row
	negFlows.Flows = -1
	negClients.Clients = -1
	wideClients.Clients = math.MaxUint32 + 1
	early.PassiveAt = time.Unix(0, math.MinInt64).UTC()
	return []SnapshotService{negFlows, negClients, wideClients, early}
}

// TestRefusedFrameLeavesDumpUnchanged: a frame carrying anything a site
// cell cannot hold is refused whole, after valid content that would
// otherwise land — the aggregator's Dump stays byte-identical.
func TestRefusedFrameLeavesDumpUnchanged(t *testing.T) {
	valid := Retraction{Key: keyA, At: retBase.Add(2 * time.Hour), Prov: core.PassiveOnly}
	newRow := SnapshotService{Key: testKey(0x807D0909, 6, 25), Provenance: core.PassiveOnly, PassiveAt: retBase, Flows: 1, Clients: 1}
	type frameCase struct {
		name string
		f    *Frame
	}
	var cases []frameCase
	for i, bad := range refusedRows() {
		cases = append(cases, frameCase{fmt.Sprintf("row %d", i), &Frame{
			V: WireVersion, Type: FrameSeal, Site: "seed-site", Epoch: 1, Seq: 10,
			Snapshot: &Snapshot{Retractions: []Retraction{valid}, Services: []SnapshotService{newRow, bad}},
		}})
	}
	early := time.Unix(0, math.MinInt64).UTC()
	cases = append(cases,
		frameCase{"retraction deadline", &Frame{V: WireVersion, Type: FrameSnapshot, Site: "seed-site", Epoch: 1, Seq: 10,
			Snapshot: &Snapshot{Services: []SnapshotService{newRow}, Retractions: []Retraction{valid, {Key: keyB, At: early, Prov: core.ActiveOnly}}}}},
		frameCase{"event time", &Frame{V: WireVersion, Type: FrameEvent, Site: "seed-site", Epoch: 1, Seq: 10,
			Event: &core.Event{Kind: core.EventServiceDiscovered, Time: early, Key: newRow.Key}}},
	)
	for _, tc := range cases {
		agg := seedAggregator(t)
		pre := agg.Dump()
		if err := agg.Apply(tc.f); err == nil {
			t.Errorf("%s: frame accepted", tc.name)
		}
		if post := agg.Dump(); !bytes.Equal(pre, post) {
			t.Errorf("%s: refused frame changed the dump\n pre: %s\npost: %s", tc.name, pre, post)
		}
	}
}

// TestImportStateRefusesWhatACellCannotHold: a state file is input from
// outside the program, held to the frame rules. A cell with weights or a
// time no cell can hold fails the import, and nothing of the file lands.
func TestImportStateRefusesWhatACellCannotHold(t *testing.T) {
	for i, mutate := range []func(*AggSvcRecord){
		func(r *AggSvcRecord) { r.Flows = -1 },
		func(r *AggSvcRecord) { r.Clients = -1 },
		func(r *AggSvcRecord) { r.Clients = math.MaxUint32 + 1 },
		func(r *AggSvcRecord) { r.FirstAt = time.Unix(0, math.MinInt64).UTC() },
		func(r *AggSvcRecord) { r.RetractedActiveAt = time.Date(9999, 1, 1, 0, 0, 0, 0, time.UTC) },
	} {
		st := seedAggregator(t).ExportState()
		mutate(&st.Services[len(st.Services)-1].Sites[0])
		agg := NewAggregator()
		if err := agg.ImportState(st); err == nil {
			t.Errorf("case %d: import accepted", i)
		}
		if len(agg.Sites()) != 0 || len(agg.ExportState().Services) != 0 {
			t.Errorf("case %d: a refused import left state behind", i)
		}
	}
	if err := NewAggregator().ImportState(seedAggregator(t).ExportState()); err != nil {
		t.Fatalf("unmutated state: %v", err)
	}
}

// hasLive reports whether the aggregator lists key as a live global
// service.
func hasLive(a *Aggregator, key core.ServiceKey) bool {
	for _, gs := range a.Services() {
		if gs.Key == key {
			return true
		}
	}
	return false
}

// TestReconnectAfterRetractionNoResurrection walks the full lifecycle:
// a site discovers a service, the aggregator learns it, the service
// expires (a seal frame's retraction), and then every flavor of reconnect replay —
// the site's fresh snapshot, a stale pre-expiry snapshot from a restarted
// publisher epoch, and a stale discovery event — fails to bring it back.
func TestReconnectAfterRetractionNoResurrection(t *testing.T) {
	eng := core.NewShardedPassive(testCampus, []uint16{53}, 2)
	eng.SetRetention(core.RetentionPolicy{PassiveTTL: time.Hour})
	pub := NewPublisher("ret-site", eng)
	defer pub.Close()
	agg := NewAggregator()

	bld := packet.NewBuilder(0)
	svcA := testCampus.Base() + netaddr.V4(77) // will expire
	svcB := testCampus.Base() + netaddr.V4(78) // keeps chattering
	keyOfA := core.ServiceKey{Addr: svcA, Proto: packet.ProtoTCP, Port: 80}
	keyOfB := core.ServiceKey{Addr: svcB, Proto: packet.ProtoTCP, Port: 443}
	ext := netaddr.MustParseV4("64.20.0.1")
	answer := func(srv netaddr.V4, port uint16, at time.Time) {
		eng.HandleBatch([]packet.Packet{*bld.SynAck(at, packet.Endpoint{Addr: srv, Port: port},
			packet.Endpoint{Addr: ext, Port: 33000}, 9, 8)})
	}

	answer(svcA, 80, retBase)
	answer(svcB, 443, retBase)

	// First connection: bootstrap carries both services. Keep a copy of
	// the pre-expiry snapshot payload — the resurrection ammunition.
	bootstrap, live := pub.Catchup(0)
	for i := range bootstrap {
		if err := agg.Apply(&bootstrap[i]); err != nil {
			t.Fatalf("bootstrap: %v", err)
		}
	}
	staleSnap := bootstrap[1].Snapshot
	if !hasLive(agg, keyOfA) || !hasLive(agg, keyOfB) {
		t.Fatal("bootstrap did not establish both services")
	}

	// svcB chatters again past BOTH deadlines; the snapshot expires svcA
	// for good and splits svcB into a new incarnation (retraction + fresh
	// discovery — the out-of-order case the deadline guard absorbs).
	// Close the engine so the live feed drains deterministically.
	answer(svcB, 443, retBase.Add(3*time.Hour))
	eng.Snapshot()
	eng.Close()
	retracted := map[core.ServiceKey]bool{}
	for f := range live.Events() {
		if f.Type == FrameSeal {
			for _, r := range f.Snapshot.Retractions {
				retracted[r.Key] = true
			}
		}
		if err := agg.Apply(&f); err != nil {
			t.Fatalf("live frame: %v", err)
		}
	}
	if !retracted[keyOfA] {
		t.Fatal("expiry never produced a retraction for the idle service")
	}
	if hasLive(agg, keyOfA) {
		t.Fatal("service still live after retraction")
	}
	if !hasLive(agg, keyOfB) {
		t.Fatal("unexpired service lost")
	}

	// Reconnect 1: the site's current snapshot (which carries the
	// tombstone in Retractions) — svcA stays gone.
	re, reLive := pub.Catchup(0)
	reLive.Cancel()
	for i := range re {
		if err := agg.Apply(&re[i]); err != nil {
			t.Fatalf("reconnect: %v", err)
		}
	}
	if hasLive(agg, keyOfA) {
		t.Fatal("resurrected by the site's own reconnect snapshot")
	}

	// Reconnect 2: a restarted publisher epoch replays the STALE
	// pre-expiry snapshot (fresh sequence space, so no cursor saves us —
	// only the retraction semilattice can). svcA's evidence predates the
	// deadline and must stay rejected.
	stale := Frame{V: WireVersion, Type: FrameSnapshot, Site: "ret-site", Epoch: 999, Seq: 50, Snapshot: staleSnap}
	if err := agg.Apply(&stale); err != nil {
		t.Fatalf("stale snapshot: %v", err)
	}
	if hasLive(agg, keyOfA) {
		t.Fatal("resurrected by a stale pre-expiry snapshot")
	}
	if !hasLive(agg, keyOfB) {
		t.Fatal("stale snapshot clobbered the live service")
	}

	// Stale discovery event from the same restarted epoch: same verdict.
	ev := core.Event{Kind: core.EventServiceDiscovered, Time: retBase, Key: keyOfA, Provenance: core.PassiveOnly}
	evf := Frame{V: WireVersion, Type: FrameEvent, Site: "ret-site", Epoch: 999, Seq: 51, Event: &ev}
	if err := agg.Apply(&evf); err != nil {
		t.Fatalf("stale event: %v", err)
	}
	if hasLive(agg, keyOfA) {
		t.Fatal("resurrected by a stale discovery event")
	}

	// Genuinely fresh evidence at/after the deadline DOES re-establish:
	// the service really is back.
	reborn := core.Event{Kind: core.EventServiceDiscovered, Time: retBase.Add(2 * time.Hour), Key: keyOfA, Provenance: core.PassiveOnly}
	rbf := Frame{V: WireVersion, Type: FrameEvent, Site: "ret-site", Epoch: 999, Seq: 52, Event: &reborn}
	if err := agg.Apply(&rbf); err != nil {
		t.Fatalf("reborn event: %v", err)
	}
	if !hasLive(agg, keyOfA) {
		t.Fatal("post-deadline rediscovery failed to re-establish the service")
	}
}

// TestRediscoveryRacesRetraction: an engine may publish a service's
// rediscovery ahead of the seal frame that retracts the incarnation before
// it (a packet re-creates the record between the freeze that expired it and
// the seal frame). The retraction semilattice makes the order immaterial:
// evidence newer than the deadline survives the retraction, whichever the
// aggregator applies first.
func TestRediscoveryRacesRetraction(t *testing.T) {
	discovered := func(at time.Time) *core.Event {
		return &core.Event{Kind: core.EventServiceDiscovered, Time: at, Key: keyA, Provenance: core.PassiveOnly}
	}
	reborn := Frame{V: WireVersion, Type: FrameEvent, Site: "s", Epoch: 1, Event: discovered(retBase.Add(3 * time.Hour))}
	expired := Frame{V: WireVersion, Type: FrameSeal, Site: "s", Epoch: 1,
		Snapshot: &Snapshot{Retractions: []Retraction{{Key: keyA, At: retBase.Add(time.Hour), Prov: core.PassiveOnly}}}}
	var sigs [][]byte
	for _, order := range [][]Frame{{reborn, expired}, {expired, reborn}} {
		agg := NewAggregator()
		frames := append([]Frame{{V: WireVersion, Type: FrameEvent, Site: "s", Epoch: 1, Event: discovered(retBase)}}, order...)
		for i := range frames {
			frames[i].Seq = uint64(i + 1)
			if err := agg.Apply(&frames[i]); err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
		}
		if !hasLive(agg, keyA) {
			t.Fatalf("service lost when %s is applied first", order[0].Type)
		}
		sigs = append(sigs, invSignature(t, agg))
	}
	if !bytes.Equal(sigs[0], sigs[1]) {
		t.Errorf("aggregator state depends on the order:\n rediscovery first: %s\n     expiry first: %s", sigs[0], sigs[1])
	}
}

// TestCollapseTombstonesObservationClock: retraction deadlines are on the
// observation clock, which on a replayed trace lies years behind wall time,
// so the GC horizon is measured back from the newest site watermark. A
// tombstone younger than the horizon survives, an older one collapses, and
// the aggregator's state loses exactly the older one.
func TestCollapseTombstonesObservationClock(t *testing.T) {
	keyC := core.ServiceKey{Addr: netaddr.MustParseV4("128.125.3.3"), Proto: packet.ProtoTCP, Port: 22}
	agg := NewAggregator()
	frames := []Frame{
		{V: WireVersion, Type: FrameSnapshot, Site: "s", Epoch: 1, Seq: 1, Snapshot: &Snapshot{Services: []SnapshotService{
			{Key: keyA, Provenance: core.PassiveOnly, PassiveAt: retBase.Add(24 * time.Hour), Flows: 1, Clients: 1},
			{Key: keyB, Provenance: core.PassiveOnly, PassiveAt: retBase, Flows: 1, Clients: 1},
			{Key: keyC, Provenance: core.PassiveOnly, PassiveAt: retBase.Add(10 * time.Hour), Flows: 1, Clients: 1},
		}}},
		{V: WireVersion, Type: FrameSeal, Site: "s", Epoch: 1, Seq: 2, Snapshot: &Snapshot{Retractions: []Retraction{
			{Key: keyB, At: retBase.Add(time.Hour), Prov: core.PassiveOnly},
			{Key: keyC, At: retBase.Add(20 * time.Hour), Prov: core.PassiveOnly},
		}}},
	}
	for i := range frames {
		if err := agg.Apply(&frames[i]); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	before := agg.ExportState()
	if len(before.Services) != 3 || !hasLive(agg, keyA) || hasLive(agg, keyB) || hasLive(agg, keyC) {
		t.Fatalf("setup: want keyA live beside two tombstones, state %+v", before.Services)
	}
	// The watermark is +24h: a 6h horizon reaches back to +18h, past keyB's
	// deadline (+1h) but not keyC's (+20h).
	if n := agg.CollapseTombstones(6 * time.Hour); n != 1 {
		t.Fatalf("collapsed %d cells, want 1", n)
	}
	before.Services = slices.DeleteFunc(before.Services, func(s AggService) bool { return s.Key == keyB })
	want, _ := json.Marshal(before)
	got, _ := json.Marshal(agg.ExportState())
	if !bytes.Equal(got, want) {
		t.Errorf("state after GC:\n got %s\nwant %s", got, want)
	}
}
