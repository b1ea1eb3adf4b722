package federate

import (
	"bytes"
	"context"
	"fmt"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"servdisc/internal/core"
	"servdisc/internal/netaddr"
	"servdisc/internal/packet"
	"servdisc/internal/probe"
	"servdisc/internal/stats"
)

var testCampus = netaddr.MustParsePrefix("128.125.0.0/16")

// testSite is one simulated vantage point: a hybrid engine with
// deterministic pre-generated input and a publisher over it. Several sites
// share the campus space (they are different links of one campus), so a
// subset of servers is visible from every site — the cross-site dedup
// surface.
type testSite struct {
	id      SiteID
	eng     *core.Hybrid
	pub     *Publisher
	batches [][]packet.Packet
	reports []*probe.ScanReport
}

// newTestSite builds site idx with deterministic traffic: 30 servers every
// site sees, 10 servers exclusive to this site, one shared scanner and one
// site-local scanner (both over threshold), and two probe sweeps that
// create active-only services and provenance upgrades.
func newTestSite(idx, flows int) *testSite {
	id := SiteID(fmt.Sprintf("site-%d", idx))
	s := &testSite{
		id:  id,
		eng: core.NewHybrid(testCampus, []uint16{53, 123}, 4, []uint16{22, 80, 443}),
	}
	s.eng.Run(context.Background())
	s.pub = NewPublisher(id, s.eng)

	rng := stats.NewRNG(uint64(1000 + idx)).Derive("federate-test")
	bld := packet.NewBuilder(0)
	base := time.Date(2006, 12, 16, 10, 0, 0, 0, time.UTC)

	// 30 shared + 10 exclusive servers.
	servers := make([]netaddr.V4, 0, 40)
	for i := 0; i < 30; i++ {
		servers = append(servers, testCampus.Base()+netaddr.V4(256+i))
	}
	for i := 0; i < 10; i++ {
		servers = append(servers, testCampus.Base()+netaddr.V4(1000+100*idx+i))
	}
	ports := []uint16{22, 80, 443, 8080}

	var pkts []packet.Packet
	add := func(p *packet.Packet) { pkts = append(pkts, *p) }

	// Scanners: one source every site observes, one per-site source. Both
	// cross the 100/100 thresholds well before their traffic ends, so the
	// final peak tallies dominate the crossing-moment tallies.
	scanners := []netaddr.V4{
		netaddr.MustParseV4("210.9.9.9"),
		netaddr.MustParseV4("211.0.0.1") + netaddr.V4(idx),
	}
	for si, src := range scanners {
		t0 := base.Add(time.Duration(si) * time.Hour)
		for i := 0; i < 150; i++ {
			dst := testCampus.Base() + netaddr.V4(5000+i)
			add(bld.Syn(t0.Add(time.Duration(i)*time.Millisecond),
				packet.Endpoint{Addr: src, Port: 40000}, packet.Endpoint{Addr: dst, Port: 80}, uint32(i)))
			if i < 120 {
				add(bld.Rst(t0.Add(time.Duration(i)*time.Millisecond+500*time.Microsecond),
					packet.Endpoint{Addr: dst, Port: 80}, packet.Endpoint{Addr: src, Port: 40000}, uint32(i)))
			}
		}
	}

	// Client flows: SYN-ACKs from the servers, spread over six hours.
	ext := netaddr.MustParseV4("64.10.0.0")
	for i := 0; i < flows; i++ {
		at := base.Add(time.Duration(float64(6*time.Hour) * float64(i) / float64(flows)))
		srv := servers[rng.Intn(len(servers))]
		cli := ext + netaddr.V4(rng.Intn(4000))
		port := ports[rng.Intn(len(ports))]
		add(bld.SynAck(at, packet.Endpoint{Addr: srv, Port: port},
			packet.Endpoint{Addr: cli, Port: 33000}, 9, 8))
		if i%7 == 0 { // some UDP services too
			add(bld.UDPPacket(at, packet.Endpoint{Addr: srv, Port: 53},
				packet.Endpoint{Addr: cli, Port: 34000}, []byte("x")))
		}
	}
	for len(pkts) > 0 {
		n := 64
		if n > len(pkts) {
			n = len(pkts)
		}
		s.batches = append(s.batches, pkts[:n])
		pkts = pkts[n:]
	}

	// Two sweeps: confirm some passively-seen servers (upgrades) and find
	// probe-only services on otherwise silent addresses.
	for sweep := 0; sweep < 2; sweep++ {
		started := base.Add(time.Duration(sweep)*3*time.Hour + 30*time.Minute)
		rep := &probe.ScanReport{ID: idx*100 + sweep, Started: started, Finished: started.Add(20 * time.Minute)}
		for i := 0; i < 10; i++ {
			rep.TCP = append(rep.TCP, probe.TCPResult{
				Time: started.Add(time.Duration(i) * time.Second),
				Addr: servers[i*3], Port: 22, State: probe.StateOpen,
			})
		}
		// Active-only: addresses passive monitoring never sees.
		for i := 0; i < 5; i++ {
			rep.TCP = append(rep.TCP, probe.TCPResult{
				Time: started.Add(time.Minute + time.Duration(i)*time.Second),
				Addr: testCampus.Base() + netaddr.V4(9000+100*idx+i), Port: 443, State: probe.StateOpen,
			})
		}
		s.reports = append(s.reports, rep)
	}
	return s
}

// produce feeds the site's entire input to its engine, interleaving scan
// reports between packet batches.
func (s *testSite) produce() { s.producePaced(func() {}) }

// producePaced is produce with a pause after every batch, for scenarios
// that need the feed to keep up with production.
func (s *testSite) producePaced(pause func()) {
	for i, b := range s.batches {
		s.eng.HandleBatch(b)
		for r := range s.reports {
			if i == (r+1)*len(s.batches)/(len(s.reports)+1) {
				s.eng.AddReport(s.reports[r])
			}
		}
		pause()
	}
}

// finish closes the engine (ending the publisher's stream) and performs
// the final catch-up attach every scenario ends with — the equivalent of
// an aggregator reconnecting after the site quiesced.
func (s *testSite) finish(agg *Aggregator) {
	s.eng.Close()
	<-agg.Attach(s.pub)
}

// partialFeed consumes the publisher's bootstrap plus at most maxEvents
// live frames, then drops the connection — a feed that dies mid-stream.
func partialFeed(agg *Aggregator, pub *Publisher, maxEvents int) <-chan struct{} {
	bootstrap, live := pub.Catchup(0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := range bootstrap {
			_ = agg.Apply(&bootstrap[i])
		}
		n := 0
		for f := range live.Events() {
			_ = agg.Apply(&f)
			if n++; n >= maxEvents {
				live.Cancel()
				return
			}
		}
	}()
	return done
}

// runScenario executes one federation choreography over nSites freshly
// built sites and returns the aggregator's final canonical dump. Every
// scenario ends the same way — engines closed, one final catch-up per
// site — so the dumps of different interleavings are comparable.
func runScenario(nSites, flows int, choreography func(sites []*testSite, agg *Aggregator)) ([]byte, *Aggregator) {
	agg := NewAggregator()
	sites := make([]*testSite, nSites)
	for i := range sites {
		sites[i] = newTestSite(i, flows)
	}
	choreography(sites, agg)
	for _, s := range sites {
		s.finish(agg)
	}
	return agg.Dump(), agg
}

// TestAggregatorConvergence is the federation determinism property: for
// the same site inputs, the global Dump is byte-identical whether the
// aggregator was attached before ingest (racing the live producers),
// attached mid-stream, attached only after the fact (snapshot-only
// bootstrap), or suffered a dropped-and-reconnected feed — at 1, 2 and 4
// sites.
func TestAggregatorConvergence(t *testing.T) {
	const flows = 1500
	for _, nSites := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("sites=%d", nSites), func(t *testing.T) {
			scenarios := map[string]func(sites []*testSite, agg *Aggregator){
				"live-race": func(sites []*testSite, agg *Aggregator) {
					for _, s := range sites {
						agg.Attach(s.pub)
					}
					var wg sync.WaitGroup
					for _, s := range sites {
						wg.Add(1)
						go func(s *testSite) { defer wg.Done(); s.produce() }(s)
					}
					wg.Wait()
				},
				"mid-stream": func(sites []*testSite, agg *Aggregator) {
					var wg sync.WaitGroup
					for i, s := range sites {
						wg.Add(1)
						go func(i int, s *testSite) {
							defer wg.Done()
							half := len(s.batches) / 2
							for j, b := range s.batches[:half] {
								s.eng.HandleBatch(b)
								_ = j
							}
							agg.Attach(s.pub) // catch up mid-production, then stream live
							for _, b := range s.batches[half:] {
								s.eng.HandleBatch(b)
							}
							for _, r := range s.reports {
								s.eng.AddReport(r)
							}
						}(i, s)
					}
					wg.Wait()
				},
				"snapshot-only": func(sites []*testSite, agg *Aggregator) {
					var wg sync.WaitGroup
					for _, s := range sites {
						wg.Add(1)
						go func(s *testSite) { defer wg.Done(); s.produce() }(s)
					}
					wg.Wait()
					// No live attach at all: sites[i].finish() delivers the
					// final snapshot as the only feed content.
				},
				"drop-and-resume": func(sites []*testSite, agg *Aggregator) {
					drops := make([]<-chan struct{}, len(sites))
					for i, s := range sites {
						drops[i] = partialFeed(agg, s.pub, 10)
					}
					var wg sync.WaitGroup
					for _, s := range sites {
						wg.Add(1)
						go func(s *testSite) { defer wg.Done(); s.produce() }(s)
					}
					wg.Wait()
					for _, d := range drops {
						<-d
					}
					// Resume every feed; its snapshot dedups what the dropped
					// connection already delivered.
					for _, s := range sites {
						agg.Attach(s.pub)
					}
				},
			}

			var wantDump []byte
			var wantName string
			for name, ch := range scenarios {
				dump, agg := runScenario(nSites, flows, ch)
				if wantDump == nil {
					wantDump, wantName = dump, name
					// Sanity: the global inventory is populated.
					if agg.NumServices() == 0 {
						t.Fatalf("%s: empty global inventory", name)
					}
					continue
				}
				if !bytes.Equal(dump, wantDump) {
					t.Errorf("dump of %q diverges from %q:\n%s\n--- vs ---\n%s",
						name, wantName, firstDiff(dump, wantDump), wantName)
				}
			}
		})
	}
}

// firstDiff renders the first differing line of two dumps for diagnostics.
func firstDiff(a, b []byte) string {
	al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; i < len(al) && i < len(bl); i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return fmt.Sprintf("line %d:\n  a: %s\n  b: %s", i, al[i], bl[i])
		}
	}
	return fmt.Sprintf("length differs: %d vs %d lines", len(al), len(bl))
}

// TestCrossSiteDedup pins the aggregation semantics at two sites: a
// service seen from both vantage points is one global record listing both
// sites, site-exclusive services list one.
func TestCrossSiteDedup(t *testing.T) {
	dump, agg := runScenario(2, 1200, func(sites []*testSite, agg *Aggregator) {
		for _, s := range sites {
			agg.Attach(s.pub)
		}
		for _, s := range sites {
			s.produce()
		}
	})
	var both, single int
	for _, g := range agg.Services() {
		switch len(g.Sites) {
		case 2:
			both++
		case 1:
			single++
		default:
			t.Fatalf("service %s has %d site records", g.Key, len(g.Sites))
		}
	}
	if both == 0 {
		t.Error("no cross-site deduplicated services (shared servers should be seen by both sites)")
	}
	if single == 0 {
		t.Error("no site-exclusive services (each site has exclusive servers)")
	}
	// The shared scanner is one global entry with two per-site views.
	if !bytes.Contains(dump, []byte("scanner 210.9.9.9 sites=2")) {
		t.Errorf("shared scanner not deduplicated across sites:\n%s", dump)
	}
	stats := agg.Stats()
	if len(stats) != 2 {
		t.Fatalf("expected 2 sites, got %d", len(stats))
	}
	for _, st := range stats {
		if st.Services == 0 || st.Packets == 0 || st.Scans != 2 {
			t.Errorf("site %s stats look wrong: %+v", st.Site, st)
		}
	}
}

// TestAggregatorReconnectNoDuplicates proves the catch-up dedup: after a
// feed is dropped mid-stream and resumed (snapshot + overlapping events),
// the aggregator's global stream has emitted ServiceDiscovered at most
// once per service.
func TestAggregatorReconnectNoDuplicates(t *testing.T) {
	agg := NewAggregator()
	sub := agg.Subscribe(1 << 16)
	site := newTestSite(0, 1200)

	// First connection dies after a handful of events.
	drop := partialFeed(agg, site.pub, 15)
	half := len(site.batches) / 2
	for _, b := range site.batches[:half] {
		site.eng.HandleBatch(b)
	}
	site.eng.AddReport(site.reports[0])
	<-drop

	// Feed resumes twice over: a fresh snapshot plus live events on each
	// connection, overlapping both the dead connection's deliveries and
	// each other — the worst case for double counting.
	resumed := agg.Attach(site.pub)
	resumed2 := agg.Attach(site.pub)
	for _, b := range site.batches[half:] {
		site.eng.HandleBatch(b)
	}
	site.eng.AddReport(site.reports[1])
	site.eng.Close()
	<-resumed
	<-resumed2
	site.finish(agg)
	agg.Close()

	seen := make(map[core.ServiceKey]int)
	for ge := range sub.Events() {
		if ge.Event.Kind == core.EventServiceDiscovered {
			seen[ge.Event.Key]++
		}
	}
	if sub.Dropped() != 0 {
		t.Fatalf("global event subscriber dropped %d events; grow the buffer", sub.Dropped())
	}
	for key, n := range seen {
		if n > 1 {
			t.Errorf("service %s discovered %d times globally; want exactly once", key, n)
		}
	}
	if len(seen) != agg.NumServices() {
		t.Errorf("global stream announced %d services, inventory holds %d", len(seen), agg.NumServices())
	}
	// And the dedup cursor actually skipped the overlap.
	st := agg.Stats()[0]
	if st.DupEvents == 0 {
		t.Errorf("expected generation-deduplicated events on reconnect, got %+v", st)
	}
}

// TestSameGenerationSnapshotRecoversDroppedState pins the same-generation
// recovery path: a catchup reads the stream generation before it freezes
// the engine, so a discovery sequenced between the two, or a weight that
// moved with no event at all, arrives in a snapshot carrying the SAME
// generation as the one before — which must be re-merged, not skipped as
// a duplicate.
func TestSameGenerationSnapshotRecoversDroppedState(t *testing.T) {
	base := time.Date(2006, 12, 16, 10, 0, 0, 0, time.UTC)
	keyA, keyB := testKey(0x807D0101, 6, 80), testKey(0x807D0102, 6, 443)
	snapFrame := func(svcs ...SnapshotService) *Frame {
		return &Frame{V: WireVersion, Type: FrameSnapshot, Site: "east", Seq: 5,
			Snapshot: &Snapshot{Services: svcs, Packets: 100}}
	}
	agg := NewAggregator()
	if err := agg.Apply(snapFrame(
		SnapshotService{Key: keyA, Provenance: core.PassiveOnly, PassiveAt: base, Flows: 1, Clients: 1},
	)); err != nil {
		t.Fatal(err)
	}
	// Same generation, more state: keyB's discovery event was sequenced
	// past the generation this snapshot was cut at.
	if err := agg.Apply(snapFrame(
		SnapshotService{Key: keyA, Provenance: core.PassiveOnly, PassiveAt: base, Flows: 2, Clients: 1},
		SnapshotService{Key: keyB, Provenance: core.PassiveOnly, PassiveAt: base.Add(time.Minute), Flows: 1, Clients: 1},
	)); err != nil {
		t.Fatal(err)
	}
	if n := agg.NumServices(); n != 2 {
		t.Fatalf("same-generation snapshot was skipped: %d services, want 2", n)
	}
	for _, g := range agg.Services() {
		if g.Key == keyA && g.Sites[0].Flows != 2 {
			t.Errorf("keyA flows=%d, want the re-merged 2", g.Sites[0].Flows)
		}
	}
}

// TestPublisherRestartNewEpoch pins the restart protocol: a restarted
// publisher's sequence numbers start over in a fresh epoch, and the
// aggregator must merge the new incarnation's feed instead of discarding
// it as duplicates of the old cursors.
func TestPublisherRestartNewEpoch(t *testing.T) {
	base := time.Date(2006, 12, 16, 10, 0, 0, 0, time.UTC)
	keyA, keyB := testKey(0x807D0101, 6, 80), testKey(0x807D0102, 6, 443)
	agg := NewAggregator()
	// First incarnation: snapshot at a high generation, plus live events.
	if err := agg.Apply(&Frame{V: WireVersion, Type: FrameSnapshot, Site: "east", Epoch: 1, Seq: 900,
		Snapshot: &Snapshot{Services: []SnapshotService{
			{Key: keyA, Provenance: core.PassiveOnly, PassiveAt: base, Flows: 5, Clients: 2},
		}, Packets: 500}}); err != nil {
		t.Fatal(err)
	}
	// Restarted publisher: new epoch, sequence space starts over. Its
	// snapshot generation (2) and event seqs (3) are far below the old
	// cursors — they must be applied anyway.
	if err := agg.Apply(&Frame{V: WireVersion, Type: FrameSnapshot, Site: "east", Epoch: 2, Seq: 2,
		Snapshot: &Snapshot{Services: []SnapshotService{
			{Key: keyA, Provenance: core.PassiveOnly, PassiveAt: base, Flows: 7, Clients: 3},
		}, Packets: 120}}); err != nil {
		t.Fatal(err)
	}
	ev := core.Event{Kind: core.EventServiceDiscovered, Time: base.Add(time.Hour), Key: keyB, Provenance: core.PassiveOnly}
	if err := agg.Apply(&Frame{V: WireVersion, Type: FrameEvent, Site: "east", Epoch: 2, Seq: 3, Event: &ev}); err != nil {
		t.Fatal(err)
	}
	if n := agg.NumServices(); n != 2 {
		t.Fatalf("restarted feed was discarded as duplicates: %d services, want 2", n)
	}
	st := agg.Stats()[0]
	if st.DupEvents != 0 {
		t.Errorf("new-epoch event counted as duplicate: %+v", st)
	}
	for _, g := range agg.Services() {
		if g.Key == keyA && g.Sites[0].Flows != 7 {
			t.Errorf("keyA flows=%d, want the new incarnation's 7 max-merged", g.Sites[0].Flows)
		}
	}
}

// TestUpgradeFirstAnnouncesGlobally pins the lost-discovery edge: when a
// key's first frame at the aggregator is a ProvenanceUpgraded event (its
// ServiceDiscovered was dropped by the bounded feed), the global stream
// must still announce the service — once.
func TestUpgradeFirstAnnouncesGlobally(t *testing.T) {
	base := time.Date(2006, 12, 16, 10, 0, 0, 0, time.UTC)
	key := testKey(0x807D0101, 6, 80)
	agg := NewAggregator()
	sub := agg.Subscribe(16)
	up := core.Event{Kind: core.EventProvenanceUpgraded, Time: base, Key: key, Provenance: core.PassiveFirst}
	if err := agg.Apply(&Frame{V: WireVersion, Type: FrameEvent, Site: "east", Seq: 2, Event: &up}); err != nil {
		t.Fatal(err)
	}
	// A later snapshot re-reports the key; it must not announce again.
	if err := agg.Apply(&Frame{V: WireVersion, Type: FrameSnapshot, Site: "east", Seq: 3,
		Snapshot: &Snapshot{Services: []SnapshotService{
			{Key: key, Provenance: core.PassiveFirst, PassiveAt: base.Add(-time.Minute), ActiveAt: base},
		}}}); err != nil {
		t.Fatal(err)
	}
	agg.Close()
	var announced int
	for ge := range sub.Events() {
		if ge.Event.Kind == core.EventServiceDiscovered && ge.Event.Key == key {
			announced++
		}
	}
	if announced != 1 {
		t.Fatalf("upgrade-first service announced %d times globally, want exactly 1", announced)
	}
}

// TestUpgradeCarriesBothFirstTimes pins what an upgrade says on the wire:
// applied before any snapshot, after its discovery or with the discovery
// lost, it lands both techniques' first times on the site's dump line —
// the event's Time alone cannot say whose time it is (here the active one
// for the first key, the passive one for the second).
func TestUpgradeCarriesBothFirstTimes(t *testing.T) {
	base := time.Date(2006, 12, 16, 10, 0, 0, 0, time.UTC)
	seen, lost := testKey(0x807D0101, 6, 80), testKey(0x807D0102, 6, 443)
	events := []core.Event{
		{Kind: core.EventServiceDiscovered, Time: base, Key: seen, Provenance: core.PassiveOnly},
		{Kind: core.EventProvenanceUpgraded, Time: base.Add(time.Minute), Key: seen, Provenance: core.PassiveFirst,
			PassiveAt: base, ActiveAt: base.Add(time.Minute)},
		{Kind: core.EventProvenanceUpgraded, Time: base.Add(2 * time.Minute), Key: lost, Provenance: core.ActiveFirst,
			PassiveAt: base.Add(2 * time.Minute), ActiveAt: base.Add(-time.Hour)},
	}
	frames := []Frame{{V: WireVersion, Type: FrameHello, Site: "east"}}
	for i := range events {
		frames = append(frames, Frame{V: WireVersion, Type: FrameEvent, Site: "east", Seq: uint64(2 * (i + 1)), Event: &events[i]})
	}
	agg := NewAggregator()
	dec := NewDecoder(bytes.NewReader(encodeFrames(t, frames...)))
	for range frames {
		f, err := dec.Decode()
		if err != nil {
			t.Fatal(err)
		}
		if err := agg.Apply(f); err != nil {
			t.Fatal(err)
		}
	}
	dump := string(agg.Dump())
	for _, want := range []string{
		"first=2006-12-16T10:00:00Z\n  east passive-first passive=2006-12-16T10:00:00Z flows=0 clients=0 active=2006-12-16T10:01:00Z\n",
		"first=2006-12-16T09:00:00Z\n  east active-first passive=2006-12-16T10:02:00Z flows=0 clients=0 active=2006-12-16T09:00:00Z\n",
	} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump lacks %q:\n%s", want, dump)
		}
	}
}

// TestSealFrameShipsChangedRows pins what a seal frame carries and how it
// dedups: one re-observed service makes the next seal frame hold exactly
// that service's row, with its new weight, beside the packet count; and a
// seal frame at or below the reader's cursor is counted as a duplicate.
func TestSealFrameShipsChangedRows(t *testing.T) {
	eng := core.NewShardedPassive(testCampus, nil, 2)
	pub := NewPublisherOpts("seal-site", eng, PublisherOptions{Heartbeat: -1})
	defer pub.Close()
	bld := packet.NewBuilder(0)
	synAck := func(i int, at time.Time) []packet.Packet {
		return []packet.Packet{*bld.SynAck(at, packet.Endpoint{Addr: testCampus.Base() + netaddr.V4(80+i), Port: 80},
			packet.Endpoint{Addr: netaddr.MustParseV4("64.20.0.1"), Port: 33000}, 9, 8)}
	}
	for i := 0; i < 3; i++ {
		eng.HandleBatch(synAck(i, retBase))
	}
	bootstrap, live := pub.Catchup(0)
	defer live.Cancel()
	agg := NewAggregator()
	for i := range bootstrap {
		if err := agg.Apply(&bootstrap[i]); err != nil {
			t.Fatal(err)
		}
	}

	eng.HandleBatch(synAck(1, retBase.Add(time.Minute)))
	eng.Snapshot()
	var seal Frame
	for seal.Type != FrameSeal {
		select {
		case seal = <-live.Events():
			if err := agg.Apply(&seal); err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("no seal frame after the snapshot")
		}
	}
	s := seal.Snapshot
	reobserved := core.ServiceKey{Addr: testCampus.Base() + 81, Proto: packet.ProtoTCP, Port: 80}
	if len(s.Services) != 1 || s.Services[0].Key != reobserved || s.Services[0].Flows != 2 ||
		len(s.Scanners)+len(s.Scans)+len(s.Retractions) != 0 || s.Packets != 4 {
		t.Fatalf("seal frame carries %+v, want one row for the re-observed service with flows 2, and packets 4", *s)
	}

	dups := agg.Stats()[0].DupEvents
	again, older := seal, seal
	older.Seq--
	for _, f := range []*Frame{&again, &older} {
		if err := agg.Apply(f); err != nil {
			t.Fatal(err)
		}
	}
	if got := agg.Stats()[0].DupEvents - dups; got != 2 {
		t.Errorf("a replayed seal frame and an older one counted %d duplicates, want 2", got)
	}

	// On a hybrid engine a one-key sweep report seals as its one probed
	// row, not as the 1 000 passive services beside it.
	h := core.NewHybrid(testCampus, nil, 2, nil)
	hpub := NewPublisherOpts("seal-hybrid", h, PublisherOptions{Heartbeat: -1})
	defer hpub.Close()
	var fill []packet.Packet
	for i := 0; i < 1000; i++ {
		fill = append(fill, synAck(i, retBase)...)
	}
	h.HandleBatch(fill)
	_, hlive := hpub.Catchup(0)
	defer hlive.Cancel()
	probed := core.ServiceKey{Addr: testCampus.Base() + 2000, Proto: packet.ProtoTCP, Port: 22}
	at := retBase.Add(time.Minute)
	h.AddReport(&probe.ScanReport{ID: 1, Started: at, Finished: at,
		TCP: []probe.TCPResult{{Time: at, Addr: probed.Addr, Port: probed.Port, State: probe.StateOpen}}})
	h.Snapshot()
	for seal.Type = ""; seal.Type != FrameSeal; {
		select {
		case seal = <-hlive.Events():
		case <-time.After(5 * time.Second):
			t.Fatal("no seal frame after the hybrid snapshot")
		}
	}
	if s := seal.Snapshot; len(s.Services) != 1 || s.Services[0].Key != probed || s.Services[0].Provenance != core.ActiveOnly {
		t.Fatalf("seal frame after a one-key report carries %d rows, want the active-only row of %v alone", len(s.Services), probed)
	}
}

// weightFields are the dump's tallies that ride only in snapshot and seal
// frames: a service's and a site's weights, and a scanner's peak window
// counts (its event carries the counts at the crossing).
var weightFields = regexp.MustCompile(` (flows|clients|packets|dsts|rsts)=\d+`)

// divergence names, line by line, how a wire-fed dump parts from the
// reference, in the classes ROADMAP direction 1 counts: "weights only" (the
// lines agree once the snapshot-only tallies are stripped), "active= missing"
// or "passive= missing" (the wire-fed line lacks a per-technique time the
// reference has), "other" — so the log of a flaky run says which gap it hit.
// It shows the first three lines of each class and the total of each.
func divergence(got, want []byte) string {
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	var b strings.Builder
	count := map[string]int{}
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g == w {
			continue
		}
		class := "other"
		switch {
		case weightFields.ReplaceAllString(g, "") == weightFields.ReplaceAllString(w, ""):
			class = "weights only"
		case strings.Contains(w, " active=") && !strings.Contains(g, " active="):
			class = "active= missing"
		case strings.Contains(w, " passive=") && !strings.Contains(g, " passive="):
			class = "passive= missing"
		}
		if count[class]++; count[class] <= 3 {
			fmt.Fprintf(&b, "line %d, %s:\n  got:  %s\n  want: %s\n", i, class, g, w)
		}
	}
	fmt.Fprintf(&b, "divergent lines by class: %v", count)
	return b.String()
}

// BenchmarkAggregatorIngest measures aggregator merge throughput —
// events/s over pre-decoded frames — at 1, 2 and 4 concurrently applying
// site feeds, the acceptance metric of the federation subsystem.
// benchFeeds builds nSites deterministic event streams of eventsPerSite
// frames each: ~1/4 upgrades, 3/4 discoveries, across 10k keys/site.
func benchFeeds(nSites, eventsPerSite int) [][]Frame {
	base := time.Date(2006, 12, 16, 10, 0, 0, 0, time.UTC)
	feeds := make([][]Frame, nSites)
	for s := range feeds {
		frames := make([]Frame, 0, eventsPerSite)
		for i := 0; i < eventsPerSite; i++ {
			key := core.ServiceKey{
				Addr:  testCampus.Base() + netaddr.V4(i%10000),
				Proto: packet.ProtoTCP,
				Port:  uint16(22 + i%5),
			}
			ev := core.Event{Time: base.Add(time.Duration(i) * time.Millisecond), Key: key}
			if i%4 == 3 {
				ev.Kind, ev.Provenance = core.EventProvenanceUpgraded, core.PassiveFirst
			} else {
				ev.Kind, ev.Provenance = core.EventServiceDiscovered, core.PassiveOnly
			}
			frames = append(frames, Frame{
				V: WireVersion, Type: FrameEvent,
				Site: SiteID(fmt.Sprintf("site-%d", s)), Seq: uint64(i + 1), Event: &ev,
			})
		}
		feeds[s] = frames
	}
	return feeds
}

// ingestLadder is the fleet-size ladder both ingest benchmarks climb:
// events per site shrink as the fleet grows so each rung stays a
// comparable (and CI-affordable) amount of total work.
var ingestLadder = []struct{ sites, events int }{
	{1, 50000}, {2, 50000}, {4, 50000},
	{16, 8000}, {64, 2000}, {256, 500},
}

func BenchmarkAggregatorIngest(b *testing.B) {
	for _, rung := range ingestLadder {
		b.Run(fmt.Sprintf("sites=%d", rung.sites), func(b *testing.B) {
			feeds := benchFeeds(rung.sites, rung.events)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				agg := NewAggregator()
				var wg sync.WaitGroup
				for s := range feeds {
					wg.Add(1)
					go func(frames []Frame) {
						defer wg.Done()
						for j := range frames {
							_ = agg.Apply(&frames[j])
						}
					}(feeds[s])
				}
				wg.Wait()
			}
			b.StopTimer()
			total := float64(rung.events*rung.sites) * float64(b.N)
			b.ReportMetric(total/b.Elapsed().Seconds(), "events/s")
		})
	}
}
