package capture

import (
	"bytes"
	"context"
	"testing"
	"time"

	"servdisc/internal/netaddr"
	"servdisc/internal/packet"
	"servdisc/internal/pipeline"
	"servdisc/internal/trace"
)

var (
	campusPfx = netaddr.MustParsePrefix("128.125.0.0/16")
	server    = netaddr.MustParseV4("128.125.7.9")
	client    = netaddr.MustParseV4("64.1.2.3")
	academic  = netaddr.MustParseV4("192.12.0.5")
	tRef      = time.Date(2006, 9, 19, 10, 0, 0, 0, time.UTC)
	bld       = packet.NewBuilder(0)
)

func synAckTo(dst netaddr.V4, at time.Time) *packet.Packet {
	return bld.SynAck(at, packet.Endpoint{Addr: server, Port: 80}, packet.Endpoint{Addr: dst, Port: 40000}, 1, 2)
}

// one wraps a packet as a one-packet batch.
func one(p *packet.Packet) []packet.Packet { return []packet.Packet{*p} }

// collectSink gathers delivered packets for assertions.
type collectSink struct {
	pkts []packet.Packet
}

func (c *collectSink) HandleBatch(batch []packet.Packet) {
	c.pkts = append(c.pkts, batch...)
}

func TestAssignerRouting(t *testing.T) {
	a := NewAssigner(campusPfx, []netaddr.V4{academic})
	if got := a.Route(synAckTo(academic, tRef)); got != LinkInternet2 {
		t.Errorf("academic peer routed to %v", got)
	}
	// Commercial routing is deterministic per external address.
	l1 := a.Route(synAckTo(client, tRef))
	l2 := a.Route(synAckTo(client, tRef.Add(time.Hour)))
	if l1 != l2 {
		t.Error("routing not deterministic")
	}
	if l1 == LinkInternet2 {
		t.Error("non-academic peer on Internet2")
	}
	// The split should use both commercial links across many clients.
	counts := map[LinkID]int{}
	for i := 0; i < 3000; i++ {
		p := synAckTo(client+netaddr.V4(i*7), tRef)
		counts[a.Route(p)]++
	}
	if counts[LinkCommercial1] == 0 || counts[LinkCommercial2] == 0 {
		t.Fatalf("commercial split = %v", counts)
	}
	ratio := float64(counts[LinkCommercial1]) / float64(counts[LinkCommercial2])
	if ratio < 1.5 || ratio > 2.6 {
		t.Errorf("C1:C2 ratio = %.2f, want ~2", ratio)
	}
}

func TestTapFilterAndCounts(t *testing.T) {
	sink := &collectSink{}
	tap, err := NewTap(LinkCommercial1, PaperFilter, nil, sink)
	if err != nil {
		t.Fatal(err)
	}
	// SYN-ACK passes; a bare ACK does not.
	tap.HandleBatch(one(synAckTo(client, tRef)))
	ack := bld.TCPPacket(tRef, packet.Endpoint{Addr: server, Port: 80},
		packet.Endpoint{Addr: client, Port: 40000}, packet.FlagACK, 1, 2, nil)
	tap.HandleBatch(one(ack))
	if len(sink.pkts) != 1 {
		t.Fatalf("delivered %d packets", len(sink.pkts))
	}
	if tap.Seen() != 2 || tap.Matched() != 1 || tap.Delivered() != 1 {
		t.Errorf("counts = %d/%d/%d", tap.Seen(), tap.Matched(), tap.Delivered())
	}
	if c := tap.Counters(); c.Dropped() != 1 {
		t.Errorf("dropped = %d", c.Dropped())
	}
}

func TestTapHandleBatchMatchesPerPacket(t *testing.T) {
	mkBatch := func() []packet.Packet {
		var batch []packet.Packet
		for i := 0; i < 40; i++ {
			p := synAckTo(client+netaddr.V4(i), tRef.Add(time.Duration(i)*time.Second))
			if i%4 == 3 { // every fourth packet is a non-matching ACK
				p = bld.TCPPacket(p.Timestamp, packet.Endpoint{Addr: server, Port: 80},
					packet.Endpoint{Addr: client, Port: 40000}, packet.FlagACK, 1, 2, nil)
			}
			batch = append(batch, *p)
		}
		return batch
	}

	batchSink := &collectSink{}
	batchTap, err := NewTap(LinkCommercial1, PaperFilter, NewFixedWindowSampler(tRef, 30*time.Minute), batchSink)
	if err != nil {
		t.Fatal(err)
	}
	batchTap.HandleBatch(mkBatch())

	pktSink := &collectSink{}
	pktTap, err := NewTap(LinkCommercial1, PaperFilter, NewFixedWindowSampler(tRef, 30*time.Minute), pktSink)
	if err != nil {
		t.Fatal(err)
	}
	batch := mkBatch()
	for i := range batch {
		pktTap.HandleBatch(batch[i : i+1])
	}

	if len(batchSink.pkts) != len(pktSink.pkts) {
		t.Fatalf("batch path delivered %d, per-packet path %d", len(batchSink.pkts), len(pktSink.pkts))
	}
	for i := range batchSink.pkts {
		if batchSink.pkts[i].IPv4.Dst != pktSink.pkts[i].IPv4.Dst {
			t.Fatalf("packet %d differs between paths", i)
		}
	}
	if batchTap.Seen() != pktTap.Seen() || batchTap.Matched() != pktTap.Matched() ||
		batchTap.Delivered() != pktTap.Delivered() {
		t.Errorf("counter mismatch: batch %d/%d/%d vs per-packet %d/%d/%d",
			batchTap.Seen(), batchTap.Matched(), batchTap.Delivered(),
			pktTap.Seen(), pktTap.Matched(), pktTap.Delivered())
	}
}

func TestMonitorDropsUnmonitoredLink(t *testing.T) {
	a := NewAssigner(campusPfx, []netaddr.V4{academic})
	delivered := 0
	tapC1, err := NewTap(LinkCommercial1, "", nil, pipeline.BatchFunc(func(b []packet.Packet) { delivered += len(b) }))
	if err != nil {
		t.Fatal(err)
	}
	m := NewMonitor(a, tapC1)
	m.HandleBatch(one(synAckTo(academic, tRef))) // I2: unmonitored
	if m.Dropped() != 1 || delivered != 0 {
		t.Errorf("dropped=%d delivered=%d", m.Dropped(), delivered)
	}
	// Find a client that routes to C1.
	for i := 0; i < 100; i++ {
		c := client + netaddr.V4(i)
		if a.Route(synAckTo(c, tRef)) == LinkCommercial1 {
			m.HandleBatch(one(synAckTo(c, tRef)))
			break
		}
	}
	if delivered != 1 {
		t.Errorf("delivered = %d", delivered)
	}
}

func TestMonitorBatchRoutingAndMirrors(t *testing.T) {
	a := NewAssigner(campusPfx, []netaddr.V4{academic})
	c1, c2, mirror := &collectSink{}, &collectSink{}, &collectSink{}
	tap1, err := NewTap(LinkCommercial1, "", nil, c1)
	if err != nil {
		t.Fatal(err)
	}
	tap2, err := NewTap(LinkCommercial2, "", nil, c2)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMonitor(a, tap1, tap2)
	m.AddMirror(mirror)

	var batch []packet.Packet
	batch = append(batch, *synAckTo(academic, tRef)) // dropped: unmonitored I2
	for i := 0; i < 30; i++ {
		batch = append(batch, *synAckTo(client+netaddr.V4(i*7), tRef.Add(time.Duration(i)*time.Second)))
	}
	m.HandleBatch(batch)

	if m.Dropped() != 1 {
		t.Errorf("dropped = %d", m.Dropped())
	}
	if got := len(c1.pkts) + len(c2.pkts); got != 30 {
		t.Errorf("taps saw %d packets, want 30", got)
	}
	if len(mirror.pkts) != 30 {
		t.Errorf("mirror saw %d packets, want 30 (monitored only)", len(mirror.pkts))
	}
	// Mirror preserves arrival order of the monitored sub-batch.
	for i := 1; i < len(mirror.pkts); i++ {
		if mirror.pkts[i].Timestamp.Before(mirror.pkts[i-1].Timestamp) {
			t.Fatal("mirror reordered packets")
		}
	}
}

func TestMonitorSharedSinkPreservesOrder(t *testing.T) {
	// When one sink is behind several taps (the experiments' merged
	// discoverer), batched delivery must preserve global arrival order
	// even for batches interleaving links — otherwise FirstSeen and the
	// activity trail diverge from a per-packet run.
	a := NewAssigner(campusPfx, nil)
	shared := &collectSink{}
	tap1, err := NewTap(LinkCommercial1, "", nil, shared)
	if err != nil {
		t.Fatal(err)
	}
	tap2, err := NewTap(LinkCommercial2, "", nil, shared)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMonitor(a, tap1, tap2)

	// Find clients on different links, then interleave them.
	var c1, c2 netaddr.V4
	for i := 0; i < 200 && (c1 == 0 || c2 == 0); i++ {
		c := client + netaddr.V4(i)
		if a.Route(synAckTo(c, tRef)) == LinkCommercial1 {
			if c1 == 0 {
				c1 = c
			}
		} else if c2 == 0 {
			c2 = c
		}
	}
	if c1 == 0 || c2 == 0 {
		t.Fatal("could not find clients on both links")
	}
	var batch []packet.Packet
	for i := 0; i < 20; i++ {
		dst := c1
		if i%2 == 1 {
			dst = c2
		}
		batch = append(batch, *synAckTo(dst, tRef.Add(time.Duration(i)*time.Second)))
	}
	m.HandleBatch(batch)
	if len(shared.pkts) != 20 {
		t.Fatalf("shared sink got %d packets", len(shared.pkts))
	}
	for i := range shared.pkts {
		if !shared.pkts[i].Timestamp.Equal(batch[i].Timestamp) {
			t.Fatalf("packet %d out of order: %v", i, shared.pkts[i].Timestamp)
		}
	}
}

func TestReplayBatchedCancel(t *testing.T) {
	var buf bytes.Buffer
	w := trace.NewWriter(&buf, trace.LinkTypeRaw, 128)
	rec := NewRecorder(w)
	for i := 0; i < 10; i++ {
		rec.HandleBatch(one(synAckTo(client+netaddr.V4(i), tRef.Add(time.Duration(i)*time.Second))))
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := trace.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n, err := ReplayBatched(ctx, r, &collectSink{}, 4)
	if err == nil || n != 0 {
		t.Fatalf("cancelled replay delivered %d packets, err=%v", n, err)
	}
}

func TestFixedWindowSampler(t *testing.T) {
	s := NewFixedWindowSampler(tRef, 10*time.Minute)
	cases := []struct {
		off  time.Duration
		want bool
	}{
		{0, true},
		{9*time.Minute + 59*time.Second, true},
		{10 * time.Minute, false},
		{59 * time.Minute, false},
		{time.Hour, true},
		{time.Hour + 15*time.Minute, false},
		{25*time.Hour + 5*time.Minute, true},
	}
	for _, c := range cases {
		p := synAckTo(client, tRef.Add(c.off))
		if got := s.Keep(p); got != c.want {
			t.Errorf("Keep(+%v) = %v, want %v", c.off, got, c.want)
		}
	}
}

func TestFixedWindowFullCoverage(t *testing.T) {
	s := NewFixedWindowSampler(tRef, time.Hour)
	for off := time.Duration(0); off < 2*time.Hour; off += 7 * time.Minute {
		if !s.Keep(synAckTo(client, tRef.Add(off))) {
			t.Fatalf("full-window sampler dropped +%v", off)
		}
	}
}

func TestProbabilisticSampler(t *testing.T) {
	s := &ProbabilisticSampler{P: 0.3}
	kept := 0
	const total = 20000
	for i := 0; i < total; i++ {
		p := synAckTo(client+netaddr.V4(i), tRef.Add(time.Duration(i)*time.Millisecond))
		if s.Keep(p) {
			kept++
		}
	}
	frac := float64(kept) / total
	if frac < 0.27 || frac > 0.33 {
		t.Errorf("keep fraction = %.3f", frac)
	}
	// Determinism: identical packet, identical decision.
	p := synAckTo(client, tRef)
	if s.Keep(p) != s.Keep(p) {
		t.Error("sampler not deterministic")
	}
	if !(&ProbabilisticSampler{P: 1}).Keep(p) {
		t.Error("P=1 dropped")
	}
	if (&ProbabilisticSampler{P: 0}).Keep(p) {
		t.Error("P=0 kept")
	}
}

func TestCountingSampler(t *testing.T) {
	cs := &CountingSampler{Inner: NewFixedWindowSampler(tRef, 30*time.Minute)}
	cs.Keep(synAckTo(client, tRef))
	cs.Keep(synAckTo(client, tRef.Add(45*time.Minute)))
	if cs.Kept != 1 || cs.Dropped != 1 {
		t.Errorf("kept=%d dropped=%d", cs.Kept, cs.Dropped)
	}
	all := &CountingSampler{}
	if !all.Keep(synAckTo(client, tRef)) {
		t.Error("nil inner should keep")
	}
}

func TestRecorderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := trace.NewWriter(&buf, trace.LinkTypeRaw, 128)
	rec := NewRecorder(w)
	var batch []packet.Packet
	for i := 0; i < 10; i++ {
		batch = append(batch, *synAckTo(client+netaddr.V4(i), tRef.Add(time.Duration(i)*time.Second)))
	}
	rec.HandleBatch(batch)
	if rec.Err() != nil || rec.Written != 10 {
		t.Fatalf("written=%d err=%v", rec.Written, rec.Err())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := trace.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replayed := &collectSink{}
	n, err := ReplayBatched(context.Background(), r, replayed, 4)
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 || len(replayed.pkts) != 10 {
		t.Fatalf("replayed %d packets", n)
	}
	for i := range replayed.pkts {
		p := &replayed.pkts[i]
		if p.IPv4.Src != server || !p.TCP.Flags.Has(packet.FlagSYN|packet.FlagACK) {
			t.Errorf("packet %d corrupted in round trip", i)
		}
	}
}

// TestReplayLegacySink replays at batch size 1: a consumer that wants
// packets one at a time gets each as its own batch, in trace order.
func TestReplayLegacySink(t *testing.T) {
	var buf bytes.Buffer
	w := trace.NewWriter(&buf, trace.LinkTypeRaw, 128)
	rec := NewRecorder(w)
	for i := 0; i < 5; i++ {
		rec.HandleBatch(one(synAckTo(client+netaddr.V4(i), tRef.Add(time.Duration(i)*time.Second))))
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := trace.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var replayed []packet.Packet
	n, err := ReplayBatched(context.Background(), r, pipeline.BatchFunc(func(batch []packet.Packet) {
		if len(batch) != 1 {
			t.Errorf("batch of %d at batch size 1", len(batch))
		}
		replayed = append(replayed, batch...)
	}), 1)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 || len(replayed) != 5 {
		t.Fatalf("replayed %d packets", n)
	}
	for i := range replayed {
		if replayed[i].IPv4.Dst != client+netaddr.V4(i) {
			t.Errorf("packet %d out of trace order", i)
		}
	}
}

func TestNewTapBadFilter(t *testing.T) {
	if _, err := NewTap(LinkCommercial1, "bogus expr ((", nil, nil); err == nil {
		t.Error("bad filter accepted")
	}
}

func BenchmarkMonitorHandleBatch(b *testing.B) {
	a := NewAssigner(campusPfx, nil)
	sink := pipeline.BatchFunc(func([]packet.Packet) {})
	tap1, _ := NewTap(LinkCommercial1, PaperFilter, nil, sink)
	tap2, _ := NewTap(LinkCommercial2, PaperFilter, nil, sink)
	m := NewMonitor(a, tap1, tap2)
	batch := make([]packet.Packet, 0, 256)
	for i := 0; i < 256; i++ {
		batch = append(batch, *synAckTo(client+netaddr.V4(i), tRef))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.HandleBatch(batch)
	}
}
