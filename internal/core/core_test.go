package core

import (
	"testing"
	"time"

	"servdisc/internal/netaddr"
	"servdisc/internal/packet"
	"servdisc/internal/probe"
)

var (
	campusPfx = netaddr.MustParsePrefix("128.125.0.0/16")
	srv       = netaddr.MustParseV4("128.125.7.9")
	srv2      = netaddr.MustParseV4("128.125.7.10")
	cli       = netaddr.MustParseV4("64.1.2.3")
	cli2      = netaddr.MustParseV4("64.1.2.4")
	scanner   = netaddr.MustParseV4("211.9.9.9")
	t0        = time.Date(2006, 9, 19, 10, 0, 0, 0, time.UTC)
	bld       = packet.NewBuilder(0)
)

func synAck(at time.Time, from netaddr.V4, port uint16, to netaddr.V4) *packet.Packet {
	return bld.SynAck(at, packet.Endpoint{Addr: from, Port: port}, packet.Endpoint{Addr: to, Port: 40000}, 1, 2)
}

func TestPassiveTCPDiscovery(t *testing.T) {
	d := NewPassiveDiscoverer(campusPfx, nil)
	d.HandlePacket(synAck(t0, srv, 80, cli))
	d.HandlePacket(synAck(t0.Add(time.Minute), srv, 80, cli2))
	d.HandlePacket(synAck(t0.Add(2*time.Minute), srv, 80, cli)) // repeat client

	key := ServiceKey{Addr: srv, Proto: packet.ProtoTCP, Port: 80}
	rec, ok := NewInventory(d).Record(key)
	if !ok {
		t.Fatal("service not discovered")
	}
	if !rec.FirstSeen().Equal(t0) {
		t.Errorf("FirstSeen = %v", rec.FirstSeen())
	}
	if rec.Flows != 3 {
		t.Errorf("Flows = %d", rec.Flows)
	}
	if rec.Clients() != 2 {
		t.Errorf("Clients = %d", rec.Clients())
	}
}

func TestPassiveIgnoresExternalSynAck(t *testing.T) {
	d := NewPassiveDiscoverer(campusPfx, nil)
	// An external server accepting an outbound campus connection is not a
	// campus service.
	d.HandlePacket(synAck(t0, cli, 80, srv))
	if NewInventory(d).Len() != 0 {
		t.Error("external SYN-ACK treated as campus service")
	}
}

func TestPassiveUDPDiscovery(t *testing.T) {
	d := NewPassiveDiscoverer(campusPfx, []uint16{53, 137})
	// Reply from campus DNS port: evidence.
	d.HandlePacket(bld.UDPPacket(t0, packet.Endpoint{Addr: srv, Port: 53}, packet.Endpoint{Addr: cli, Port: 9999}, []byte("r")))
	// Campus traffic from a non-well-known port: no evidence.
	d.HandlePacket(bld.UDPPacket(t0, packet.Endpoint{Addr: srv, Port: 8000}, packet.Endpoint{Addr: cli, Port: 9999}, []byte("r")))
	// Inbound query TO port 53: no evidence either (request, not service proof).
	d.HandlePacket(bld.UDPPacket(t0, packet.Endpoint{Addr: cli, Port: 9999}, packet.Endpoint{Addr: srv2, Port: 53}, []byte("q")))

	inv := NewInventory(d)
	if inv.Len() != 1 {
		t.Fatalf("services = %d", inv.Len())
	}
	if _, ok := inv.Record(ServiceKey{Addr: srv, Proto: packet.ProtoUDP, Port: 53}); !ok {
		t.Error("DNS service missing")
	}
}

func TestScanDetectorThresholds(t *testing.T) {
	d := NewPassiveDiscoverer(campusPfx, nil)
	// Scanner touches 150 addresses and gets 120 RSTs: detected.
	for i := 0; i < 150; i++ {
		dst := srv + netaddr.V4(i)
		d.HandlePacket(bld.Syn(t0.Add(time.Duration(i)*time.Second), packet.Endpoint{Addr: scanner, Port: 40000}, packet.Endpoint{Addr: dst, Port: 80}, 1))
		if i < 120 {
			d.HandlePacket(bld.Rst(t0.Add(time.Duration(i)*time.Second+time.Millisecond), packet.Endpoint{Addr: dst, Port: 80}, packet.Endpoint{Addr: scanner, Port: 40000}, 0))
		}
	}
	// A busy legitimate client: contacts 150 addresses but few RSTs.
	for i := 0; i < 150; i++ {
		dst := srv + netaddr.V4(i)
		d.HandlePacket(bld.Syn(t0.Add(time.Duration(i)*time.Second), packet.Endpoint{Addr: cli, Port: 40001}, packet.Endpoint{Addr: dst, Port: 80}, 1))
	}
	scanners := NewInventory(d).Scanners()
	if len(scanners) != 1 {
		t.Fatalf("detected %d scanners", len(scanners))
	}
	if scanners[0].Source != scanner {
		t.Errorf("detected %v", scanners[0].Source)
	}
	if scanners[0].UniqueDsts != 150 || scanners[0].RstDsts != 120 {
		t.Errorf("stats = %d/%d", scanners[0].UniqueDsts, scanners[0].RstDsts)
	}
}

func TestScanDetectorBelowThreshold(t *testing.T) {
	d := NewPassiveDiscoverer(campusPfx, nil)
	// 99 destinations with RSTs: below the 100 threshold.
	for i := 0; i < 99; i++ {
		dst := srv + netaddr.V4(i)
		d.HandlePacket(bld.Syn(t0, packet.Endpoint{Addr: scanner, Port: 1}, packet.Endpoint{Addr: dst, Port: 80}, 1))
		d.HandlePacket(bld.Rst(t0, packet.Endpoint{Addr: dst, Port: 80}, packet.Endpoint{Addr: scanner, Port: 1}, 0))
	}
	if len(NewInventory(d).Scanners()) != 0 {
		t.Error("sub-threshold source detected")
	}
}

func TestScanDetectorWindowing(t *testing.T) {
	d := NewPassiveDiscoverer(campusPfx, nil)
	// 60 contacts in window 1, 60 more a day later: never 100 in one
	// 12-hour window.
	for i := 0; i < 60; i++ {
		dst := srv + netaddr.V4(i)
		d.HandlePacket(bld.Syn(t0, packet.Endpoint{Addr: scanner, Port: 1}, packet.Endpoint{Addr: dst, Port: 80}, 1))
		d.HandlePacket(bld.Rst(t0, packet.Endpoint{Addr: dst, Port: 80}, packet.Endpoint{Addr: scanner, Port: 1}, 0))
	}
	later := t0.Add(24 * time.Hour)
	for i := 60; i < 120; i++ {
		dst := srv + netaddr.V4(i)
		d.HandlePacket(bld.Syn(later, packet.Endpoint{Addr: scanner, Port: 1}, packet.Endpoint{Addr: dst, Port: 80}, 1))
		d.HandlePacket(bld.Rst(later, packet.Endpoint{Addr: dst, Port: 80}, packet.Endpoint{Addr: scanner, Port: 1}, 0))
	}
	if len(NewInventory(d).Scanners()) != 0 {
		t.Error("slow scanner split across windows detected by 12h rule")
	}
}

func TestFirstSeenExcluding(t *testing.T) {
	d := NewPassiveDiscoverer(campusPfx, nil)
	d.HandlePacket(synAck(t0, srv, 80, scanner))                   // scanner found it first
	d.HandlePacket(synAck(t0.Add(time.Hour), srv, 80, cli))        // real client later
	d.HandlePacket(synAck(t0.Add(2*time.Hour), srv2, 22, scanner)) // scanner-only server

	inv := NewInventory(d)
	excluded := map[netaddr.V4]bool{scanner: true}
	first := inv.AddrFirstSeenExcluding(excluded, nil)
	if got, ok := first[srv]; !ok || !got.Equal(t0.Add(time.Hour)) {
		t.Errorf("srv first = %v, %v", got, ok)
	}
	if _, ok := first[srv2]; ok {
		t.Error("scanner-only server should vanish when scans removed")
	}
	// Without exclusion both appear at their earliest times.
	all := inv.AddrFirstSeen(nil)
	if !all[srv].Equal(t0) || len(all) != 2 {
		t.Errorf("unfiltered = %v", all)
	}
}

func TestActiveDiscoverer(t *testing.T) {
	d := NewActiveDiscoverer([]uint16{22, 80})
	rep := &probe.ScanReport{
		ID: 0, Started: t0, Finished: t0.Add(2 * time.Hour),
		TCP: []probe.TCPResult{
			{Time: t0.Add(time.Minute), Addr: srv, Port: 80, State: probe.StateOpen},
			{Time: t0.Add(time.Minute), Addr: srv, Port: 22, State: probe.StateClosed},
			{Time: t0.Add(2 * time.Minute), Addr: srv2, Port: 80, State: probe.StateFiltered},
			{Time: t0.Add(2 * time.Minute), Addr: srv2, Port: 22, State: probe.StateFiltered},
		},
	}
	d.AddReport(rep)

	if _, ok := d.FirstOpen(ServiceKey{Addr: srv, Proto: packet.ProtoTCP, Port: 80}); !ok {
		t.Error("open service missing")
	}
	if _, ok := d.FirstOpen(ServiceKey{Addr: srv, Proto: packet.ProtoTCP, Port: 22}); ok {
		t.Error("closed port recorded as service")
	}
	if !d.RespondedEver().Contains(srv) {
		t.Error("responding host not marked live")
	}
	if d.RespondedEver().Contains(srv2) {
		t.Error("silent host marked live")
	}
	// First-open must not regress across scans.
	rep2 := &probe.ScanReport{
		ID: 1, Started: t0.Add(12 * time.Hour), Finished: t0.Add(14 * time.Hour),
		TCP: []probe.TCPResult{
			{Time: t0.Add(12 * time.Hour), Addr: srv, Port: 80, State: probe.StateOpen},
		},
	}
	d.AddReport(rep2)
	first, _ := d.FirstOpen(ServiceKey{Addr: srv, Proto: packet.ProtoTCP, Port: 80})
	if !first.Equal(t0.Add(time.Minute)) {
		t.Errorf("FirstOpen regressed to %v", first)
	}
	if len(d.Scans()) != 2 {
		t.Errorf("scans = %d", len(d.Scans()))
	}
}

func TestMixedResponse(t *testing.T) {
	d := NewActiveDiscoverer([]uint16{22, 80})
	d.AddReport(&probe.ScanReport{
		ID: 0, Started: t0, Finished: t0.Add(time.Hour),
		TCP: []probe.TCPResult{
			{Time: t0, Addr: srv, Port: 22, State: probe.StateClosed},
			{Time: t0, Addr: srv, Port: 80, State: probe.StateFiltered},
			{Time: t0, Addr: srv2, Port: 22, State: probe.StateClosed},
			{Time: t0, Addr: srv2, Port: 80, State: probe.StateClosed},
		},
	})
	if !d.MixedResponse(srv) {
		t.Error("RST+silence host not flagged")
	}
	if d.MixedResponse(srv2) {
		t.Error("all-RST host flagged")
	}
}

func TestCompletenessRowAlgebra(t *testing.T) {
	p := NewPassiveDiscoverer(campusPfx, nil)
	p.HandlePacket(synAck(t0.Add(time.Hour), srv, 80, cli))
	p.HandlePacket(synAck(t0.Add(20*time.Hour), srv2, 22, cli))

	a := NewActiveDiscoverer([]uint16{22, 80})
	a.AddReport(&probe.ScanReport{
		ID: 0, Started: t0, Finished: t0.Add(2 * time.Hour),
		TCP: []probe.TCPResult{
			{Time: t0.Add(time.Minute), Addr: srv, Port: 80, State: probe.StateOpen},
			{Time: t0.Add(time.Minute), Addr: srv + 100, Port: 80, State: probe.StateOpen},
		},
	})
	an := &Analysis{Inventory: NewHybridInventory(p, a)}
	row := an.Completeness(t0.Add(12*time.Hour), 1)
	if row.Union != 2 || row.Both != 1 || row.ActiveOnly != 1 || row.PassiveOnly != 0 {
		t.Errorf("row = %+v", row)
	}
	// Extending the passive window picks up srv2.
	row2 := an.Completeness(t0.Add(24*time.Hour), 1)
	if row2.Union != 3 || row2.PassiveOnly != 1 {
		t.Errorf("row2 = %+v", row2)
	}
	// Identity: union = both + activeOnly + passiveOnly.
	for _, r := range []CompletenessRow{row, row2} {
		if r.Union != r.Both+r.ActiveOnly+r.PassiveOnly {
			t.Errorf("identity violated: %+v", r)
		}
	}
}

func TestDiscoverySeriesMonotone(t *testing.T) {
	p := NewPassiveDiscoverer(campusPfx, nil)
	for i := 0; i < 50; i++ {
		p.HandlePacket(synAck(t0.Add(time.Duration(i)*time.Hour), srv+netaddr.V4(i), 80, cli))
	}
	an := &Analysis{Inventory: NewHybridInventory(p, NewActiveDiscoverer([]uint16{80}))}
	s := an.PassiveSeries(t0, t0.Add(100*time.Hour), nil)
	pts := s.Points()
	for i := 1; i < len(pts); i++ {
		if pts[i].V < pts[i-1].V {
			t.Fatal("series not monotone")
		}
	}
	if s.Last() != 50 {
		t.Errorf("final = %v", s.Last())
	}
}

func TestWeightedSeries(t *testing.T) {
	p := NewPassiveDiscoverer(campusPfx, nil)
	// srv: 99 flows; srv2: 1 flow.
	for i := 0; i < 99; i++ {
		p.HandlePacket(synAck(t0.Add(time.Duration(i)*time.Minute), srv, 80, cli+netaddr.V4(i)))
	}
	p.HandlePacket(synAck(t0.Add(10*time.Hour), srv2, 80, cli))

	an := &Analysis{Inventory: NewHybridInventory(p, NewActiveDiscoverer([]uint16{80}))}
	s := an.WeightedSeries(an.PassiveAddrs(), WeightFlows, t0, t0.Add(24*time.Hour))
	// After the first discovery (srv at t0) the flow-weighted curve is
	// already at 99%.
	if got := s.At(t0.Add(time.Minute)); got < 98.9 || got > 99.1 {
		t.Errorf("early weighted completeness = %v", got)
	}
	if got := s.Last(); got < 99.9 {
		t.Errorf("final = %v", got)
	}
	// Unweighted: first discovery = 50%.
	u := an.WeightedSeries(an.PassiveAddrs(), WeightNone, t0, t0.Add(24*time.Hour))
	if got := u.At(t0.Add(time.Minute)); got != 50 {
		t.Errorf("unweighted early = %v", got)
	}
}

func TestCategorize12h(t *testing.T) {
	p := NewPassiveDiscoverer(campusPfx, nil)
	p.HandlePacket(synAck(t0.Add(time.Hour), srv, 80, cli))    // both
	p.HandlePacket(synAck(t0.Add(2*time.Hour), srv2, 22, cli)) // passive only

	a := NewActiveDiscoverer([]uint16{22, 80})
	a.AddReport(&probe.ScanReport{
		ID: 0, Started: t0, Finished: t0.Add(2 * time.Hour),
		TCP: []probe.TCPResult{
			{Time: t0.Add(time.Minute), Addr: srv, Port: 80, State: probe.StateOpen},
			{Time: t0.Add(time.Minute), Addr: srv + 100, Port: 80, State: probe.StateOpen}, // active only
		},
	})
	an := &Analysis{Inventory: NewHybridInventory(p, a)}
	space := []netaddr.V4{srv, srv2, srv + 100, srv + 200}
	tab := an.Categorize12h(t0.Add(12*time.Hour), space)
	if tab.ActiveServer != 1 || tab.IdleServer != 1 || tab.FirewallOrBirth != 1 || tab.NonServer != 1 {
		t.Errorf("table = %+v", tab)
	}
	if tab.Total() != 4 {
		t.Errorf("total = %d", tab.Total())
	}
}

func TestTrait4Labels(t *testing.T) {
	cases := []struct {
		tr   Trait4
		want string
	}{
		{Trait4{true, true, true, true, false}, "active server address"},
		{Trait4{true, true, false, false, false}, "server death"},
		{Trait4{true, true, false, true, false}, "mostly idle"},
		{Trait4{false, true, false, false, true}, "idle/intermittent"},
		{Trait4{false, true, true, false, false}, "semi-idle"},
		{Trait4{false, true, false, false, false}, "idle"},
		{Trait4{true, false, false, false, true}, "intermittent"},
		{Trait4{true, false, true, false, false}, "possible firewall"},
		{Trait4{false, false, false, false, false}, "non-server address"},
		{Trait4{false, false, true, true, true}, "intermittent/active"},
		{Trait4{false, false, true, true, false}, "birth"},
		{Trait4{false, false, false, true, true}, "intermittent/idle"},
		{Trait4{false, false, false, true, false}, "birth/idle"},
		{Trait4{false, false, true, false, true}, "possible firewall/intermittent"},
		{Trait4{false, false, true, false, false}, "possible firewall/birth"},
	}
	for _, c := range cases {
		if got := c.tr.Label(); got != c.want {
			t.Errorf("Label(%+v) = %q, want %q", c.tr, got, c.want)
		}
	}
}

func TestFirewallCandidates(t *testing.T) {
	p := NewPassiveDiscoverer(campusPfx, nil)
	// Stealth server: passive traffic, including during the scan window.
	p.HandlePacket(synAck(t0.Add(30*time.Minute), srv, 80, cli))
	a := NewActiveDiscoverer([]uint16{22, 80})
	a.AddReport(&probe.ScanReport{
		ID: 0, Started: t0, Finished: t0.Add(2 * time.Hour),
		TCP: []probe.TCPResult{
			{Time: t0, Addr: srv, Port: 22, State: probe.StateClosed},
			{Time: t0, Addr: srv, Port: 80, State: probe.StateFiltered},
		},
	})
	an := &Analysis{Inventory: NewHybridInventory(p, a)}
	fw := an.FirewallCandidates()
	if len(fw) != 1 {
		t.Fatalf("candidates = %d", len(fw))
	}
	if !fw[0].MixedResponse {
		t.Error("method 1 (mixed response) not confirmed")
	}
	if !fw[0].ActiveDuringScan {
		t.Error("method 2 (activity during scan) not confirmed")
	}
}

func TestUDPSummary(t *testing.T) {
	p := NewPassiveDiscoverer(campusPfx, []uint16{53, 137})
	p.HandlePacket(bld.UDPPacket(t0, packet.Endpoint{Addr: srv, Port: 53}, packet.Endpoint{Addr: cli, Port: 999}, []byte("r")))

	a := NewActiveDiscoverer(nil)
	a.AddReport(&probe.ScanReport{
		ID: 0, Started: t0, Finished: t0.Add(time.Hour),
		UDP: []probe.UDPResult{
			{Time: t0, Addr: srv, Port: 53, State: probe.UDPOpen},
			{Time: t0, Addr: srv, Port: 137, State: probe.UDPNoResponse}, // alive elsewhere → possibly open
			{Time: t0, Addr: srv2, Port: 53, State: probe.UDPClosed},
			{Time: t0, Addr: srv2, Port: 137, State: probe.UDPNoResponse},
			{Time: t0, Addr: srv + 100, Port: 53, State: probe.UDPNoResponse}, // silent everywhere
			{Time: t0, Addr: srv + 100, Port: 137, State: probe.UDPNoResponse},
		},
	})
	an := &Analysis{Inventory: NewHybridInventory(p, a)}
	table := an.UDPSummary([]uint16{53, 137}, []netaddr.V4{srv, srv2, srv + 100})
	if table.NoResponseAnyPort != 1 {
		t.Errorf("NoResponseAnyPort = %d", table.NoResponseAnyPort)
	}
	if table.PassiveTotal != 1 || table.ActiveDefinitelyOpenTotal != 1 || table.PassiveOnly != 0 {
		t.Errorf("totals = %+v", table)
	}
	for _, ps := range table.Ports {
		switch ps.Port {
		case 53:
			if ps.DefinitelyOpen != 1 || ps.DefinitelyClosed != 1 || ps.PossiblyOpen != 0 {
				t.Errorf("port 53 = %+v", ps)
			}
		case 137:
			if ps.PossiblyOpen != 2 {
				t.Errorf("port 137 = %+v", ps)
			}
		}
	}
}

func TestTimeTo(t *testing.T) {
	p := NewPassiveDiscoverer(campusPfx, nil)
	for i := 0; i < 100; i++ {
		p.HandlePacket(synAck(t0.Add(time.Duration(i)*time.Minute), srv+netaddr.V4(i), 80, cli))
	}
	an := &Analysis{Inventory: NewHybridInventory(p, NewActiveDiscoverer([]uint16{80}))}
	s := an.PassiveSeries(t0, t0.Add(3*time.Hour), nil)
	d, ok := TimeTo(s, t0, 50)
	if !ok {
		t.Fatal("TimeTo failed")
	}
	if d < 48*time.Minute || d > 52*time.Minute {
		t.Errorf("TimeTo(50%%) = %v", d)
	}
}

func BenchmarkPassiveHandlePacket(b *testing.B) {
	d := NewPassiveDiscoverer(campusPfx, nil)
	p := synAck(t0, srv, 80, cli)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.HandlePacket(p)
	}
}
