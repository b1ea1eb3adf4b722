package core

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"servdisc/internal/netaddr"
	"servdisc/internal/obs"
	"servdisc/internal/packet"
	"servdisc/internal/probe"
	"servdisc/internal/stats"
)

// genReports synthesizes a deterministic sequence of sweep reports over
// the same campus space genTrace populates: some services overlap the
// passive trace (provenance races), some are probe-only, plus UDP
// outcomes and compact summaries.
func genReports(n int) []*probe.ScanReport {
	campusPfx := netaddr.MustParsePrefix("128.125.0.0/16")
	base := time.Date(2006, 9, 19, 11, 0, 0, 0, time.UTC)
	ports := []uint16{21, 22, 80, 443, 3306}
	var out []*probe.ScanReport
	for i := 0; i < n; i++ {
		start := base.Add(time.Duration(i) * 12 * time.Hour)
		rep := &probe.ScanReport{ID: i, Started: start, Finished: start.Add(90 * time.Minute)}
		for t := 0; t < 80; t++ {
			addr := campusPfx.Base() + netaddr.V4(256+t) // overlaps genTrace servers
			ts := start.Add(time.Duration(t) * time.Second)
			for pi, port := range ports {
				state := probe.StateFiltered
				switch (t + pi + i) % 3 {
				case 0:
					state = probe.StateOpen
				case 1:
					state = probe.StateClosed
				}
				rep.TCP = append(rep.TCP, probe.TCPResult{Time: ts, Addr: addr, Port: port, State: state})
			}
		}
		// Probe-only space the passive trace never sees.
		for t := 0; t < 20; t++ {
			addr := campusPfx.Base() + netaddr.V4(5000+t)
			sum := probe.AddrSummary{Addr: addr, Time: start.Add(time.Duration(200+t) * time.Second)}
			if t%2 == 0 {
				sum.Open = []uint16{22, 80}
			} else {
				sum.Closed = 3
				sum.Filtered = 2
			}
			rep.Summaries = append(rep.Summaries, sum)
		}
		for t := 0; t < 30; t++ {
			addr := campusPfx.Base() + netaddr.V4(256+t)
			state := probe.UDPNoResponse
			switch (t + i) % 3 {
			case 0:
				state = probe.UDPOpen
			case 1:
				state = probe.UDPClosed
			}
			rep.UDP = append(rep.UDP, probe.UDPResult{
				Time: start.Add(time.Duration(400+t) * time.Second),
				Addr: addr, Port: 53, State: state,
			})
		}
		out = append(out, rep)
	}
	return out
}

// feedHybrid drives a hybrid engine with one specific interleaving of
// passive batches and scan reports. order[i] < 0 means "deliver the next
// report"; otherwise deliver the next batch.
func feedHybrid(h *Hybrid, pkts []packet.Packet, reps []*probe.ScanReport, rng *stats.RNG) {
	ri := 0
	for off := 0; off < len(pkts); {
		if ri < len(reps) && rng.Intn(4) == 0 {
			h.AddReport(reps[ri])
			ri++
			continue
		}
		sz := 1 + rng.Intn(400)
		if off+sz > len(pkts) {
			sz = len(pkts) - off
		}
		h.HandleBatch(pkts[off : off+sz])
		off += sz
	}
	for ; ri < len(reps); ri++ {
		h.AddReport(reps[ri])
	}
}

// TestHybridDeterministicInterleaving is the acceptance property: the
// hybrid snapshot must be byte-identical for ANY interleaving of passive
// batches and scan reports, at shard counts 1, 2 and 8, in both inline and
// concurrent modes — including reports delivered in reverse sweep order.
func TestHybridDeterministicInterleaving(t *testing.T) {
	campusPfx := netaddr.MustParsePrefix("128.125.0.0/16")
	udpPorts := []uint16{53, 123, 137}
	tcpPorts := []uint16{21, 22, 80, 443, 3306}
	pkts := genTrace(3, 20000)
	reps := genReports(6)

	// Reference: passive first in one batch, then reports in sweep order.
	ref := NewHybrid(campusPfx, udpPorts, 1, tcpPorts)
	ref.HandleBatch(pkts)
	for _, rep := range reps {
		ref.AddReport(rep)
	}
	want := ref.Snapshot().Dump()
	if len(want) == 0 || !bytes.Contains(want, []byte("active-first")) ||
		!bytes.Contains(want, []byte("passive-first")) ||
		!bytes.Contains(want, []byte("active-only")) ||
		!bytes.Contains(want, []byte("passive-only")) {
		t.Fatalf("degenerate reference: not all provenance classes present:\n%.400s", want)
	}

	for _, shards := range []int{1, 2, 8} {
		// Reports before any traffic, in reverse sweep order.
		t.Run(fmt.Sprintf("shards=%d/reports-first-reversed", shards), func(t *testing.T) {
			h := NewHybrid(campusPfx, udpPorts, shards, tcpPorts)
			for i := len(reps) - 1; i >= 0; i-- {
				h.AddReport(reps[i])
			}
			h.HandleBatch(pkts)
			if got := h.Snapshot().Dump(); !bytes.Equal(want, got) {
				t.Fatal("snapshot differs from reference")
			}
		})
		// Random interleavings, inline mode.
		t.Run(fmt.Sprintf("shards=%d/interleaved-sync", shards), func(t *testing.T) {
			for seed := uint64(0); seed < 3; seed++ {
				h := NewHybrid(campusPfx, udpPorts, shards, tcpPorts)
				feedHybrid(h, pkts, reps, stats.NewRNG(seed).Derive("hybrid"))
				if got := h.Snapshot().Dump(); !bytes.Equal(want, got) {
					t.Fatalf("seed %d: snapshot differs from reference", seed)
				}
			}
		})
		// Random interleavings, concurrent workers.
		t.Run(fmt.Sprintf("shards=%d/interleaved-async", shards), func(t *testing.T) {
			for seed := uint64(10); seed < 13; seed++ {
				h := NewHybrid(campusPfx, udpPorts, shards, tcpPorts)
				h.Run(context.Background())
				feedHybrid(h, pkts, reps, stats.NewRNG(seed).Derive("hybrid"))
				h.Close()
				if got := h.Snapshot().Dump(); !bytes.Equal(want, got) {
					t.Fatalf("seed %d: snapshot differs from reference", seed)
				}
			}
		})
	}
}

// TestHybridProvenance pins the provenance semantics with handcrafted
// observations of all four classes.
func TestHybridProvenance(t *testing.T) {
	campusPfx := netaddr.MustParsePrefix("128.125.0.0/16")
	base := time.Date(2006, 9, 19, 10, 0, 0, 0, time.UTC)
	bld := packet.NewBuilder(0)
	srv := func(i int) netaddr.V4 { return campusPfx.Base() + netaddr.V4(10+i) }
	cli := netaddr.MustParseV4("64.1.2.3")

	h := NewHybrid(campusPfx, []uint16{53}, 2, []uint16{80})
	// srv(0): passive at T+1h, probe opens at T+2h  => passive-first.
	// srv(1): passive at T+3h, probe opens at T+1h30 => active-first.
	// srv(2): passive only.
	// srv(3): probe only.
	var pkts []packet.Packet
	add := func(p *packet.Packet) { pkts = append(pkts, *p) }
	add(bld.SynAck(base.Add(1*time.Hour), packet.Endpoint{Addr: srv(0), Port: 80},
		packet.Endpoint{Addr: cli, Port: 40000}, 1, 1))
	add(bld.SynAck(base.Add(3*time.Hour), packet.Endpoint{Addr: srv(1), Port: 80},
		packet.Endpoint{Addr: cli, Port: 40001}, 1, 1))
	add(bld.SynAck(base.Add(1*time.Hour), packet.Endpoint{Addr: srv(2), Port: 80},
		packet.Endpoint{Addr: cli, Port: 40002}, 1, 1))
	h.HandleBatch(pkts)
	h.AddReport(&probe.ScanReport{
		ID: 0, Started: base.Add(90 * time.Minute), Finished: base.Add(2 * time.Hour),
		TCP: []probe.TCPResult{
			{Time: base.Add(2 * time.Hour), Addr: srv(0), Port: 80, State: probe.StateOpen},
			{Time: base.Add(90 * time.Minute), Addr: srv(1), Port: 80, State: probe.StateOpen},
			{Time: base.Add(90 * time.Minute), Addr: srv(3), Port: 80, State: probe.StateOpen},
			{Time: base.Add(90 * time.Minute), Addr: srv(4), Port: 80, State: probe.StateClosed},
		},
	})

	inv := h.Snapshot()
	if !inv.Hybrid() {
		t.Fatal("snapshot not hybrid")
	}
	key := func(i int) ServiceKey { return ServiceKey{Addr: srv(i), Proto: packet.ProtoTCP, Port: 80} }
	wantProv := map[int]Provenance{0: PassiveFirst, 1: ActiveFirst, 2: PassiveOnly, 3: ActiveOnly}
	for i, want := range wantProv {
		got, ok := inv.Provenance(key(i))
		if !ok || got != want {
			t.Errorf("provenance(srv%d) = %v/%v, want %v", i, got, ok, want)
		}
	}
	// srv(4) answered RST only: not a service, not in the inventory.
	if _, ok := inv.Provenance(key(4)); ok {
		t.Error("closed-only address entered the inventory")
	}
	// Service answers in one lookup what the single-fact accessors answer
	// in one each.
	for i := 0; i <= 4; i++ {
		rec, prov, first, activeAt, ok := inv.Service(key(i))
		wantRec, _ := inv.Record(key(i))
		wantProv, wantOK := inv.Provenance(key(i))
		wantFirst, _ := inv.FirstDiscovered(key(i))
		wantActive, _ := inv.ActiveFirstOpen(key(i))
		if rec != wantRec || prov != wantProv || ok != wantOK || !first.Equal(wantFirst) || !activeAt.Equal(wantActive) {
			t.Errorf("Service(srv%d) = %v %v %v %v %v, accessors say %v %v %v %v %v", i,
				rec, prov, first, activeAt, ok, wantRec, wantProv, wantFirst, wantActive, wantOK)
		}
	}
	if inv.Len() != 4 {
		t.Fatalf("inventory has %d services, want 4", inv.Len())
	}
	counts := inv.ProvenanceCounts()
	if counts[PassiveOnly] != 1 || counts[ActiveOnly] != 1 ||
		counts[PassiveFirst] != 1 || counts[ActiveFirst] != 1 {
		t.Errorf("provenance counts = %v", counts)
	}
	// FirstDiscovered takes the earlier side.
	if ts, ok := inv.FirstDiscovered(key(1)); !ok || !ts.Equal(base.Add(90*time.Minute)) {
		t.Errorf("FirstDiscovered(srv1) = %v/%v", ts, ok)
	}
	if ts, ok := inv.FirstDiscovered(key(0)); !ok || !ts.Equal(base.Add(1*time.Hour)) {
		t.Errorf("FirstDiscovered(srv0) = %v/%v", ts, ok)
	}
	if _, ok := inv.ActiveFirstOpen(key(2)); ok {
		t.Error("passive-only service has an active first-open")
	}
	if len(inv.Scans()) != 1 {
		t.Errorf("Scans = %d, want 1", len(inv.Scans()))
	}
}

// TestPassiveOnlyInventoryProvenance checks the passive-only inventory's
// degenerate provenance behavior.
func TestPassiveOnlyInventoryProvenance(t *testing.T) {
	campusPfx := netaddr.MustParsePrefix("128.125.0.0/16")
	d := NewPassiveDiscoverer(campusPfx, nil)
	bld := packet.NewBuilder(0)
	base := time.Date(2006, 9, 19, 10, 0, 0, 0, time.UTC)
	srv := campusPfx.Base() + 7
	p := bld.SynAck(base, packet.Endpoint{Addr: srv, Port: 443},
		packet.Endpoint{Addr: netaddr.MustParseV4("64.1.1.1"), Port: 40000}, 1, 1)
	d.HandlePacket(p)
	inv := NewInventory(d)
	if inv.Hybrid() {
		t.Fatal("passive snapshot claims to be hybrid")
	}
	key := ServiceKey{Addr: srv, Proto: packet.ProtoTCP, Port: 443}
	if p, ok := inv.Provenance(key); !ok || p != PassiveOnly {
		t.Errorf("Provenance = %v/%v, want passive-only", p, ok)
	}
	if _, ok := inv.Provenance(ServiceKey{Addr: srv, Proto: packet.ProtoTCP, Port: 80}); ok {
		t.Error("absent key has provenance")
	}
	if ts, ok := inv.FirstDiscovered(key); !ok || !ts.Equal(base) {
		t.Errorf("FirstDiscovered = %v/%v", ts, ok)
	}
	if inv.Scans() != nil {
		t.Error("passive snapshot has sweeps")
	}
}

// TestActiveDiscovererOrderIndependent feeds the same reports forward and
// reversed and requires identical state — the property the hybrid engine's
// concurrent report callers rest on.
func TestActiveDiscovererOrderIndependent(t *testing.T) {
	reps := genReports(5)
	fwd := NewActiveDiscoverer([]uint16{80})
	for _, rep := range reps {
		fwd.AddReport(rep)
	}
	rev := NewActiveDiscoverer([]uint16{80})
	for i := len(reps) - 1; i >= 0; i-- {
		rev.AddReport(reps[i])
	}
	if len(fwd.Scans()) != len(rev.Scans()) {
		t.Fatal("scan counts differ")
	}
	for i := range fwd.Scans() {
		if fwd.Scans()[i] != rev.Scans()[i] {
			t.Fatalf("scan meta %d differs: %+v vs %+v", i, fwd.Scans()[i], rev.Scans()[i])
		}
	}
	fwdSvc, revSvc := fwd.Services(), rev.Services()
	if len(fwdSvc) != len(revSvc) {
		t.Fatal("service counts differ")
	}
	for k, ts := range fwdSvc {
		if rt, ok := revSvc[k]; !ok || !rt.Equal(ts) {
			t.Fatalf("first-open %v differs: %v vs %v", k, ts, rt)
		}
	}
	campusPfx := netaddr.MustParsePrefix("128.125.0.0/16")
	for i := 0; i < 80; i++ {
		a := campusPfx.Base() + netaddr.V4(256+i)
		fo := fwd.Outcomes(a)
		ro := rev.Outcomes(a)
		if len(fo) == 0 {
			t.Fatalf("no outcome history for %v", a)
		}
		if len(fo) != len(ro) {
			t.Fatalf("outcome history of %v differs in length", a)
		}
		for i := range fo {
			if fo[i].ScanID != ro[i].ScanID || !fo[i].Time.Equal(ro[i].Time) {
				t.Fatalf("outcome %d of %v differs", i, a)
			}
		}
	}
}

// TestHybridLifecycle exercises Run/Flush/Close edge cases: reports after
// Close are dropped, Close is idempotent, Flush observes prior ingest.
func TestHybridLifecycle(t *testing.T) {
	campusPfx := netaddr.MustParsePrefix("128.125.0.0/16")
	reps := genReports(2)
	h := NewHybrid(campusPfx, nil, 2, []uint16{80})
	met := testEngineMetrics()
	h.SetMetrics(met)
	h.Run(context.Background())
	h.AddReport(reps[0])
	// Batch i carries i packets: the flight trace's sampled batch must be
	// the BatchSample-th, whatever reports came between.
	pkts := genTrace(1, obs.BatchSample*(obs.BatchSample+1)/2)
	for i, off := 1, 0; i <= obs.BatchSample; off, i = off+i, i+1 {
		h.HandleBatch(pkts[off : off+i])
	}
	h.Flush()
	if got := len(h.Snapshot().Scans()); got != 1 {
		t.Fatalf("after flush: %d sweeps, want 1", got)
	}
	var sampled []obs.Event
	for _, e := range met.Flight.Events() {
		if e.Kind == obs.TraceBatchDispatched {
			sampled = append(sampled, e)
		}
	}
	if len(sampled) != 1 || sampled[0].A != obs.BatchSample || sampled[0].B != obs.BatchSample {
		t.Fatalf("flight trace sampled batches %+v, want one of %d packets numbered %d", sampled, obs.BatchSample, obs.BatchSample)
	}
	h.Close()
	h.Close() // idempotent
	h.AddReport(reps[1])
	if got := len(h.Snapshot().Scans()); got != 1 {
		t.Fatalf("post-Close report ingested: %d sweeps", got)
	}
}

// TestReportAppliedOnReturn: a report applies on its caller's goroutine, so
// on a running engine the first Snapshot after AddReport returns lists the
// report's services and ScanCompleted is already published, with no Flush
// between them. A report after the Run context is cancelled, or after Close,
// is dropped: it changes neither the inventory nor the event count.
func TestReportAppliedOnReturn(t *testing.T) {
	reps := genReports(3)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h := NewHybrid(campusPfx, []uint16{53}, 2, []uint16{21, 22, 80, 443, 3306})
	sweeps := h.SubscribeFiltered(len(reps), func(ev Event) bool { return ev.Kind == EventScanCompleted })
	h.Run(ctx)
	h.HandleBatch(genTrace(3, 2000))
	h.AddReport(reps[0])
	inv := h.Snapshot()
	want := NewActiveDiscoverer(nil)
	want.AddReport(reps[0])
	for k, at := range want.Services() {
		if got, ok := inv.ActiveFirstOpen(k); !ok || !got.Equal(at) {
			t.Fatalf("snapshot after AddReport: %v first open %v/%v, want %v", k, got, ok, at)
		}
	}
	if len(want.Services()) == 0 || len(inv.Scans()) != 1 {
		t.Fatalf("snapshot after AddReport: %d sweeps, report opens %d services", len(inv.Scans()), len(want.Services()))
	}
	if len(sweeps.Events()) != 1 {
		t.Fatalf("%d ScanCompleted published when AddReport returned, want 1", len(sweeps.Events()))
	}

	dump, events := inv.Dump(), h.EventCounters().In()
	dropped := func(when string, rep *probe.ScanReport) {
		t.Helper()
		h.AddReport(rep)
		if !bytes.Equal(h.Snapshot().Dump(), dump) || h.EventCounters().In() != events {
			t.Fatalf("a report %s moved the engine", when)
		}
	}
	cancel()
	dropped("after the Run context was cancelled", reps[1])
	h.Close()
	dropped("after Close", reps[2])
}

// TestHybridImportInvalidatesSnapshot: a restore writes the shards without
// moving the snapshot fingerprint (the dispatch count), so an inventory
// frozen before it must not be served after it.
func TestHybridImportInvalidatesSnapshot(t *testing.T) {
	src := NewShardedPassive(campusPfx, nil, 1)
	src.HandleBatch(genTrace(6, 2000))
	chunk, _ := src.ExportDelta(nil)

	h := NewHybrid(campusPfx, nil, 2, nil)
	h.Snapshot()
	if err := h.ImportDelta(chunk); err != nil {
		t.Fatal(err)
	}
	if got, want := h.Snapshot().Len(), src.Snapshot().Len(); got != want || want == 0 {
		t.Fatalf("snapshot after import holds %d services, want %d", got, want)
	}
}
