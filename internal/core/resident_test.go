package core

import (
	"runtime"
	"testing"
	"time"

	"servdisc/internal/netaddr"
	"servdisc/internal/packet"
)

// TestResidentBytesPerFlowState is the memory gate beside the alloc gates:
// what one ordinary external client and one ordinary service cost the
// engine in live heap. A border monitor sees hundreds of one-off clients
// for every service, so bytes per (source, window) pair decide whether the
// passive technique is deployable at all. Budgets are ≈1.25× the measured
// figures (DESIGN.md §7): 112 B per source since the small-set
// representations landed (the map-per-set form they replaced read 416 B
// and 7 allocations), and 200 B per service since records, peer history
// and the event join table hold one-word instants — the time.Time forms
// read 316 B and fail the service budget.
func TestResidentBytesPerFlowState(t *testing.T) {
	const (
		n            = 100_000
		sourceBudget = 140 // bytes per one-destination external source
		svcBudget    = 250 // bytes per single-client service
		allocBudget  = 2   // allocations for a first SYN from a new source
	)
	wide := netaddr.MustParsePrefix("10.0.0.0/8")
	ext := netaddr.MustParseV4("64.0.0.0")
	pb := packet.NewBuilder(0)

	// grow reports live-heap growth per item across filling a fresh
	// 1-shard engine with n packets, each made from tmpl by edit. Packets
	// go through one reused batch so the trace itself is not on the heap.
	grow := func(tmpl *packet.Packet, edit func(p *packet.Packet, i int)) float64 {
		batch := make([]packet.Packet, 0, 256)
		var m0, m1 runtime.MemStats
		liveHeap(&m0)
		eng := NewShardedPassive(wide, nil, 1)
		for i := 0; i < n; i++ {
			p := *tmpl
			p.Timestamp = t0.Add(time.Duration(i) * time.Millisecond)
			edit(&p, i)
			if batch = append(batch, p); len(batch) == cap(batch) {
				eng.HandleBatch(batch)
				batch = batch[:0]
			}
		}
		eng.HandleBatch(batch)
		eng.Flush()
		liveHeap(&m1)
		runtime.KeepAlive(eng)
		return (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / n
	}

	syn := pb.Syn(t0, packet.Endpoint{Addr: ext, Port: 40000}, packet.Endpoint{Addr: wide.Base() + 9, Port: 80}, 1)
	perSource := grow(syn, func(p *packet.Packet, i int) { p.IPv4.Src = ext + netaddr.V4(i) })
	t.Logf("one-destination external source: %.0f B (budget %d)", perSource, sourceBudget)
	if perSource > sourceBudget {
		t.Errorf("one-destination external source holds %.0f B of live heap, budget %d", perSource, sourceBudget)
	}

	accept := synAck(t0, wide.Base(), 80, ext)
	perSvc := grow(accept, func(p *packet.Packet, i int) { p.IPv4.Src = wide.Base() + netaddr.V4(i) })
	t.Logf("single-client service: %.0f B (budget %d)", perSvc, svcBudget)
	if perSvc > svcBudget {
		t.Errorf("single-client service holds %.0f B of live heap, budget %d", perSvc, svcBudget)
	}

	d := NewPassiveDiscoverer(wide, nil)
	p := *syn
	allocs := testing.AllocsPerRun(10_000, func() {
		p.IPv4.Src++
		d.HandlePacket(&p)
	})
	t.Logf("first SYN from a new source: %.0f allocs (budget %d)", allocs, allocBudget)
	if allocs > allocBudget {
		t.Errorf("first SYN from a new source costs %.0f allocations, budget %d", allocs, allocBudget)
	}
}

// liveHeap reads the heap after two collections — the second reclaims what
// the first cycle's sweep released — as the repo benchmark's
// heap_bytes_per_service does.
func liveHeap(m *runtime.MemStats) {
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(m)
}
