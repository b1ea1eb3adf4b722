package query

import (
	"runtime"
	"testing"
	"time"

	"servdisc/internal/core"
	"servdisc/internal/netaddr"
	"servdisc/internal/packet"
)

// liveHeap reads the heap after two collections, as the repo benchmark
// measures heap_bytes_per_service.
func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestResidentBytesPerIndexedService is the engine index's memory gate,
// measured as the repo benchmark measures heap_bytes_per_service: live-heap
// growth per service when a catalog indexes a frozen inventory that is
// already resident. An engine epoch resolves docs through the inventory,
// so all it adds is four posting trees of 8-byte keys and their spines:
// 38 B measured, budget ≈1.1× that. A packed doc tree beside the postings
// read 84 B and fails.
func TestResidentBytesPerIndexedService(t *testing.T) {
	const (
		n      = 100_000
		budget = 42
	)
	inv := passiveInventory(t, n)
	cat := NewCatalog(time.Hour)
	before := liveHeap()
	cat.RebuildFromInventory(inv)
	perService := (float64(liveHeap()) - float64(before)) / n
	runtime.KeepAlive(cat)
	runtime.KeepAlive(inv)
	t.Logf("indexed service: %.1f B (budget %d)", perService, budget)
	if perService > budget {
		t.Errorf("indexing a service holds %.1f B of live heap, budget %d", perService, budget)
	}
	if cat.Len() != n {
		t.Fatalf("indexed %d services, want %d", cat.Len(), n)
	}
}

// TestFirstEpochAllocatesWhatItKeeps gates the bottom-up build of a first
// epoch: the bytes RebuildFromInventory allocates over a resident
// inventory must stay within 2× the live heap it leaves. The build files
// each doc in a 24-byte record and each posting array at its exact size:
// 61.6 B allocated against 37.6 B kept (1.6×). Filing every key as four
// tree edits, sorting each bucket and patching empty trees allocated
// 303.0 B against 38.1 B (8.0×) and fails.
func TestFirstEpochAllocatesWhatItKeeps(t *testing.T) {
	const n = 400_000
	inv := passiveInventory(t, n)
	cat := NewCatalog(time.Hour)
	var m runtime.MemStats
	before := liveHeap()
	runtime.ReadMemStats(&m)
	allocated := m.TotalAlloc
	cat.RebuildFromInventory(inv)
	runtime.ReadMemStats(&m)
	allocated = m.TotalAlloc - allocated
	kept := float64(liveHeap()) - float64(before)
	runtime.KeepAlive(cat)
	runtime.KeepAlive(inv)
	t.Logf("first epoch: %.1f B allocated, %.1f B kept per service", float64(allocated)/n, kept/n)
	if float64(allocated) > 2*kept {
		t.Errorf("building a first epoch allocated %.1f B per service to keep %.1f B, budget 2×", float64(allocated)/n, kept/n)
	}
	if cat.Len() != n {
		t.Fatalf("indexed %d services, want %d", cat.Len(), n)
	}
}

// passiveInventory freezes n passive services, four ports on each of n/4
// addresses, each first seen a second after the one before.
func passiveInventory(t *testing.T, n int) *core.Inventory {
	t.Helper()
	pfx := netaddr.MustParsePrefix("10.16.0.0/12")
	d := core.NewPassiveDiscoverer(pfx, nil)
	bld := packet.NewBuilder(0)
	client := packet.Endpoint{Addr: netaddr.MustParseV4("64.9.0.1"), Port: 33000}
	t0 := time.Date(2006, 9, 19, 10, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		srv := packet.Endpoint{Addr: pfx.Base() + netaddr.V4(1+i/4), Port: uint16(2000 + i%4)}
		d.HandlePacket(bld.SynAck(t0.Add(time.Duration(i)*time.Second), srv, client, 1, 1))
	}
	inv := core.NewInventory(d)
	if inv.Len() != n {
		t.Fatalf("inventory holds %d services, want %d", inv.Len(), n)
	}
	return inv
}
