package core

import (
	"bytes"
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"servdisc/internal/netaddr"
	"servdisc/internal/packet"
	"servdisc/internal/probe"
)

// splitBatches slices pkts into consecutive batches of the given size.
func splitBatches(pkts []packet.Packet, size int) [][]packet.Packet {
	var out [][]packet.Packet
	for off := 0; off < len(pkts); off += size {
		end := off + size
		if end > len(pkts) {
			end = len(pkts)
		}
		out = append(out, pkts[off:end])
	}
	return out
}

// refPassiveDump is the sequential reference: a single-threaded
// discoverer over a prefix of the stream, frozen with NewInventory.
func refPassiveDump(campus netaddr.Prefix, udpPorts []uint16, pkts []packet.Packet) []byte {
	ref := NewPassiveDiscoverer(campus, udpPorts)
	ref.HandleBatch(pkts)
	return NewInventory(ref).Dump()
}

// TestLiveSnapshotConcurrentWithIngest snapshots from a second goroutine
// while the producer keeps feeding, with no pauses at all. Every snapshot
// must land on a whole-batch boundary of the producer's stream and match
// the frozen reference for exactly that prefix.
func TestLiveSnapshotConcurrentWithIngest(t *testing.T) {
	campus := netaddr.MustParsePrefix("128.125.0.0/16")
	udpPorts := []uint16{53, 123, 137}
	pkts := genTrace(5, 20000)
	const batchSize = 64
	batches := splitBatches(pkts, batchSize)

	sp := NewShardedPassive(campus, udpPorts, 4)
	sp.Run(context.Background())

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, b := range batches {
			sp.HandleBatch(b)
		}
	}()

	var snaps []*Inventory
	for i := 0; i < 25; i++ {
		snaps = append(snaps, sp.Snapshot())
	}
	wg.Wait()
	sp.Close()

	prev := -1
	for _, inv := range snaps {
		n := inv.Packets()
		if n%batchSize != 0 && n != len(pkts) {
			t.Fatalf("snapshot caught a torn batch: %d packets", n)
		}
		if n < prev {
			t.Fatalf("snapshots went backwards: %d after %d", n, prev)
		}
		prev = n
		if got := inv.Dump(); !bytes.Equal(refPassiveDump(campus, udpPorts, pkts[:n]), got) {
			t.Fatalf("concurrent snapshot at %d packets differs from frozen reference", n)
		}
	}
	if got := sp.Snapshot().Dump(); !bytes.Equal(refPassiveDump(campus, udpPorts, pkts), got) {
		t.Fatal("final snapshot differs from full reference")
	}
}

// TestBoundaryConcurrentSnapshotAndExport: snapshots and checkpoint exports
// reach the shards through one scatter (atBoundary). Issued concurrently from
// two goroutines beside a producer that never pauses, each must land on a
// whole-batch boundary — a torn cut shows as a packet count that is no prefix
// of whole batches — and the export chain, restored at another shard count,
// must equal the frozen reference at its last cut.
func TestBoundaryConcurrentSnapshotAndExport(t *testing.T) {
	udpPorts := []uint16{53, 123, 137}
	pkts := genTrace(7, 20000)
	const batchSize = 64
	sp := NewShardedPassive(campusPfx, udpPorts, 4)
	sp.Run(context.Background())

	var fed atomic.Bool
	var cutters sync.WaitGroup
	cutters.Add(3)
	go func() {
		defer cutters.Done()
		for _, b := range splitBatches(pkts, batchSize) {
			sp.HandleBatch(b)
		}
		fed.Store(true)
	}()
	whole := func(cut string, n int) {
		if n%batchSize != 0 && n != len(pkts) {
			t.Errorf("%s caught a torn batch: %d packets", cut, n)
		}
	}
	go func() {
		defer cutters.Done()
		for last := false; !last; {
			last = fed.Load()
			whole("snapshot", sp.Snapshot().Packets())
		}
	}()
	var chain []*EngineDelta
	go func() {
		defer cutters.Done()
		var cur *CheckpointCursor
		for last := false; !last; {
			last = fed.Load()
			ed, next := sp.ExportDelta(cur)
			whole("export", ed.Packets)
			chain, cur = append(chain, ed), &next
		}
	}()
	cutters.Wait()
	sp.Close()

	restored := NewShardedPassive(campusPfx, udpPorts, 3)
	for _, ed := range chain {
		if err := restored.ImportDelta(ed); err != nil {
			t.Fatal(err)
		}
	}
	n := chain[len(chain)-1].Packets
	if n != len(pkts) {
		t.Fatalf("the export after the last batch covers %d of %d packets", n, len(pkts))
	}
	if got := restored.Snapshot().Dump(); !bytes.Equal(refPassiveDump(campusPfx, udpPorts, pkts), got) {
		t.Fatalf("%d-export chain restored differs from the frozen reference", len(chain))
	}
}

// TestSnapshotReusesFrozenViews pins the generation machinery: an
// unchanged engine returns the identical Inventory, and ingest
// invalidates it.
func TestSnapshotReusesFrozenViews(t *testing.T) {
	campus := netaddr.MustParsePrefix("128.125.0.0/16")
	pkts := genTrace(9, 4000)
	sp := NewShardedPassive(campus, []uint16{53}, 4)
	sp.HandleBatch(pkts[:2000])

	inv1 := sp.Snapshot()
	inv2 := sp.Snapshot()
	if inv1 != inv2 {
		t.Error("unchanged engine rebuilt its snapshot")
	}
	sp.HandleBatch(pkts[2000:])
	inv3 := sp.Snapshot()
	if inv3 == inv1 {
		t.Error("ingest did not invalidate the snapshot cache")
	}
	if inv3.Packets() != len(pkts) {
		t.Errorf("snapshot covers %d packets, want %d", inv3.Packets(), len(pkts))
	}
	// The first snapshot stayed frozen while the engine moved on.
	if inv1.Packets() != 2000 {
		t.Errorf("old snapshot mutated: %d packets", inv1.Packets())
	}
}

// seqHybridDump is the sequential reference for a hybrid engine: a
// PassiveDiscoverer and an ActiveDiscoverer fed the same batches and
// reports, frozen by NewHybridInventory.
func seqHybridDump(campus netaddr.Prefix, udpPorts, tcpPorts []uint16, batches [][]packet.Packet, reps []*probe.ScanReport) []byte {
	p, a := NewPassiveDiscoverer(campus, udpPorts), NewActiveDiscoverer(tcpPorts)
	for _, b := range batches {
		p.HandleBatch(b)
	}
	for _, rep := range reps {
		a.AddReport(rep)
	}
	return NewHybridInventory(p, a).Dump()
}
