package checkpoint

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"servdisc/internal/core"
	"servdisc/internal/netaddr"
	"servdisc/internal/packet"
)

// The files under testdata/crossrep were written by the commit before the
// engine's per-flow identity sets changed representation (one Go map per
// set → inline small sets and a sparse peer table; DESIGN.md §7), by
// running this test there with -crossrep.write. They pin the checkpoint
// wire form across that change: the bytes on disk must not be able to tell
// which representation wrote them. Regenerate only if crossRepTrace
// changes, and only from a commit whose output is trusted.
var crossRepWrite = flag.Bool("crossrep.write", false, "rewrite testdata/crossrep from this commit's engine")

const crossRepDir = "testdata/crossrep"

// crossRepPeers are the distinct-peer counts of the trace's services at
// checkpoint time: both sides of the inline/side-table boundary
// (core's peerInline is 32) and of the peer-history cap (128).
var crossRepPeers = []int{1, 31, 32, 33, 128, 129, 300}

// crossRepTrace builds the three phases of the trace: head (covered by the
// baseline), mid (covered by the delta) and tail (replayed after restore).
//
// Services: one per entry of crossRepPeers, reaching that many distinct
// clients by the end of mid, half of them in head; the tail brings every
// earlier client back and one new client each, which walks the 32-client
// service over the promotion boundary after the restore. Scan sources: a
// one-off (one window, one destination); sets of 3 and 4 destinations
// (inline-full and just promoted); an RST-only source; a source spread
// over four windows touched out of order; a scanner flagged in head that
// keeps scanning; and one that crosses the thresholds only in the tail.
func crossRepTrace() (head, mid, tail []packet.Packet) {
	bld := packet.NewBuilder(0)
	base := time.Date(2006, 9, 19, 10, 0, 0, 0, time.UTC)
	// Clients and probe targets are numbered through a permutation so
	// that arrival order is never the sorted order the wire form wants.
	cli := func(i int) packet.Endpoint {
		return packet.Endpoint{Addr: netaddr.MustParseV4("64.0.0.0") + netaddr.V4(i*7919%4099), Port: 33000}
	}
	campus := func(i int) netaddr.V4 { return testCampus.Base() + netaddr.V4(i) }

	var out []packet.Packet
	at := base
	tick := func() time.Time { at = at.Add(time.Second); return at }
	accept := func(svc, client int) {
		out = append(out, *bld.SynAck(tick(), packet.Endpoint{Addr: campus(256 + svc), Port: 80}, cli(client), 9, 8))
	}
	syn := func(t time.Time, src netaddr.V4, dst int) {
		out = append(out, *bld.Syn(t, packet.Endpoint{Addr: src, Port: 40000}, packet.Endpoint{Addr: campus(dst), Port: 80}, 1))
	}
	rst := func(t time.Time, src netaddr.V4, dst int) {
		out = append(out, *bld.Rst(t, packet.Endpoint{Addr: campus(dst), Port: 80}, packet.Endpoint{Addr: src, Port: 40000}, 2))
	}
	probe := func(src netaddr.V4, from, to, rsts int) {
		for i := from; i < to; i++ {
			syn(tick(), src, 1000+i*37%251)
			if i < rsts {
				rst(tick(), src, 1000+i*37%251)
			}
		}
	}
	var (
		oneOff   = netaddr.MustParseV4("211.0.0.1")
		three    = netaddr.MustParseV4("211.0.0.3")
		four     = netaddr.MustParseV4("211.0.0.4")
		rstOnly  = netaddr.MustParseV4("211.0.0.5")
		spread   = netaddr.MustParseV4("211.0.0.6")
		scanner  = netaddr.MustParseV4("211.1.1.1")
		lateScan = netaddr.MustParseV4("211.2.2.2")
	)

	// Head: hours 0–3.
	syn(tick(), oneOff, 700)
	for svc, n := range crossRepPeers {
		for c := 0; c < (n+1)/2; c++ {
			accept(svc, c)
		}
	}
	out = append(out, *bld.UDPPacket(tick(), packet.Endpoint{Addr: campus(300), Port: 53}, cli(7), []byte("r")))
	for i := 0; i < 3; i++ {
		syn(tick(), three, 712-i)
		syn(tick(), four, 722-i)
	}
	rst(tick(), rstOnly, 730)
	probe(scanner, 0, 120, 110)
	probe(lateScan, 0, 40, 40)
	syn(base.Add(26*time.Hour), spread, 740) // window 2 first
	syn(base.Add(2*time.Hour), spread, 741)  // then window 0
	head = out

	// Mid: from hour 13, so the second window opens.
	out, at = nil, base.Add(13*time.Hour)
	for svc, n := range crossRepPeers {
		for c := (n + 1) / 2; c < n; c++ {
			accept(svc, c)
		}
		accept(svc, 0) // a returning client
	}
	syn(tick(), four, 723)
	syn(tick(), three, 710) // a repeat: the set stays at three
	probe(scanner, 120, 140, 0)
	probe(lateScan, 40, 60, 60)
	syn(base.Add(38*time.Hour), spread, 742) // window 3
	syn(base.Add(14*time.Hour), spread, 743) // window 1
	rst(base.Add(14*time.Hour+time.Minute), spread, 743)
	mid = out

	// Tail: hour 20 on, still inside the second window.
	out, at = nil, base.Add(20*time.Hour)
	for svc, n := range crossRepPeers {
		for c := 0; c < n; c++ {
			accept(svc, c)
		}
		accept(svc, n) // one client never seen before
	}
	syn(tick(), oneOff, 700)
	probe(scanner, 0, 150, 150)  // more of the same and more besides: no second flag
	probe(lateScan, 0, 105, 105) // 40 + 20 known, crosses 100/100 here
	tail = out
	return head, mid, tail
}

// crossRepFiles locates the recorded chain's two chunk files.
func crossRepFiles(t *testing.T) (baseline, delta string) {
	t.Helper()
	man, err := DecodeManifest(mustRead(t, filepath.Join(crossRepDir, ManifestName)))
	if err != nil {
		t.Fatalf("recorded manifest: %v", err)
	}
	if len(man.Chunks) != 2 || !man.Chunks[0].Baseline || man.Chunks[1].Baseline {
		t.Fatalf("recorded chain is not baseline + delta: %+v", man.Chunks)
	}
	return filepath.Join(crossRepDir, man.Chunks[0].File), filepath.Join(crossRepDir, man.Chunks[1].File)
}

// lastChunk reads the newest chunk of the chain a writer keeps in dir.
func lastChunk(t *testing.T, dir string) []byte {
	t.Helper()
	man, err := DecodeManifest(mustRead(t, filepath.Join(dir, ManifestName)))
	if err != nil {
		t.Fatalf("manifest in %s: %v", dir, err)
	}
	return mustRead(t, filepath.Join(dir, man.Chunks[len(man.Chunks)-1].File))
}

func checkpointBytes(t *testing.T, w *Writer, dir string, full bool) []byte {
	t.Helper()
	take := w.Checkpoint
	if full {
		take = w.Baseline
	}
	if res, err := take(context.Background()); err != nil || res.Skipped || res.Full != full {
		t.Fatalf("checkpoint (full=%v): %+v, %v", full, res, err)
	}
	return lastChunk(t, dir)
}

func sameBytes(t *testing.T, what string, got, want []byte) {
	t.Helper()
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the recorded form: %d bytes, want %d; first difference near: %s",
			what, len(got), len(want), firstDiff(want, got))
	}
}

// TestCrossRepresentationCheckpoint holds the engine to the checkpoints a
// different in-memory representation wrote: the same trace exports to the
// same chunk bytes, the recorded chain restores to the recorded dump and
// re-exports to the recorded baseline, and a restored engine resumes
// without counting a returning client or flagging a known scanner twice.
func TestCrossRepresentationCheckpoint(t *testing.T) {
	head, mid, tail := crossRepTrace()
	if *crossRepWrite {
		writeCrossRep(t, head, mid)
	}
	baseFile, deltaFile := crossRepFiles(t)

	// Write side: this engine, fed the trace, writes the recorded chunks.
	dir := t.TempDir()
	live := core.NewShardedPassive(testCampus, testUDP, 1)
	w, err := NewWriter(live, dir, Options{})
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	feed(live, head)
	sameBytes(t, "baseline chunk", checkpointBytes(t, w, dir, true), mustRead(t, baseFile))
	feed(live, mid)
	sameBytes(t, "delta chunk", checkpointBytes(t, w, dir, false), mustRead(t, deltaFile))

	// Read side: the recorded chain restores to the recorded inventory at
	// any shard count, and writes itself back out unchanged.
	wantDump := mustRead(t, filepath.Join(crossRepDir, "dump.txt"))
	for _, shards := range []int{1, 2, 8} {
		restored := core.NewShardedPassive(testCampus, testUDP, shards)
		if man, err := Restore(crossRepDir, restored); err != nil || man == nil {
			t.Fatalf("Restore at %d shards: %v, %v", shards, man, err)
		}
		sameBytes(t, "restored dump", restored.Snapshot().Dump(), wantDump)
		if shards != 1 {
			continue // the chunk header records the exporter's shard count
		}
		rdir := t.TempDir()
		rw, err := NewWriter(restored, rdir, Options{})
		if err != nil {
			t.Fatalf("NewWriter: %v", err)
		}
		sameBytes(t, "re-exported baseline", checkpointBytes(t, rw, rdir, true),
			mustRead(t, filepath.Join(crossRepDir, "reexport.ckpt")))
	}

	// Resume: the tail through a restored engine lands where it lands in
	// the engine that never stopped — no returning client counted again,
	// no promoted peer set missing a member — and the only scanner
	// announced is the one that first qualifies in the tail.
	restored := core.NewShardedPassive(testCampus, testUDP, 2)
	if _, err := Restore(crossRepDir, restored); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	events := restored.Subscribe(1 << 12)
	feed(restored, tail)
	feed(live, tail)
	restored.Close()
	sameBytes(t, "resumed dump", restored.Snapshot().Dump(), live.Snapshot().Dump())
	var flagged []netaddr.V4
	for ev := range events.Events() {
		if ev.Kind == core.EventScannerDetected {
			flagged = append(flagged, ev.Scanner.Source)
		}
	}
	if want := netaddr.MustParseV4("211.2.2.2"); len(flagged) != 1 || flagged[0] != want {
		t.Errorf("resumed run announced scanners %v, want only %v", flagged, want)
	}
	inv := restored.Snapshot()
	for svc, n := range crossRepPeers {
		key := core.ServiceKey{Addr: testCampus.Base() + netaddr.V4(256+svc), Proto: packet.ProtoTCP, Port: 80}
		rec, ok := inv.Record(key)
		if !ok || rec.Clients() != n+1 {
			t.Errorf("service %v: %d clients after the tail (found=%v), want %d", key, rec.Clients(), ok, n+1)
		}
	}
}

// writeCrossRep records the chain, the dump at checkpoint time and the
// baseline a restored engine re-exports.
func writeCrossRep(t *testing.T, head, mid []packet.Packet) {
	t.Helper()
	if err := os.RemoveAll(crossRepDir); err != nil {
		t.Fatal(err)
	}
	eng := core.NewShardedPassive(testCampus, testUDP, 1)
	w, err := NewWriter(eng, crossRepDir, Options{})
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	feed(eng, head)
	checkpointBytes(t, w, crossRepDir, true)
	feed(eng, mid)
	checkpointBytes(t, w, crossRepDir, false)
	if err := os.WriteFile(filepath.Join(crossRepDir, "dump.txt"), eng.Snapshot().Dump(), 0o644); err != nil {
		t.Fatal(err)
	}
	restored := core.NewShardedPassive(testCampus, testUDP, 1)
	if _, err := Restore(crossRepDir, restored); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	rdir := t.TempDir()
	rw, err := NewWriter(restored, rdir, Options{})
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	if err := os.WriteFile(filepath.Join(crossRepDir, "reexport.ckpt"), checkpointBytes(t, rw, rdir, true), 0o644); err != nil {
		t.Fatal(err)
	}
}
