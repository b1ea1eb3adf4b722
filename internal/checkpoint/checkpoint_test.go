package checkpoint

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"servdisc/internal/core"
	"servdisc/internal/federate"
	"servdisc/internal/netaddr"
	"servdisc/internal/packet"
	"servdisc/internal/probe"
	"servdisc/internal/stats"
)

var (
	testCampus = netaddr.MustParsePrefix("128.125.0.0/16")
	testUDP    = []uint16{53, 123}
	testTCP    = []uint16{22, 80, 443}
)

// testTrace synthesizes a deterministic border-traffic stream covering
// every checkpointed state dimension: TCP and UDP services accumulating
// flows and distinct clients, an above-threshold scanner (dsts + RSTs),
// a below-threshold one, and noise.
func testTrace(seed uint64, n int) []packet.Packet {
	rng := stats.NewRNG(seed).Derive("checkpoint-test")
	bld := packet.NewBuilder(0)
	base := time.Date(2006, 9, 19, 10, 0, 0, 0, time.UTC)

	servers := make([]netaddr.V4, 30)
	for i := range servers {
		servers[i] = testCampus.Base() + netaddr.V4(256+i)
	}
	ports := []uint16{22, 80, 443, 3306}
	ext := netaddr.MustParseV4("64.0.0.0")

	var out []packet.Packet
	add := func(p *packet.Packet) { out = append(out, *p) }

	scans := []struct {
		src        netaddr.V4
		dsts, rsts int
		off        time.Duration
	}{
		{netaddr.MustParseV4("211.1.1.1"), 130, 115, 1 * time.Hour},
		{netaddr.MustParseV4("211.4.4.4"), 60, 50, 2 * time.Hour}, // below threshold
	}
	for _, sc := range scans {
		st := base.Add(sc.off)
		for i := 0; i < sc.dsts; i++ {
			dst := testCampus.Base() + netaddr.V4(1000+i)
			add(bld.Syn(st.Add(time.Duration(i)*time.Millisecond),
				packet.Endpoint{Addr: sc.src, Port: 40000}, packet.Endpoint{Addr: dst, Port: 80}, uint32(i)))
			if i < sc.rsts {
				add(bld.Rst(st.Add(time.Duration(i)*time.Millisecond+500*time.Microsecond),
					packet.Endpoint{Addr: dst, Port: 80}, packet.Endpoint{Addr: sc.src, Port: 40000}, uint32(i)+1))
			}
		}
	}
	for i := 0; i < n; i++ {
		now := base.Add(time.Duration(float64(20*time.Hour) * float64(i) / float64(n)))
		srv := servers[rng.Intn(len(servers))]
		cli := ext + netaddr.V4(rng.Intn(3000))
		port := ports[rng.Intn(len(ports))]
		switch rng.Intn(8) {
		case 0, 1, 2, 3: // completed TCP handshake
			add(bld.Syn(now, packet.Endpoint{Addr: cli, Port: 33000}, packet.Endpoint{Addr: srv, Port: port}, 7))
			add(bld.SynAck(now.Add(500*time.Microsecond), packet.Endpoint{Addr: srv, Port: port},
				packet.Endpoint{Addr: cli, Port: 33000}, 9, 8))
		case 4: // refused connection
			add(bld.Syn(now, packet.Endpoint{Addr: cli, Port: 33001}, packet.Endpoint{Addr: srv, Port: 9999}, 7))
			add(bld.Rst(now.Add(500*time.Microsecond), packet.Endpoint{Addr: srv, Port: 9999},
				packet.Endpoint{Addr: cli, Port: 33001}, 8))
		case 5: // UDP service reply
			add(bld.UDPPacket(now, packet.Endpoint{Addr: cli, Port: 34000},
				packet.Endpoint{Addr: srv, Port: 53}, []byte("q")))
			add(bld.UDPPacket(now.Add(500*time.Microsecond), packet.Endpoint{Addr: srv, Port: 53},
				packet.Endpoint{Addr: cli, Port: 34000}, []byte("r")))
		case 6: // bare ACK noise
			add(bld.TCPPacket(now, packet.Endpoint{Addr: srv, Port: port},
				packet.Endpoint{Addr: cli, Port: 33000}, packet.FlagACK, 1, 2, nil))
		case 7: // campus-internal SYN
			add(bld.Syn(now, packet.Endpoint{Addr: testCampus.Base() + 5, Port: 40000},
				packet.Endpoint{Addr: srv, Port: port}, 3))
		}
	}
	return out
}

// testEngine is the slice of both engine types the tests drive.
type testEngine interface {
	Engine
	HandleBatch([]packet.Packet)
	Flush()
	Run(ctx context.Context)
	Close()
	Snapshot() *core.Inventory
}

func feed(eng testEngine, pkts []packet.Packet) {
	const sz = 97
	for off := 0; off < len(pkts); off += sz {
		end := off + sz
		if end > len(pkts) {
			end = len(pkts)
		}
		eng.HandleBatch(pkts[off:end])
	}
	eng.Flush()
}

// testReport synthesizes one sweep report (hybrid cases).
func testReport(id int, at time.Time) *probe.ScanReport {
	return &probe.ScanReport{
		ID: id, Started: at, Finished: at.Add(30 * time.Minute),
		Summaries: []probe.AddrSummary{
			{Addr: testCampus.Base() + 256, Time: at.Add(time.Minute), Open: []uint16{80, 443}},
			{Addr: testCampus.Base() + 257, Time: at.Add(2 * time.Minute), Closed: 2, Filtered: 1},
		},
	}
}

// TestKillAndRestoreEquivalence is the subsystem's core guarantee: kill
// a checkpointed engine mid-campaign, restore a fresh one from disk,
// replay the remaining traffic, and the final Dump is byte-identical to
// a never-killed engine over the same stream — across shard counts,
// across a shard-count CHANGE at restore, passive-only and hybrid, with
// the engines idle or live.
func TestKillAndRestoreEquivalence(t *testing.T) {
	trace := testTrace(1, 5000)
	cases := []struct {
		name                 string
		srcShards, dstShards int
		hybrid               bool
		live                 bool
	}{
		{"passive-1", 1, 1, false, false},
		{"passive-2-live", 2, 2, false, true},
		{"passive-8to2", 8, 2, false, false},
		{"hybrid-1", 1, 1, true, false},
		{"hybrid-2to8", 2, 8, true, false},
		{"hybrid-8-live", 8, 8, true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := func(shards int) testEngine {
				if tc.hybrid {
					return core.NewHybrid(testCampus, testUDP, shards, testTCP)
				}
				return core.NewShardedPassive(testCampus, testUDP, shards)
			}
			report := func(eng testEngine, id int, at time.Time) {
				if h, ok := eng.(*core.Hybrid); ok {
					h.AddReport(testReport(id, at))
					h.Flush()
				}
			}
			base := trace[0].Timestamp

			// Reference: one engine sees the whole campaign, never killed.
			ref := build(tc.srcShards)
			if tc.live {
				ref.Run(context.Background())
				defer ref.Close()
			}
			feed(ref, trace[:2000])
			report(ref, 1, base.Add(time.Hour))
			feed(ref, trace[2000:4000])
			report(ref, 2, base.Add(2*time.Hour))
			feed(ref, trace[4000:])
			want := ref.Snapshot().Dump()

			// Campaign engine: checkpointed twice, then killed with
			// un-checkpointed traffic in flight.
			dir := t.TempDir()
			victim := build(tc.srcShards)
			if tc.live {
				victim.Run(context.Background())
			}
			w, err := NewWriter(victim, dir, Options{})
			if err != nil {
				t.Fatalf("NewWriter: %v", err)
			}
			feed(victim, trace[:2000])
			report(victim, 1, base.Add(time.Hour))
			if res, err := w.Checkpoint(context.Background()); err != nil {
				t.Fatalf("baseline checkpoint: %v", err)
			} else if !res.Full {
				t.Fatalf("first checkpoint not a baseline: %+v", res)
			}
			feed(victim, trace[2000:4000])
			report(victim, 2, base.Add(2*time.Hour))
			res, err := w.Checkpoint(context.Background())
			if err != nil {
				t.Fatalf("delta checkpoint: %v", err)
			}
			if res.Full {
				t.Fatalf("second checkpoint should be incremental: %+v", res)
			}
			feed(victim, trace[4000:4500]) // lost in the crash
			victim.Close()                 // the "kill"

			// Restore into a fresh engine (possibly different shard count)
			// and replay the trace from the checkpointed position.
			restored := build(tc.dstShards)
			man, err := Restore(dir, restored)
			if err != nil {
				t.Fatalf("Restore: %v", err)
			}
			if man == nil {
				t.Fatal("Restore found no manifest")
			}
			if tc.live {
				restored.Run(context.Background())
				defer restored.Close()
			}
			pos := restored.Snapshot().Packets()
			if pos != 4000 {
				t.Fatalf("restored packet position = %d, want 4000", pos)
			}
			feed(restored, trace[pos:])
			got := restored.Snapshot().Dump()
			if !bytes.Equal(want, got) {
				t.Fatalf("restored dump differs from never-killed reference\nwant %d bytes, got %d\nfirst diff near: %s",
					len(want), len(got), firstDiff(want, got))
			}
		})
	}
}

func firstDiff(a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := i - 60
			if lo < 0 {
				lo = 0
			}
			return string(a[lo:min(i+60, len(a))]) + " <-> " + string(b[lo:min(i+60, len(b))])
		}
	}
	return "length mismatch only"
}

// TestDeltaChainCompactionAndPruning drives many checkpoints through a
// short MaxDeltas, asserting the chain folds into fresh baselines, stale
// chunk files are pruned, and a restore over the compacted chain is
// still exact.
func TestDeltaChainCompactionAndPruning(t *testing.T) {
	trace := testTrace(2, 4000)
	dir := t.TempDir()
	eng := core.NewShardedPassive(testCampus, testUDP, 2)
	w, err := NewWriter(eng, dir, Options{MaxDeltas: 2})
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	sawCompaction := false
	step := len(trace) / 8
	for i := 0; i < 8; i++ {
		feed(eng, trace[i*step:(i+1)*step])
		res, err := w.Checkpoint(context.Background())
		if err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
		if res.Compacted {
			sawCompaction = true
			if !res.Full {
				t.Fatalf("checkpoint %d: compacted but not full", i)
			}
		}
	}
	if !sawCompaction {
		t.Fatal("no compaction in 8 checkpoints with MaxDeltas=2")
	}

	man, err := DecodeManifest(mustRead(t, filepath.Join(dir, ManifestName)))
	if err != nil {
		t.Fatalf("manifest: %v", err)
	}
	if len(man.Chunks) > 3 { // baseline + MaxDeltas
		t.Fatalf("chain has %d chunks, want <= 3", len(man.Chunks))
	}
	live := make(map[string]bool)
	for _, ci := range man.Chunks {
		live[ci.File] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".ckpt") && !live[e.Name()] {
			t.Fatalf("unreferenced chunk %q not pruned", e.Name())
		}
	}

	restored := core.NewShardedPassive(testCampus, testUDP, 2)
	if _, err := Restore(dir, restored); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	ref := core.NewShardedPassive(testCampus, testUDP, 2)
	feed(ref, trace[:8*step])
	if !bytes.Equal(ref.Snapshot().Dump(), restored.Snapshot().Dump()) {
		t.Fatal("restore over compacted chain differs from reference")
	}
}

// TestCheckpointSkipsWhenUnchanged: no traffic between checkpoints means
// no bytes written and no manifest churn.
func TestCheckpointSkipsWhenUnchanged(t *testing.T) {
	dir := t.TempDir()
	eng := core.NewShardedPassive(testCampus, testUDP, 4)
	w, err := NewWriter(eng, dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	feed(eng, testTrace(3, 500))
	if _, err := w.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	before := mustRead(t, filepath.Join(dir, ManifestName))
	res, err := w.Checkpoint(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Skipped || res.Bytes != 0 {
		t.Fatalf("unchanged checkpoint not skipped: %+v", res)
	}
	if res.ShardsSkipped != 4 {
		t.Fatalf("ShardsSkipped = %d, want 4", res.ShardsSkipped)
	}
	if !bytes.Equal(before, mustRead(t, filepath.Join(dir, ManifestName))) {
		t.Fatal("manifest rewritten by a skipped checkpoint")
	}
	st := w.Stats()
	if st.Checkpoints != 2 || st.ChunksSkipped != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestCorruptCheckpointFailsLoudly: any damage to any chunk — bit flip,
// truncation, deletion, manifest rot — must fail the WHOLE restore with
// a descriptive error and leave the engine completely untouched, even
// when only the last chunk of a chain is damaged.
func TestCorruptCheckpointFailsLoudly(t *testing.T) {
	trace := testTrace(4, 2000)
	dir := t.TempDir()
	eng := core.NewShardedPassive(testCampus, testUDP, 2)
	w, err := NewWriter(eng, dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	feed(eng, trace[:1000])
	if _, err := w.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	feed(eng, trace[1000:])
	if _, err := w.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	man, err := DecodeManifest(mustRead(t, filepath.Join(dir, ManifestName)))
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Chunks) != 2 {
		t.Fatalf("expected a 2-chunk chain, got %d", len(man.Chunks))
	}
	freshDump := core.NewShardedPassive(testCampus, testUDP, 2).Snapshot().Dump()

	copyDir := func(t *testing.T) string {
		dst := t.TempDir()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			data := mustRead(t, filepath.Join(dir, e.Name()))
			if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dst
	}
	expectLoudFailure := func(t *testing.T, dir string) {
		t.Helper()
		restored := core.NewShardedPassive(testCampus, testUDP, 2)
		if _, err := Restore(dir, restored); err == nil {
			t.Fatal("restore of a corrupt checkpoint succeeded")
		}
		if !bytes.Equal(restored.Snapshot().Dump(), freshDump) {
			t.Fatal("failed restore left the engine partially loaded")
		}
	}

	for _, chunk := range []int{0, 1} {
		t.Run("bitflip-chunk", func(t *testing.T) {
			d := copyDir(t)
			path := filepath.Join(d, man.Chunks[chunk].File)
			data := mustRead(t, path)
			data[len(data)/2] ^= 0x40
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			expectLoudFailure(t, d)
		})
	}
	t.Run("truncated-chunk", func(t *testing.T) {
		d := copyDir(t)
		path := filepath.Join(d, man.Chunks[1].File)
		data := mustRead(t, path)
		if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
			t.Fatal(err)
		}
		expectLoudFailure(t, d)
	})
	t.Run("missing-chunk", func(t *testing.T) {
		d := copyDir(t)
		if err := os.Remove(filepath.Join(d, man.Chunks[1].File)); err != nil {
			t.Fatal(err)
		}
		expectLoudFailure(t, d)
	})
	t.Run("rotten-manifest", func(t *testing.T) {
		d := copyDir(t)
		if err := os.WriteFile(filepath.Join(d, ManifestName), []byte("{not json"), 0o644); err != nil {
			t.Fatal(err)
		}
		expectLoudFailure(t, d)
	})
	t.Run("config-mismatch", func(t *testing.T) {
		restored := core.NewShardedPassive(netaddr.MustParsePrefix("10.0.0.0/8"), testUDP, 2)
		if _, err := Restore(dir, restored); err == nil ||
			!strings.Contains(err.Error(), "campus") {
			t.Fatalf("campus mismatch not rejected: %v", err)
		}
	})
	t.Run("hybrid-mismatch", func(t *testing.T) {
		restored := core.NewHybrid(testCampus, testUDP, 2, testTCP)
		if _, err := Restore(dir, restored); err == nil ||
			!strings.Contains(err.Error(), "hybrid") {
			t.Fatalf("hybrid mismatch not rejected: %v", err)
		}
	})
}

// TestRestoreColdStart: an empty directory is a cold start, not an
// error; a used engine refuses import.
func TestRestoreColdStart(t *testing.T) {
	eng := core.NewShardedPassive(testCampus, testUDP, 1)
	man, err := Restore(t.TempDir(), eng)
	if err != nil || man != nil {
		t.Fatalf("cold start = (%v, %v), want (nil, nil)", man, err)
	}

	dir := t.TempDir()
	w, err := NewWriter(eng, dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	feed(eng, testTrace(5, 300))
	if _, err := w.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	used := core.NewShardedPassive(testCampus, testUDP, 1)
	feed(used, testTrace(5, 10))
	if _, err := Restore(dir, used); err == nil {
		t.Fatal("restore into a used engine should fail")
	}
}

// TestManifestWithPublisherCursorRestores: writers from before every
// publisher opened its own epoch stored the federation cursor in the
// manifest. Such a manifest still restores, and the field is ignored.
func TestManifestWithPublisherCursorRestores(t *testing.T) {
	dir := t.TempDir()
	eng := core.NewShardedPassive(testCampus, testUDP, 2)
	w, err := NewWriter(eng, dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	feed(eng, testTrace(6, 800))
	if _, err := w.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, ManifestName)
	old := bytes.Replace(mustRead(t, path), []byte(`"chunks"`), []byte(`"publisher": {"epoch": 7, "seq": 41},
  "chunks"`), 1)
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	restored := core.NewShardedPassive(testCampus, testUDP, 1)
	if _, err := Restore(dir, restored); err != nil {
		t.Fatal(err)
	}
	if got, want := restored.Snapshot().Dump(), eng.Snapshot().Dump(); !bytes.Equal(got, want) {
		t.Fatalf("restored from a manifest with a publisher cursor:\n%s", firstDiff(got, want))
	}
}

// TestStateFileRoundTrip covers the aggregator-state single-file format:
// exact round trip, cold start on absence, loud failure on damage. A file
// written before upgrade events carried both first times (testdata/upgprov,
// with its writer's dump) loads too: its "upgraded"/"upg_prov" keys are
// ignored, and the one cell whose class only they held — an upgrade with
// no per-technique time yet — reads passive-first until the site's next
// snapshot supplies the times.
func TestStateFileRoundTrip(t *testing.T) {
	agg := federate.NewAggregator()
	// Give the aggregator real state via a publisher feed.
	eng := core.NewShardedPassive(testCampus, testUDP, 2)
	feed(eng, testTrace(7, 600))
	pub := federate.NewPublisher("site-b", eng)
	boot, live := pub.Catchup(16)
	live.Cancel()
	for i := range boot {
		if err := agg.Apply(&boot[i]); err != nil {
			t.Fatal(err)
		}
	}
	pub.Close()
	if agg.NumServices() == 0 {
		t.Fatal("aggregator absorbed nothing")
	}

	path := filepath.Join(t.TempDir(), "aggregator.state")
	if err := WriteStateFile(path, agg.ExportState()); err != nil {
		t.Fatalf("WriteStateFile: %v", err)
	}
	older := filepath.Join("testdata", "upgprov")
	olderDump := bytes.Replace(mustRead(t, filepath.Join(older, "parent.dump")),
		[]byte("  site-b active-first\n"), []byte("  site-b passive-first\n"), 1)
	for _, in := range []struct {
		path string
		want []byte
	}{{path, agg.Dump()}, {filepath.Join(older, "aggregator.state"), olderDump}} {
		var st federate.AggregatorState
		ok, err := ReadStateFile(in.path, &st)
		if err != nil || !ok {
			t.Fatalf("ReadStateFile(%s) = (%v, %v)", in.path, ok, err)
		}
		restored := federate.NewAggregator()
		if err := restored.ImportState(&st); err != nil {
			t.Fatalf("ImportState(%s): %v", in.path, err)
		}
		if got := restored.Dump(); !bytes.Equal(in.want, got) {
			t.Fatalf("%s: aggregator dump after a state-file round trip:\n%s\nwant:\n%s", in.path, got, in.want)
		}
		if err := restored.ImportState(&st); err == nil {
			t.Fatal("double import should fail (not fresh)")
		}
	}

	var miss federate.AggregatorState
	ok, err := ReadStateFile(filepath.Join(t.TempDir(), "absent"), &miss)
	if err != nil || ok {
		t.Fatalf("absent state file = (%v, %v), want (false, nil)", ok, err)
	}

	data := mustRead(t, path)
	data[len(data)/2] ^= 0x20
	bad := filepath.Join(t.TempDir(), "bad.state")
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadStateFile(bad, &miss); err == nil {
		t.Fatal("corrupt state file read succeeded")
	}
	if _, err := ReadStateFile(bad, &miss); err == nil {
		t.Fatal("corrupt state file read succeeded twice")
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
