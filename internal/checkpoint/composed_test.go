package checkpoint

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"slices"
	"sort"
	"testing"
	"time"

	"servdisc/internal/core"
	"servdisc/internal/packet"
)

// announcements renders the discovery events a subscription holds now —
// services found, scanners flagged — as a sorted list; drain stops at the
// first empty read instead of waiting for the stream to end.
func announcements(sub *core.EventSub, drain bool) []string {
	var out []string
	take := func(ev core.Event) {
		switch ev.Kind {
		case core.EventServiceDiscovered:
			out = append(out, fmt.Sprint("service ", ev.Key, " ", ev.Provenance))
		case core.EventScannerDetected:
			out = append(out, fmt.Sprint("scanner ", ev.Scanner.Source))
		}
	}
	if drain {
		for {
			select {
			case ev := <-sub.Events():
				take(ev)
			default:
				slices.Sort(out)
				return out
			}
		}
	}
	for ev := range sub.Events() {
		take(ev)
	}
	slices.Sort(out)
	return out
}

// TestComposedFaultCheckpoint runs the checkpoint path through several
// faults at once on one live hybrid engine with retention on: snapshots and
// checkpoints at co-prime cadences (so the cursor is sometimes the chain's
// newest inventory and sometimes several links behind it), services that
// expire and are reborn between two checkpoints (a tomb and a record for one
// key in one delta), services touched on both sides of a snapshot between
// two checkpoints (listed once all the same), a chunk write that fails because the directory vanished
// under the Writer (the next checkpoint must be a baseline), and a kill with
// traffic past the last checkpoint. The chain must restore at 1, 2 and 8
// shards to the never-killed engine's dump after the tail is replayed, and
// the restored engine must announce exactly what the reference announced
// over the same tail — nothing it had already announced before the cut.
func TestComposedFaultCheckpoint(t *testing.T) {
	trace := testTrace(8, 6000)
	// Retention decides on the observation clock; a monotone one makes the
	// outcome independent of snapshot cadence.
	sort.SliceStable(trace, func(i, j int) bool { return trace[i].Timestamp.Before(trace[j].Timestamp) })
	policy := core.RetentionPolicy{PassiveTTL: time.Hour}
	const seg = 250
	nseg := len(trace) / seg
	segment := func(i int) []packet.Packet { return trace[i*seg : (i+1)*seg] }
	build := func(shards int) *core.Hybrid {
		h := core.NewHybrid(testCampus, testUDP, shards, testTCP)
		h.SetRetention(policy)
		return h
	}
	// step feeds segment i and, every fourth segment, a sweep report timed at
	// the segment's last packet.
	step := func(h *core.Hybrid, i int) {
		feed(h, segment(i))
		if i%4 == 1 {
			h.AddReport(testReport(i, segment(i)[seg-1].Timestamp))
			h.Flush()
		}
	}

	dir := t.TempDir()
	victim := build(2)
	victim.Run(context.Background())
	w, err := NewWriter(victim, dir, Options{MaxDeltas: 64})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	lastCut, checkpoints, failed, reborn := -1, 0, false, false
	for i := 0; i < nseg-2; i++ { // the last two segments are never checkpointed
		step(victim, i)
		if i%2 == 0 {
			victim.Snapshot()
		}
		if i%3 != 2 {
			continue
		}
		if checkpoints++; checkpoints == 4 {
			if err := os.RemoveAll(dir); err != nil {
				t.Fatal(err)
			}
			if _, err := w.Checkpoint(ctx); err == nil {
				t.Fatal("checkpoint into a removed directory succeeded")
			}
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			failed = true
			continue
		}
		res, err := w.Checkpoint(ctx)
		if err != nil {
			t.Fatalf("checkpoint %d: %v", checkpoints, err)
		}
		if want := checkpoints == 1 || failed; res.Full != want {
			t.Fatalf("checkpoint %d: Full = %v, want %v (%+v)", checkpoints, res.Full, want, res)
		}
		failed = false
		lastCut = (i + 1) * seg
		if res.Full {
			continue
		}
		ed, err := DecodeChunk(lastChunk(t, dir))
		if err != nil {
			t.Fatal(err)
		}
		for j := 1; j < len(ed.Services); j++ {
			if ed.Services[j].Key == ed.Services[j-1].Key {
				t.Fatalf("checkpoint %d lists service %v twice", checkpoints, ed.Services[j].Key)
			}
		}
		for _, tb := range ed.Tombs {
			if slices.ContainsFunc(ed.Services, func(st core.ServiceState) bool { return st.Key == tb.Key }) {
				reborn = true
			}
		}
	}
	step(victim, nseg-2) // lost in the crash
	victim.Close()
	if !reborn {
		t.Fatal("no delta carried a tomb and a record for one key: the expire-and-reborn case never ran")
	}

	// The never-killed reference, its announcements split at the last cut.
	ref := build(2)
	refSub := ref.Subscribe(1 << 16)
	for i := 0; i < nseg; i++ {
		if i*seg == lastCut {
			announcements(refSub, true)
		}
		step(ref, i)
	}
	ref.Close()
	want, wantAnn := ref.Snapshot().Dump(), announcements(refSub, false)
	t.Logf("%d checkpoints, the last cut at packet %d of %d; %d announcements over the tail",
		checkpoints, lastCut, len(trace), len(wantAnn))

	for _, shards := range []int{1, 2, 8} {
		restored := build(shards)
		if _, err := Restore(dir, restored); err != nil {
			t.Fatalf("Restore at %d shards: %v", shards, err)
		}
		pos := restored.Snapshot().Packets()
		if pos != lastCut {
			t.Fatalf("%d shards: restored position %d, want the last cut %d", shards, pos, lastCut)
		}
		sub := restored.Subscribe(1 << 16)
		restored.Run(context.Background())
		for i := pos / seg; i < nseg; i++ {
			step(restored, i)
		}
		restored.Close()
		if got := restored.Snapshot().Dump(); !bytes.Equal(want, got) {
			t.Fatalf("%d shards: restored dump differs from the never-killed engine near: %s", shards, firstDiff(want, got))
		}
		if got := announcements(sub, false); !slices.Equal(got, wantAnn) {
			t.Fatalf("%d shards: restored engine announced %d discoveries over the tail, the reference %d:\n%v\nwant\n%v",
				shards, len(got), len(wantAnn), got, wantAnn)
		}
	}
}
