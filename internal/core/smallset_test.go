package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"servdisc/internal/netaddr"
	"servdisc/internal/packet"
)

// These tests hold the small-set representations (the packed per-source
// scan windows, the sparse peer table) to the map-per-set forms they
// replaced. The references live here, in the test file, written the way
// the engine used to be: nothing observable may tell the two apart.

// refTracker is the scan detector in its map form: a map of windows per
// source, two Go maps per window, the same online peak rule.
type refTracker struct {
	origin  time.Time
	started bool
	sources map[netaddr.V4]map[int64]*refWindow
	best    map[netaddr.V4]ScannerInfo
	flagged map[netaddr.V4]bool
	flags   []ScannerInfo
}

type refWindow struct{ dsts, rsts map[netaddr.V4]struct{} }

func newRefTracker() *refTracker {
	return &refTracker{
		sources: make(map[netaddr.V4]map[int64]*refWindow),
		best:    make(map[netaddr.V4]ScannerInfo),
		flagged: make(map[netaddr.V4]bool),
	}
}

// add is the set insert alone: what record does before it looks at tallies.
func (r *refTracker) add(src netaddr.V4, idx int64, dst netaddr.V4, rst bool) *refWindow {
	if r.sources[src] == nil {
		r.sources[src] = make(map[int64]*refWindow)
	}
	w := r.sources[src][idx]
	if w == nil {
		w = &refWindow{dsts: map[netaddr.V4]struct{}{}, rsts: map[netaddr.V4]struct{}{}}
		r.sources[src][idx] = w
	}
	if rst {
		w.rsts[dst] = struct{}{}
	} else {
		w.dsts[dst] = struct{}{}
	}
	return w
}

func (r *refTracker) record(at time.Time, src, dst netaddr.V4, rst bool) {
	if !r.started {
		r.origin, r.started = at, true
	}
	d := at.Sub(r.origin)
	idx := int64(d / ScanDetectWindow)
	if d%ScanDetectWindow < 0 {
		idx-- // floor: a packet before the origin is in window −1
	}
	w := r.add(src, idx, dst, rst)
	if len(w.dsts) < ScanDetectMinDsts || len(w.rsts) < ScanDetectMinRsts {
		return
	}
	info := ScannerInfo{
		Source: src, Window: r.origin.Add(time.Duration(idx) * ScanDetectWindow),
		UniqueDsts: len(w.dsts), RstDsts: len(w.rsts),
	}
	if !r.flagged[src] {
		r.flagged[src] = true
		r.flags = append(r.flags, info)
	}
	if cur, ok := r.best[src]; ok && !cur.Window.Equal(info.Window) &&
		(info.UniqueDsts < cur.UniqueDsts || (info.UniqueDsts == cur.UniqueDsts && info.RstDsts <= cur.RstDsts)) {
		return
	}
	r.best[src] = info
}

func (r *refTracker) detect() []ScannerInfo {
	out := make([]ScannerInfo, 0, len(r.best))
	for _, info := range r.best {
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Source < out[j].Source })
	return out
}

func (r *refTracker) exportSource(src netaddr.V4) ScanSourceState {
	st := ScanSourceState{Source: src, Windows: make([]ScanWindowState, 0, len(r.sources[src]))}
	for idx, w := range r.sources[src] {
		st.Windows = append(st.Windows, ScanWindowState{Index: idx, Dsts: sortedV4Keys(w.dsts), RstDsts: sortedV4Keys(w.rsts)})
	}
	sort.Slice(st.Windows, func(i, j int) bool { return st.Windows[i].Index < st.Windows[j].Index })
	return st
}

// importSource is the map form's import: windows visited in index order,
// a repeated index overwriting the earlier listing, the peak and the
// flagged bit recomputed from every listing visited.
func (r *refTracker) importSource(ss *ScanSourceState) {
	listed := append([]ScanWindowState(nil), ss.Windows...)
	sort.Slice(listed, func(i, j int) bool { return listed[i].Index < listed[j].Index })
	windows := make(map[int64]*refWindow, len(listed))
	delete(r.best, ss.Source)
	for _, ws := range listed {
		w := &refWindow{dsts: map[netaddr.V4]struct{}{}, rsts: map[netaddr.V4]struct{}{}}
		for _, a := range ws.Dsts {
			w.dsts[a] = struct{}{}
		}
		for _, a := range ws.RstDsts {
			w.rsts[a] = struct{}{}
		}
		windows[ws.Index] = w
		if len(w.dsts) < ScanDetectMinDsts || len(w.rsts) < ScanDetectMinRsts {
			continue
		}
		r.flagged[ss.Source] = true
		if cur, ok := r.best[ss.Source]; ok && (len(w.dsts) < cur.UniqueDsts ||
			(len(w.dsts) == cur.UniqueDsts && len(w.rsts) <= cur.RstDsts)) {
			continue
		}
		r.best[ss.Source] = ScannerInfo{
			Source: ss.Source, Window: r.origin.Add(time.Duration(ws.Index) * ScanDetectWindow),
			UniqueDsts: len(w.dsts), RstDsts: len(w.rsts),
		}
	}
	r.sources[ss.Source] = windows
}

// sortedV4Keys renders a map-form address set ascending, nil when empty, as
// the engine's exports did before addrSet.
func sortedV4Keys(m map[netaddr.V4]struct{}) []netaddr.V4 {
	if len(m) == 0 {
		return nil
	}
	out := make([]netaddr.V4, 0, len(m))
	for a := range m {
		out = append(out, a)
	}
	slices.Sort(out)
	return out
}

// compareTrackers checks everything the tracker shows the rest of the
// engine: detections, per-source checkpoint state, and who was flagged.
func compareTrackers(t *testing.T, ctx string, got *scanTracker, want *refTracker) {
	t.Helper()
	if g, w := got.detect(), want.detect(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: detect() = %v, reference %v", ctx, g, w)
	}
	if got.sources.used != len(want.sources) {
		t.Fatalf("%s: %d sources, reference %d", ctx, got.sources.used, len(want.sources))
	}
	for src := range want.sources {
		if g, w := got.exportSource(src), want.exportSource(src); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: source %v exports %+v, reference %+v", ctx, src, g, w)
		}
		if got.flagged[src] != want.flagged[src] {
			t.Fatalf("%s: source %v flagged = %v, reference %v", ctx, src, got.flagged[src], want.flagged[src])
		}
	}
}

// edgeIn is the largest window index a record header holds; −edgeIn−1 is
// the smallest.
const edgeIn = 1<<22 - 1

// TestImportSourceTable feeds importSource the window lists a checkpoint
// written by this engine never holds — out of order, repeated, empty — and
// the ones that sit on the packed form's edges — a set exactly full, a
// record in the middle that has to grow, indexes either side of the
// header's 23 bits, an empty record (one word, as long as a reference)
// behind a promoted one — and expects what the map form did with them, on
// a source that already held an earlier delta's state.
func TestImportSourceTable(t *testing.T) {
	addrs := func(from, n int) []netaddr.V4 {
		out := make([]netaddr.V4, n)
		for i := range out {
			out[i] = netaddr.V4(from + n - 1 - i) // descending: unsorted on the wire
		}
		return out
	}
	src := netaddr.MustParseV4("211.9.9.9")
	const far = int64(1) << 40
	cases := []struct {
		name    string
		windows []ScanWindowState
	}{
		{"no windows", nil},
		{"one empty window", []ScanWindowState{{Index: 4}}},
		{"unsorted windows and members", []ScanWindowState{
			{Index: 3, Dsts: addrs(10, 5)}, {Index: -1, RstDsts: addrs(1, 2)}, {Index: 0, Dsts: addrs(7, 3), RstDsts: addrs(7, 3)},
		}},
		{"repeated members", []ScanWindowState{{Index: 0, Dsts: []netaddr.V4{5, 5, 6, 5, 6}}}},
		{"duplicate index, last listing wins", []ScanWindowState{
			{Index: 2, Dsts: addrs(1, 2)}, {Index: 1, Dsts: addrs(50, 1)}, {Index: 2, Dsts: addrs(30, 4)},
		}},
		{"qualifying window listed first", []ScanWindowState{
			{Index: 5, Dsts: addrs(0, 130), RstDsts: addrs(0, 110)}, {Index: 1, Dsts: addrs(0, 3)},
		}},
		{"two qualifying windows, later one better", []ScanWindowState{
			{Index: 0, Dsts: addrs(0, 100), RstDsts: addrs(0, 100)}, {Index: 1, Dsts: addrs(0, 101), RstDsts: addrs(0, 100)},
		}},
		{"two qualifying windows, full tie", []ScanWindowState{
			{Index: 1, Dsts: addrs(0, 100), RstDsts: addrs(0, 100)}, {Index: 0, Dsts: addrs(500, 100), RstDsts: addrs(500, 100)},
		}},
		{"duplicate index hiding a qualifying listing", []ScanWindowState{
			{Index: 0, Dsts: addrs(0, 120), RstDsts: addrs(0, 120)}, {Index: 0, Dsts: addrs(0, 2)},
		}},
		{"duplicate index hiding a promoted listing", []ScanWindowState{
			{Index: 3, Dsts: addrs(0, 12)}, {Index: 3, RstDsts: addrs(0, 2)}, {Index: 4, Dsts: addrs(0, 1)},
		}},
		{"destinations cross 8 to 9 on import", []ScanWindowState{{Index: 0, Dsts: addrs(0, 9), RstDsts: addrs(0, 8)}}},
		{"RSTs cross 8 to 9 on import", []ScanWindowState{{Index: 0, Dsts: addrs(0, 8), RstDsts: addrs(0, 9)}}},
		{"both sets full, crossed by the resumed ingest", []ScanWindowState{
			{Index: 2, Dsts: addrs(0, 8), RstDsts: addrs(20, 8)}, {Index: 3, Dsts: addrs(0, 1)},
		}},
		{"middle record grows after later ones exist", []ScanWindowState{
			{Index: 1, Dsts: addrs(0, 2)}, {Index: 2, Dsts: addrs(0, 2), RstDsts: addrs(5, 2)}, {Index: 9, Dsts: addrs(0, 3)}, {Index: 11, RstDsts: addrs(0, 9)},
		}},
		{"window indexes outside int32", []ScanWindowState{
			{Index: far, Dsts: addrs(0, 2)}, {Index: 7, Dsts: addrs(0, 1)}, {Index: -far, RstDsts: addrs(0, 12)},
		}},
		{"window indexes on the header's edges", []ScanWindowState{
			{Index: edgeIn, Dsts: addrs(0, 2)}, {Index: edgeIn + 1, RstDsts: addrs(0, 3)}, {Index: -edgeIn - 2, Dsts: addrs(0, 1)}, {Index: -edgeIn - 1},
		}},
		{"empty window after a promoted one", []ScanWindowState{{Index: 1, Dsts: addrs(0, 12)}, {Index: 2}, {Index: 3, Dsts: addrs(0, 1)}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, want := newScanTracker(), newRefTracker()
			got.onDetect = func(ScannerInfo, time.Time) {}
			got.seed(t0)
			want.origin, want.started = t0, true
			// An earlier delta's listing, promoted windows included, is
			// replaced wholesale.
			for _, windows := range [][]ScanWindowState{{{Index: 2, Dsts: addrs(0, 20)}, {Index: far, Dsts: addrs(0, 1)}, {Index: 6, Dsts: addrs(0, 3)}}, tc.windows} {
				ss := ScanSourceState{Source: src, Windows: windows}
				got.importSource(&ss)
				want.importSource(&ss)
				compareTrackers(t, "after import", got, want)
			}

			// The imported source keeps working: a SYN and a RST in its
			// newest listed window (a middle record of the longer lists)
			// and in a fresh one, and — past what a timestamp can reach —
			// one more member in each far window.
			for _, idx := range []int64{2, 9} {
				at := t0.Add(time.Duration(idx)*ScanDetectWindow + time.Minute)
				got.recordSyn(at, src, 999)
				want.record(at, src, 999, false)
				got.recordRst(at, src, 998)
				want.record(at, src, 998, true)
			}
			for _, idx := range []int64{far, -far, edgeIn, edgeIn + 1, -edgeIn - 1, -edgeIn - 2} {
				got.add(src, idx, 999, false)
				want.add(src, idx, 999, false)
			}
			compareTrackers(t, "after resumed ingest", got, want)
		})
	}
}

// TestScanWindowBeforeOrigin: a packet stamped before the origin belongs to
// window −1. Truncating division put it in window 0 with everything up to
// 12 h after the origin, and announced two half-scans 22 h apart as one.
func TestScanWindowBeforeOrigin(t *testing.T) {
	src := netaddr.MustParseV4("211.9.9.9")
	tr := newScanTracker()
	tr.onDetect = func(info ScannerInfo, _ time.Time) { t.Errorf("announced %+v", info) }
	tr.seed(t0)
	for i := 0; i < 120; i++ {
		at := t0.Add(-11 * time.Hour)
		if i >= 60 {
			at = t0.Add(11 * time.Hour)
		}
		tr.recordSyn(at, src, netaddr.V4(i))
		tr.recordRst(at, src, netaddr.V4(i))
	}
	if got := tr.detect(); len(got) != 0 {
		t.Errorf("detect() = %+v, want none: neither 12 h window saw 100 destinations", got)
	}
	st := tr.exportSource(src)
	if len(st.Windows) != 2 || st.Windows[0].Index != -1 || st.Windows[1].Index != 0 ||
		len(st.Windows[0].Dsts) != 60 || len(st.Windows[1].RstDsts) != 60 {
		t.Errorf("%d windows, first %+v, want 60 contacts each in windows -1 and 0", len(st.Windows), st.Windows[0])
	}
}

// TestPromotedWindowsAcrossShardCounts: traffic that leaves promoted
// windows on every shard of a 2-shard engine shows the one-shard run's
// per-source tracker state and detections, through a checkpoint export and
// through the snapshot merge — and so does a 1-shard engine restored from
// the 2-shard export, where both shards' big windows land in one tracker.
func TestPromotedWindowsAcrossShardCounts(t *testing.T) {
	bld := packet.NewBuilder(0)
	var pkts []packet.Packet
	var srcs []netaddr.V4
	for i := 0; i < 24; i++ {
		src := netaddr.MustParseV4("211.0.0.0") + netaddr.V4(i)
		srcs = append(srcs, src)
		dsts := []int{1, 5, 8, 9, 30, 130}[i%6]
		for w := 0; w < 3; w++ { // the middle window of three is the big one
			at := t0.Add(time.Duration(w)*ScanDetectWindow + time.Duration(i)*time.Second)
			n := dsts
			if w != 1 {
				n = dsts/4 + 1
			}
			for j := 0; j < n; j++ {
				dst := packet.Endpoint{Addr: campusPfx.Base() + netaddr.V4(100+j), Port: 80}
				pkts = append(pkts, *bld.Syn(at, packet.Endpoint{Addr: src, Port: 40000}, dst, 1),
					*bld.Rst(at, dst, packet.Endpoint{Addr: src, Port: 40000}, 2))
			}
		}
	}
	one, two := NewShardedPassive(campusPfx, nil, 1), NewShardedPassive(campusPfx, nil, 2)
	one.HandleBatch(pkts)
	two.HandleBatch(pkts)
	for i, sh := range two.shards {
		if len(sh.disc.track.big) == 0 {
			t.Fatalf("shard %d holds no promoted window: the cross-shard path is not exercised", i)
		}
	}
	want, _ := one.ExportDelta(nil)
	wantScanners := one.Snapshot().Scanners()
	if len(want.ScanSources) != len(srcs) || len(wantScanners) != 4 {
		t.Fatalf("one-shard run: %d sources, %d scanners; want %d and 4", len(want.ScanSources), len(wantScanners), len(srcs))
	}
	check := func(label string, eng *ShardedPassive) {
		t.Helper()
		got, _ := eng.ExportDelta(nil)
		if !reflect.DeepEqual(got.ScanSources, want.ScanSources) {
			t.Fatalf("%s: exported scan sources differ from the one-shard run's", label)
		}
		if g := eng.Snapshot().Scanners(); !reflect.DeepEqual(g, wantScanners) {
			t.Fatalf("%s: Scanners() = %v, one-shard run %v", label, g, wantScanners)
		}
	}
	check("two shards", two)
	ed, _ := two.ExportDelta(nil)
	restored := NewShardedPassive(campusPfx, nil, 1)
	if err := restored.ImportDelta(ed); err != nil {
		t.Fatal(err)
	}
	check("two shards restored into one", restored)
}

// scanOp is one decoded fuzz record.
type scanOp struct {
	src, dst netaddr.V4
	rst      bool
	dt       time.Duration
}

// decodeScanOps reads 3-byte records: source (3 bits), SYN or RST (1 bit),
// a time step of −8..+7 half-windows (4 bits, so streams cross window
// boundaries in both directions), and a 16-bit destination.
func decodeScanOps(data []byte) []scanOp {
	ops := make([]scanOp, 0, len(data)/3)
	for ; len(data) >= 3; data = data[3:] {
		ops = append(ops, scanOp{
			src: netaddr.V4(data[0] & 7),
			rst: data[0]&8 != 0,
			dt:  time.Duration(int(data[0]>>4)-8) * ScanDetectWindow / 2,
			dst: netaddr.V4(binary.BigEndian.Uint16(data[1:])),
		})
	}
	return ops
}

func encodeScanOps(ops []scanOp) []byte {
	out := make([]byte, 0, 3*len(ops))
	for _, op := range ops {
		b := byte(op.src&7) | byte(int(op.dt/(ScanDetectWindow/2))+8)<<4
		if op.rst {
			b |= 8
		}
		out = append(out, b, byte(op.dst>>8), byte(op.dst))
	}
	return out
}

// FuzzScanTrackerEquivalence feeds one arbitrary (source, destination,
// SYN|RST, Δt) stream to the tracker and to the map-form reference and
// requires the same detections, the same announcements in the same order,
// the same checkpoint state per source, and the same again after that
// state is imported into fresh trackers — every window index moved by
// shift, which reaches indexes no timestamp can — and the stream is
// replayed on top.
func FuzzScanTrackerEquivalence(f *testing.F) {
	var scan, twoWindows []scanOp
	for i := 0; i < 130; i++ {
		scan = append(scan, scanOp{src: 1, dst: netaddr.V4(i)}, scanOp{src: 1, dst: netaddr.V4(i), rst: true})
		twoWindows = append(twoWindows, scanOp{src: 2, dst: netaddr.V4(i % 101)}, scanOp{src: 2, dst: netaddr.V4(i % 101), rst: true})
	}
	twoWindows[len(twoWindows)/2].dt = ScanDetectWindow
	f.Add(encodeScanOps(scan), int64(0))
	f.Add(encodeScanOps(twoWindows), int64(0))
	f.Add(encodeScanOps([]scanOp{{src: 3, dst: 1}, {src: 3, dst: 2, dt: -3 * ScanDetectWindow}, {src: 3, dst: 1, rst: true, dt: ScanDetectWindow}}), int64(0))
	// Two half-scans either side of the origin: windows −1 and 0, not one.
	straddle := []scanOp{{src: 4, dst: 1000}}
	for i := 0; i < 120; i++ {
		straddle = append(straddle, scanOp{src: 4, dst: netaddr.V4(i)}, scanOp{src: 4, dst: netaddr.V4(i), rst: true})
	}
	straddle[1].dt, straddle[121].dt = -ScanDetectWindow/2, ScanDetectWindow
	f.Add(encodeScanOps(straddle), int64(0))
	// Sets filling to 8 and crossing to 9 on each side, in a window revisited
	// after two later ones exist — and, imported, windows 0–2 moved to either
	// edge of the header's index field: edgeIn and edgeIn+1, −edgeIn−2 and
	// −edgeIn−1.
	var cross []scanOp
	for i := 0; i < 8; i++ {
		cross = append(cross, scanOp{src: 5, dst: netaddr.V4(i)}, scanOp{src: 5, dst: netaddr.V4(i), rst: true})
	}
	cross = append(cross, scanOp{src: 5, dst: 50, dt: ScanDetectWindow}, scanOp{src: 5, dst: 51, dt: ScanDetectWindow},
		scanOp{src: 5, dst: 8, rst: true, dt: -2 * ScanDetectWindow}, scanOp{src: 5, dst: 8}, scanOp{src: 5, dst: 52, dt: ScanDetectWindow})
	for _, shift := range []int64{0, edgeIn, -edgeIn - 2} {
		f.Add(encodeScanOps(cross), shift)
	}
	// A window promoted past scanInline on both sides, then 0.0.0.0 — the
	// addrSet's empty-slot value — added to both sets and repeated.
	var zero []scanOp
	for i := 1; i <= scanInline+2; i++ {
		zero = append(zero, scanOp{src: 6, dst: netaddr.V4(i)}, scanOp{src: 6, dst: netaddr.V4(i), rst: true})
	}
	zero = append(zero, scanOp{src: 6, dst: 0}, scanOp{src: 6, dst: 0, rst: true}, scanOp{src: 6, dst: 0}, scanOp{src: 6, dst: 0, rst: true})
	f.Add(encodeScanOps(zero), int64(0))
	f.Add([]byte{}, int64(0))

	f.Fuzz(func(t *testing.T, data []byte, shift int64) {
		if len(data) > 1<<14 {
			return
		}
		ops := decodeScanOps(data)
		play := func(got *scanTracker, want *refTracker) {
			at := t0
			for _, op := range ops {
				at = at.Add(op.dt)
				if op.rst {
					got.recordRst(at, op.src, op.dst)
				} else {
					got.recordSyn(at, op.src, op.dst)
				}
				want.record(at, op.src, op.dst, op.rst)
			}
		}
		var flags []ScannerInfo
		got, want := newScanTracker(), newRefTracker()
		got.onDetect = func(info ScannerInfo, _ time.Time) { flags = append(flags, info) }
		play(got, want)
		compareTrackers(t, "after the stream", got, want)
		if !reflect.DeepEqual(flags, want.flags) {
			t.Fatalf("announced %v, reference %v", flags, want.flags)
		}

		// Through the checkpoint form and on: a restored tracker must not
		// announce again what its state already shows.
		got2, want2 := newScanTracker(), newRefTracker()
		flags = nil
		got2.onDetect = got.onDetect
		if got.started {
			got2.seed(got.origin)
			want2.origin, want2.started = want.origin, true
		}
		for src := range want.sources {
			ss := got.exportSource(src)
			for i := range ss.Windows {
				ss.Windows[i].Index += shift
			}
			got2.importSource(&ss)
			want2.importSource(&ss)
		}
		compareTrackers(t, "after import", got2, want2)
		play(got2, want2)
		compareTrackers(t, "after replay on the imported state", got2, want2)
		if !reflect.DeepEqual(flags, want2.flags) {
			t.Fatalf("restored tracker announced %v, reference %v", flags, want2.flags)
		}
	})
}

// TestSourceTableModel holds the scan tracker's source table to the Go map
// it replaced, map[netaddr.V4][]uint32, through random finds, inserts,
// appends and in-place updates: every growth step from 8 slots to 8 192,
// 0.0.0.0 as a source, runs shrunk in place (as a promotion shrinks a
// record) and grown again, and sources listed with no windows (as an
// import of an empty listing leaves them). A hit allocates nothing. Under
// -race, checkptr holds every words() slice to its allocation.
func TestSourceTableModel(t *testing.T) {
	const pool = 6000 // sources 0.0.0.0 … 0.0.23.111; past 3 072 listed, the table has 8 192 slots
	rng := rand.New(rand.NewSource(1))
	tr := newScanTracker()
	tab := &tr.sources
	ref := make(map[netaddr.V4][]uint32)
	check := func(src netaddr.V4) {
		t.Helper()
		sl := tab.find(src)
		want, listed := ref[src]
		if (sl.w != nil) != listed || !slices.Equal(sl.words(), want) {
			t.Fatalf("%d slots: source %v holds %v (listed %v), reference %v (listed %v)", len(tab.slots), src, sl.words(), sl.w != nil, want, listed)
		}
	}
	checkAll := func() {
		t.Helper()
		n := 0
		for src := range tab.all() {
			if _, listed := ref[src]; !listed {
				t.Fatalf("%d slots: all() yields %v, which the reference does not list", len(tab.slots), src)
			}
			n++
		}
		if n != len(ref) || tab.used != len(ref) {
			t.Fatalf("%d slots: all() yields %d sources, used %d, reference %d", len(tab.slots), n, tab.used, len(ref))
		}
		for i := 0; i < pool+100; i++ {
			check(netaddr.V4(i))
		}
	}
	for step, slots := 0, len(tab.slots); step < 60_000; step++ {
		src := netaddr.V4(rng.Intn(pool))
		w, listed := ref[src]
		switch r := rng.Intn(10); {
		case r < 5: // find or insert, then append
			sl := tab.slot(src)
			k := 1 + rng.Intn(6)
			s := growWords(sl.words(), k)
			for i := len(s) - k; i < len(s); i++ {
				s[i] = rng.Uint32()
			}
			sl.set(s)
			ref[src] = append(w, s[len(s)-k:]...)
		case r < 7 && listed: // update a word in place
			i, v := rng.Intn(len(w)), rng.Uint32()
			tab.slot(src).words()[i], w[i] = v, v
		case r < 9 && len(w) > 1: // shrink in place
			m := 1 + rng.Intn(len(w)-1)
			sl := tab.slot(src)
			sl.set(sl.words()[:m])
			ref[src] = w[:m]
		case r == 9 && !listed:
			tr.truncate(src, 1)
			ref[src] = []uint32{1}
		}
		check(src)
		if len(tab.slots) != slots {
			checkAll()
			slots = len(tab.slots)
		}
	}
	checkAll()
	if len(tab.slots) != 8192 {
		t.Fatalf("the table ended at %d slots, want 8 192: not every growth step was crossed", len(tab.slots))
	}
	if _, listed := ref[0]; !listed {
		t.Fatal("0.0.0.0 was never listed")
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = tab.slot(0).words() }); allocs != 0 {
		t.Fatalf("a hit lookup allocates %.0f times, want 0", allocs)
	}
}

// TestPeerDedupModel checks the distinct-peer dedup — the peer history scanned
// while a service is small, the side table past peerInline — against one
// map per service, through everything that touches the state: repeats,
// seals (so records are cloned before their next write), an observe-side
// incarnation split, a snapshot-side TTL expiry, and the checkpoint form.
// 0.0.0.0 is a peer of every pool (the addrSet holds it beside its slots),
// and the largest pool is swept whole, so its set crosses every growth step.
func TestPeerDedupModel(t *testing.T) {
	const ttl = time.Hour
	type refSvc struct {
		peers    map[netaddr.V4]struct{}
		first    []netaddr.V4
		lastSeen time.Time
	}
	// Client pools sized to end below, at, just past and far past both
	// boundaries (peerInline, maxFirstPeers).
	pools := []int{1, 3, peerInline - 1, peerInline, peerInline + 1, 2 * peerInline, maxFirstPeers, maxFirstPeers + 1, 300, 5000}
	big := len(pools) - 1
	keyOf := func(i int) ServiceKey {
		return ServiceKey{Addr: campusPfx.Base() + netaddr.V4(300+i), Proto: packet.ProtoTCP, Port: 80}
	}
	peerOf := func(r int) netaddr.V4 {
		if r == 0 {
			return 0
		}
		return netaddr.MustParseV4("64.0.0.0") + netaddr.V4(r)
	}

	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		d := NewPassiveDiscoverer(campusPfx, nil)
		d.setRetention(RetentionPolicy{PassiveTTL: ttl})
		ref := make(map[ServiceKey]*refSvc)
		now := t0

		observe := func(i int, peer netaddr.V4) {
			key := keyOf(i)
			d.observe(key, now, peer)
			r := ref[key]
			if r != nil && !now.Before(r.lastSeen.Add(ttl)) {
				r = nil // the old incarnation's deadline passed: split
			}
			if r == nil {
				r = &refSvc{peers: make(map[netaddr.V4]struct{})}
				ref[key] = r
			}
			if _, seen := r.peers[peer]; !seen {
				r.peers[peer] = struct{}{}
				if len(r.first) < maxFirstPeers {
					r.first = append(r.first, peer)
				}
			}
			r.lastSeen = now
		}
		check := func(ctx string) {
			t.Helper()
			if n := liveServices(d); n != len(ref) {
				t.Fatalf("seed %d, %s: %d live services, reference %d", seed, ctx, n, len(ref))
			}
			for key, r := range ref {
				rec := d.service(key)
				if rec == nil {
					t.Fatalf("seed %d, %s: %v missing", seed, ctx, key)
				}
				if rec.Clients() != len(r.peers) {
					t.Fatalf("seed %d, %s: %v has %d clients, reference %d", seed, ctx, key, rec.Clients(), len(r.peers))
				}
				first := make([]netaddr.V4, len(rec.FirstPeers()))
				for i, pc := range rec.FirstPeers() {
					first[i] = pc.Peer
				}
				if !slices.Equal(first, r.first) {
					t.Fatalf("seed %d, %s: %v first peers %v, reference %v", seed, ctx, key, first, r.first)
				}
				if got, want := d.exportService(key).Peers, sortedV4Keys(r.peers); !slices.Equal(got, want) {
					t.Fatalf("seed %d, %s: %v exports peers %v, reference %v", seed, ctx, key, got, want)
				}
				if _, table := d.peers[key]; table != (len(r.peers) > peerInline) {
					t.Fatalf("seed %d, %s: %v with %d clients, side table present = %v", seed, ctx, key, len(r.peers), table)
				}
			}
		}

		type sealedAt struct {
			rec     PassiveRecord
			clients int
			first   []PeerContact
		}
		var sealed []sealedAt
		sweep := func() {
			for _, r := range rng.Perm(pools[big]) {
				observe(big, peerOf(r))
			}
		}
		for step := 0; step < 6000; step++ {
			now = now.Add(time.Second)
			i := rng.Intn(len(pools))
			observe(i, peerOf(rng.Intn(pools[i])))
			switch {
			case step == 1000 || step == 5000:
				sweep()
			case step%97 == 0:
				// Seal, and remember the records the seal hands out — the
				// whole shard the first time, what changed since afterwards:
				// later writes must not reach them. (noRecord is a removal.)
				for _, r := range d.seal(step == 0).recs {
					if r.Val.held() {
						sealed = append(sealed, sealedAt{r.Val, r.Val.Clients(), slices.Clone(r.Val.FirstPeers())})
					}
				}
				check("after a seal")
			case step == 2000:
				// A quiet spell longer than the TTL, ended by evidence for
				// half the services: those split on observe, the rest are
				// expired by the sweep that follows.
				now = now.Add(2 * ttl)
				for i := 0; i < len(pools); i += 2 {
					observe(i, peerOf(0))
				}
				d.expireDue(now)
				for key, r := range ref {
					if !r.lastSeen.Add(ttl).After(now) {
						delete(ref, key)
					}
				}
				check("after the split and the expiry")
			}
		}
		check("at the end")
		for _, s := range sealed {
			if s.rec.Clients() != s.clients || !slices.Equal(s.rec.FirstPeers(), s.first) {
				t.Fatalf("seed %d: a sealed record changed after its seal", seed)
			}
		}

		// Through the checkpoint form: the import picks the same
		// representation per service and exports the same state.
		fresh := NewPassiveDiscoverer(campusPfx, nil)
		for key := range ref {
			st := d.exportService(key)
			fresh.importService(&st)
			if got := fresh.exportService(key); !reflect.DeepEqual(got, st) {
				t.Fatalf("seed %d: %v re-exports %+v, imported %+v", seed, key, got, st)
			}
		}
		d = fresh
		d.setRetention(RetentionPolicy{PassiveTTL: ttl})
		check("after import")
		for step := 0; step < 2000; step++ {
			now = now.Add(time.Second)
			i := rng.Intn(len(pools))
			observe(i, peerOf(rng.Intn(pools[i])))
			if step == 1000 {
				sweep()
			}
		}
		check("after resumed ingest")
	}
}

// TestImportRefusesInconsistentPeers: every exporter writes a service's
// Peers as exactly Clients distinct addresses. A delta that breaks that —
// too few peers, too many, one listed twice — is refused with the key named
// and nothing written, since the restored clients= would drift from the
// uninterrupted run's; the untouched delta then imports as usual.
func TestImportRefusesInconsistentPeers(t *testing.T) {
	checkImportRefuses(t, map[string]func(st *ServiceState){
		"10 peers for 40 clients": func(st *ServiceState) { st.Peers = st.Peers[:10] },
		"41 peers for 40 clients": func(st *ServiceState) { st.Peers = append(st.Peers, 1) },
		"a peer listed twice":     func(st *ServiceState) { st.Peers[7] = st.Peers[3] },
	})
}

// TestImportRefusesInconsistentPeerHistory: a record holds one first contact
// per client up to maxFirstPeers, the first of them at FirstSeen, and its
// client count in 32 bits, so a delta whose peer history says otherwise
// cannot be installed without the two disagreeing. It is refused like an
// inconsistent peer set, and so is a negative flow count: the restored
// site's bootstrap frame would carry it, and every aggregator refuses that
// frame whole.
func TestImportRefusesInconsistentPeerHistory(t *testing.T) {
	checkImportRefuses(t, map[string]func(st *ServiceState){
		"39 first peers for 40 clients": func(st *ServiceState) { st.FirstPeers = st.FirstPeers[:39] },
		"41 first peers for 40 clients": func(st *ServiceState) {
			st.FirstPeers = append(st.FirstPeers, PeerContact{Peer: 1, Time: st.LastSeen})
		},
		"no first peers for 40 clients": func(st *ServiceState) { st.FirstPeers = nil },
		"first peer after FirstSeen": func(st *ServiceState) {
			st.FirstPeers[0].Time = st.FirstPeers[0].Time.Add(time.Nanosecond)
		},
		"FirstSeen before the first peer": func(st *ServiceState) { st.FirstSeen = st.FirstSeen.Add(-time.Second) },
		"negative clients": func(st *ServiceState) {
			st.Clients, st.FirstPeers, st.Peers = -1, nil, nil
		},
		"clients past 32 bits": func(st *ServiceState) { st.Clients = 1<<32 + 40 },
		"negative flows":       func(st *ServiceState) { st.Flows = -1 },
	})
}

// checkImportRefuses imports a two-service delta — a 1-client service, then
// a 40-client one — with each edit applied to a copy of the second service,
// and requires each to be refused with that service's key named and nothing
// written, and the untouched delta to import and re-export as usual after.
func checkImportRefuses(t *testing.T, tamper map[string]func(st *ServiceState)) {
	t.Helper()
	pkts := []packet.Packet{*synAck(t0, campusPfx.Base()+1, 22, netaddr.MustParseV4("64.0.0.1"))}
	for i := 0; i < 40; i++ {
		pkts = append(pkts, *synAck(t0.Add(time.Duration(i)*time.Second), campusPfx.Base()+2, 80, netaddr.MustParseV4("64.0.0.0")+netaddr.V4(i)))
	}
	src := NewShardedPassive(campusPfx, nil, 1)
	src.HandleBatch(pkts)
	want, _ := src.ExportDelta(nil)
	if len(want.Services) != 2 || want.Services[1].Clients != 40 {
		t.Fatalf("exported %+v, want a 1-client service before a 40-client one", want.Services)
	}
	bad := want.Services[1].Key
	for name, edit := range tamper {
		ed := *want
		ed.Services = slices.Clone(want.Services)
		ed.Services[1].Peers = slices.Clone(want.Services[1].Peers)
		ed.Services[1].FirstPeers = slices.Clone(want.Services[1].FirstPeers)
		edit(&ed.Services[1])
		dst := NewShardedPassive(campusPfx, nil, 1)
		err := dst.ImportDelta(&ed)
		if err == nil || !strings.Contains(err.Error(), bad.String()) {
			t.Fatalf("%s: ImportDelta = %v, want an error naming %v", name, err, bad)
		}
		if n := liveServices(dst.shards[0].disc); n != 0 {
			t.Fatalf("%s: the refused delta wrote %d services", name, n)
		}
		if err := dst.ImportDelta(want); err != nil {
			t.Fatalf("%s: the untouched delta after a refusal: %v", name, err)
		}
		if got, _ := dst.ExportDelta(nil); !reflect.DeepEqual(got.Services, want.Services) {
			t.Fatalf("%s: re-export %+v, want %+v", name, got.Services, want.Services)
		}
	}
}

// TestPeerHistoryModel holds a record's peer history — the first peer
// inline, the rest in an array grown by powers of two — to a plain
// []PeerContact through random observe streams: every capacity step to
// maxFirstPeers peers and past it, 0.0.0.0 among the peers (the first one,
// for odd seeds), a clone sealed at
// every length (which must keep its FirstPeers after the live record appends
// past it, in place or into a grown array), and export/import round trips on
// either side of the capacity steps, with ingest resumed on the imported
// record. A repeat peer allocates nothing. Under -race, checkptr holds every
// restPeers view to its allocation.
func TestPeerHistoryModel(t *testing.T) {
	const pool = 300
	key := ServiceKey{Addr: campusPfx.Base() + 7, Proto: packet.ProtoTCP, Port: 443}
	peerOf := func(i int) netaddr.V4 {
		if i == 0 {
			return 0
		}
		return netaddr.MustParseV4("64.0.0.0") + netaddr.V4(i)
	}
	roundTrip := map[int]bool{1: true, 2: true, 3: true, 5: true, 64: true, 65: true, 127: true, 128: true, 129: true, 200: true}
	for _, seed := range []int64{1, 2, 3, 4} {
		rng := rand.New(rand.NewSource(seed))
		d := NewPassiveDiscoverer(campusPfx, nil)
		d.seal(true)
		var ref []PeerContact
		seen := make(map[netaddr.V4]bool)
		type sealedAt struct {
			rec   PassiveRecord
			first []PeerContact
		}
		var sealed []sealedAt
		check := func(ctx string) {
			t.Helper()
			rec := d.service(key)
			if rec.Clients() != len(seen) || !slices.Equal(rec.FirstPeers(), ref) {
				t.Fatalf("seed %d, %s, %d peers seen: %d clients, first peers %v, reference %v",
					seed, ctx, len(seen), rec.Clients(), rec.FirstPeers(), ref)
			}
		}
		now := t0
		for len(seen) < pool {
			now = now.Add(time.Duration(rng.Intn(3)) * time.Second)
			peer := peerOf(rng.Intn(min(pool, len(seen)+4)))
			if len(seen) == 0 && seed%2 == 1 {
				peer = 0 // the inline first peer is 0.0.0.0
			}
			d.observe(key, now, peer)
			if seen[peer] {
				check("after a repeat")
				continue
			}
			seen[peer] = true
			if len(ref) < maxFirstPeers {
				ref = append(ref, PeerContact{Peer: peer, Time: now})
			}
			check("after a new peer")
			if allocs := testing.AllocsPerRun(5, func() { d.observe(key, now, peer) }); allocs != 0 {
				t.Fatalf("seed %d, %d clients: a repeat peer allocates %.0f times, want 0", seed, len(seen), allocs)
			}
			// Seal at every length: the next write appends past what the
			// copy the seal hands out covers.
			rec := d.seal(false).recs[0].Val
			sealed = append(sealed, sealedAt{rec, rec.FirstPeers()})
			if roundTrip[len(seen)] {
				st := d.exportService(key)
				if err := st.check(); err != nil {
					t.Fatalf("seed %d: export at %d clients fails its own import check: %v", seed, len(seen), err)
				}
				fresh := NewPassiveDiscoverer(campusPfx, nil)
				fresh.importService(&st)
				if got := fresh.exportService(key); !reflect.DeepEqual(got, st) {
					t.Fatalf("seed %d: at %d clients, re-export %+v, imported %+v", seed, len(seen), got, st)
				}
				fresh.seal(true)
				d = fresh
				check("after an import")
			}
		}
		for _, s := range sealed {
			if got := s.rec.FirstPeers(); !slices.Equal(got, s.first) {
				t.Fatalf("seed %d: a record sealed at %d peers now lists %d: %v", seed, len(s.first), len(got), got)
			}
		}
		if !seen[0] {
			t.Fatalf("seed %d: 0.0.0.0 never contacted the service", seed)
		}
	}
}

// TestAddrSetFormsModel holds addrSet to a Go map through both of its
// forms: after every add, len, the add's "was new" and sorted() agree with
// the map, a bitmap never takes more slots than the table its members need,
// and a set changes form at most 2·log₂ n times. The shapes cross every
// switch: sweeps either way (bitmaps that extend up and down), a dense
// cluster and then a far outlier (back to a table), the address space's two
// ends, scattered members (a table throughout) and an adversary that adds a
// far member whenever the set is a bitmap, flipping it as often as the
// rule allows.
func TestAddrSetFormsModel(t *testing.T) {
	const n = 1000
	rng := rand.New(rand.NewSource(1))
	seq := func(f func(i int) netaddr.V4) func(int, *addrSet) netaddr.V4 {
		return func(i int, _ *addrSet) netaddr.V4 { return f(i) }
	}
	cases := []struct {
		name string
		next func(i int, s *addrSet) netaddr.V4
		ends string // the form the set ends in, if the shape decides it
	}{
		{"ascending sweep", seq(func(i int) netaddr.V4 { return 0x0a000000 + netaddr.V4(i) }), "bitmap"},
		{"descending sweep", seq(func(i int) netaddr.V4 { return 0x0a0fffff - netaddr.V4(i) }), "bitmap"},
		{"sweep with repeats", seq(func(i int) netaddr.V4 { return 0x0a000000 + netaddr.V4(i/3) }), "bitmap"},
		{"dense cluster, then a far outlier", seq(func(i int) netaddr.V4 {
			if i == n-2 {
				return 0xc0000001
			}
			return 0x0a000100 + netaddr.V4(rng.Intn(3*n))
		}), "table"},
		{"0.0.0.0 and up", seq(func(i int) netaddr.V4 { return netaddr.V4(i % (n / 2)) }), "bitmap"},
		{"down from 255.255.255.255", seq(func(i int) netaddr.V4 { return ^netaddr.V4(i) }), "bitmap"},
		{"both ends of the address space", seq(func(i int) netaddr.V4 {
			if i%2 == 0 {
				return netaddr.V4(i / 2)
			}
			return ^netaddr.V4(i / 2)
		}), "table"},
		{"scattered", seq(func(int) netaddr.V4 { return netaddr.V4(rng.Uint32()) }), "table"},
		// A far member one word past the span the table for one more
		// member allows sends a bitmap back to a table; the table's next
		// doubling makes it a bitmap again.
		{"near/far alternation", func(i int, s *addrSet) netaddr.V4 {
			if s.bits {
				return 0x0a000000 + netaddr.V4(32*tableSlots(int(s.used)+1))
			}
			return 0x0a000000 + netaddr.V4(i)
		}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var s addrSet
			var ref []netaddr.V4 // ascending
			flips := 0
			for step := 0; step < n; step++ {
				a, was := tc.next(step, &s), s.bits
				i, found := slices.BinarySearch(ref, a)
				if got := s.add(a); got == found {
					t.Fatalf("step %d: add(%v) = %v, reference %v", step, a, got, !found)
				}
				if !found {
					ref = slices.Insert(ref, i, a)
				}
				if s.bits != was {
					flips++
				}
				if s.len() != len(ref) {
					t.Fatalf("step %d: len() = %d, reference %d", step, s.len(), len(ref))
				}
				if got := s.sorted(); !slices.Equal(got, ref) {
					t.Fatalf("step %d (bitmap %v): sorted() = %v, reference %v", step, s.bits, got, ref)
				}
				if s.bits && len(s.slots) > tableSlots(int(s.used)) {
					t.Fatalf("step %d: a bitmap of %d slots holds %d members, whose table takes %d", step, len(s.slots), s.used, tableSlots(int(s.used)))
				}
			}
			if ends := map[bool]string{true: "bitmap", false: "table"}[s.bits]; tc.ends != "" && ends != tc.ends {
				t.Errorf("the set ends as a %s, want a %s", ends, tc.ends)
			}
			if bound := 2 * math.Log2(float64(len(ref))); float64(flips) > bound {
				t.Errorf("%d changes of form for %d members, bound 2·log₂ n = %.1f", flips, len(ref), bound)
			}
			if tc.ends == "" && flips < 12 {
				t.Errorf("only %d changes of form: the adversary no longer crosses the switch at each doubling", flips)
			}
			t.Logf("%d members, %d changes of form", len(ref), flips)
		})
	}
}

// TestScanWindowFormsRoundTrip: a scanner's promoted window is a bitmap,
// and its export and detection survive a checkpoint round trip into a
// fresh tracker exactly; a hostile imported window whose members span all
// of IPv4 stays a table no larger than its members need.
func TestScanWindowFormsRoundTrip(t *testing.T) {
	src := netaddr.MustParseV4("211.9.9.9")
	window := func(tr *scanTracker) *bigWindow {
		t.Helper()
		w, _, _ := tr.members(tr.sources.find(src).words(), 1)
		if w == nil {
			t.Fatal("the window was not promoted")
		}
		return w
	}
	tr := newScanTracker()
	for i := 0; i < 2000; i++ {
		at, dst := t0.Add(time.Duration(i)*time.Millisecond), netaddr.MustParseV4("128.125.0.0")+netaddr.V4(i)
		tr.recordSyn(at, src, dst)
		tr.recordRst(at, src, dst)
	}
	if w := window(tr); !w.dsts.bits || !w.rsts.bits {
		t.Fatalf("a 2 000-address sweep's sets are bitmaps = %v, %v, want both", w.dsts.bits, w.rsts.bits)
	}
	ss := tr.exportSource(src)
	re := newScanTracker()
	re.seed(t0)
	re.importSource(&ss)
	for what, pair := range map[string][2]any{
		"exportSource": {ss, re.exportSource(src)},
		"detect()":     {tr.detect(), re.detect()},
	} {
		got, _ := json.Marshal(pair[1])
		want, _ := json.Marshal(pair[0])
		if !bytes.Equal(got, want) {
			t.Errorf("%s after the round trip:\n%s\nwant\n%s", what, got, want)
		}
	}

	hostile := ScanSourceState{Source: src, Windows: []ScanWindowState{{Index: 0}}}
	for i := 0; i < 2000; i++ {
		hostile.Windows[0].Dsts = append(hostile.Windows[0].Dsts, netaddr.V4(uint32(i)*(1<<32/2000)))
	}
	hostile.Windows[0].Dsts = append(hostile.Windows[0].Dsts, ^netaddr.V4(0))
	re.importSource(&hostile)
	w := window(re)
	if w.dsts.bits || cap(w.dsts.slots) > tableSlots(w.dsts.len()) {
		t.Fatalf("a window spanning IPv4 holds %d members in %d slots (bitmap %v), want a table of at most %d",
			w.dsts.len(), cap(w.dsts.slots), w.dsts.bits, tableSlots(w.dsts.len()))
	}
	if got := re.exportSource(src).Windows[0].Dsts; !slices.Equal(got, hostile.Windows[0].Dsts) {
		t.Fatalf("the hostile window exports %d members, imported %d", len(got), len(hostile.Windows[0].Dsts))
	}
}
