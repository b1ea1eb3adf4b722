package core

import (
	"slices"
	"sort"
	"time"

	"servdisc/internal/netaddr"
)

// Scan-detection thresholds, straight from Section 4.3: "we eliminate any
// host which attempts to open TCP connections to 100 or more unique IP
// addresses on our network within 12 hours and receives TCP RST responses
// from at least 100 of these contacted hosts."
const (
	ScanDetectWindow  = 12 * time.Hour
	ScanDetectMinDsts = 100
	ScanDetectMinRsts = 100
)

// ScannerInfo describes one detected external scanner. The JSON tags
// define the serialized form of the event feeds and the federation wire.
type ScannerInfo struct {
	// Source is the scanning address.
	Source netaddr.V4 `json:"source"`
	// Window is the start of the 12-hour bucket in which the thresholds
	// were first crossed.
	Window time.Time `json:"window"`
	// UniqueDsts and RstDsts are the peak per-window tallies.
	UniqueDsts int `json:"unique_dsts"`
	RstDsts    int `json:"rst_dsts"`
}

// scanTracker accumulates per-external-source contact statistics in
// tumbling 12-hour windows. Tumbling (rather than sliding) windows match
// the offline bucketing an operator would run over a trace; a scan split
// across a boundary at worst doubles its detection latency, never escapes.
type scanTracker struct {
	// sources packs each source's windows into one run of words behind a
	// 16-byte slot: nearly every source is a one-off client with one window
	// and one destination, and must cost one small allocation. Word 0 is the
	// offset of the record touched last (a source nearly always touches its
	// newest window again); records follow in first-touch order, each
	//
	//	nd | nr<<4 | idx<<8 (the window index, signed, 23 bits), nd destinations, nr RST destinations
	//
	// or the single word bigRef | i naming big[i], once either set outgrows
	// scanInline or the index 23 bits (±4.19 M windows, ≈ 5 700 years: only
	// a checkpoint can carry one).
	sources sourceTable
	big     []bigWindow
	origin  time.Time
	started bool

	// onDetect, when set, fires the first time a source crosses both
	// thresholds, with the tallies at the moment of crossing and the
	// timestamp of the packet that tipped it. flagged remembers which
	// sources already fired so detection is online and once-per-source
	// (detect() below stays the peak-window view).
	onDetect func(info ScannerInfo, at time.Time)
	flagged  map[netaddr.V4]bool

	// best is the peak qualifying window per source, maintained online as
	// packets arrive so detect() never rescans every source's every
	// window — the property that makes high-frequency snapshot freezes
	// cheap. A window beats the incumbent on greater unique destinations,
	// then greater RST destinations, then the earlier window (the same
	// rule detect() applied offline; counts within one window only grow,
	// so online and offline evaluation agree). detGen bumps on every
	// change and cache holds the last sorted rendering.
	best     map[netaddr.V4]ScannerInfo
	detGen   uint64
	cache    []ScannerInfo
	cacheGen uint64

	// ckDirty names the sources touched since the last checkpoint export,
	// the engine's one checkpoint dirty set: sources are not in the store
	// the export diffs (export.go). Off (nil) until the first full export.
	ckDirty map[netaddr.V4]struct{}
}

// scanInline is how many members either contact set of a window holds
// packed in its source's words; one more moves the window to a bigWindow
// (DESIGN.md §7 records the sweep that picked it).
const scanInline = 8

// bigRef marks a reference record: the low bits index scanTracker.big.
const bigRef = 1 << 31

const _ = uint(15 - scanInline) // a header holds each count in 4 bits

// bigWindow is a window that outgrew the packed form, nearly always a
// scanner's, as two addrSets: a sweep in address order makes them bitmaps
// over the swept span. big holds it by value.
type bigWindow struct {
	idx        int64
	dsts, rsts addrSet
}

func (w *bigWindow) add(dst netaddr.V4, rst bool) (nd, nr int) {
	if rst {
		w.rsts.add(dst)
	} else {
		w.dsts.add(dst)
	}
	return w.dsts.len(), w.rsts.len()
}

func newScanTracker() *scanTracker {
	return &scanTracker{
		sources:  sourceTable{slots: make([]srcSlot, 8)},
		best:     make(map[netaddr.V4]ScannerInfo),
		flagged:  make(map[netaddr.V4]bool),
		cacheGen: ^uint64(0),
	}
}

// seed pins the window origin if the tracker has not started yet. Sharded
// ingestion seeds every shard's tracker with the timestamp of the first
// scan-relevant packet in the stream, exactly the origin a single tracker
// would have picked lazily.
func (t *scanTracker) seed(at time.Time) {
	if !t.started {
		t.origin = at
		t.started = true
	}
}

// windowIndex floors: a packet stamped before the origin (a late one from
// the slower link, ingest resumed from an older trace) belongs to window −1,
// not to a window 0 made 24 hours wide.
func (t *scanTracker) windowIndex(at time.Time) int64 {
	t.seed(at)
	d := at.Sub(t.origin)
	idx := int64(d / ScanDetectWindow)
	if d%ScanDetectWindow < 0 {
		idx--
	}
	return idx
}

// recAt decodes the record at s[off]: its window index and length in words.
func (t *scanTracker) recAt(s []uint32, off int) (idx int64, n int) {
	h := s[off]
	if h&bigRef != 0 {
		return t.big[h&^bigRef].idx, 1
	}
	return int64(int32(h<<1) >> 9), 1 + int(h&15) + int(h>>4&15)
}

// members returns the contact sets of the record at s[off]: the bigWindow
// a reference names, or else an inline record's two member runs.
func (t *scanTracker) members(s []uint32, off int) (w *bigWindow, dsts, rsts []uint32) {
	h := s[off]
	if h&bigRef != 0 {
		return &t.big[h&^bigRef], nil, nil
	}
	mid := off + 1 + int(h&15)
	return nil, s[off+1 : mid], s[mid : mid+int(h>>4&15)]
}

// newBig makes an empty bigWindow and returns the word that refers to it.
func (t *scanTracker) newBig(idx int64) uint32 {
	t.big = append(t.big, bigWindow{idx: idx})
	return bigRef | uint32(len(t.big)-1)
}

// growWords extends s by k words (contents unspecified), reallocating to the
// next 16-byte multiple when they do not fit: the capacity srcSlot derives.
func growWords(s []uint32, k int) []uint32 {
	n := len(s) + k
	if n > cap(s) {
		s = append(make([]uint32, 0, (n+3)&^3), s...)
	}
	return s[:n]
}

// window returns src's slot and the offset in its words of window idx's
// record, appending an empty one (and listing the source) if there is none.
func (t *scanTracker) window(src netaddr.V4, idx int64) (*srcSlot, int) {
	sl := t.sources.slot(src)
	s := sl.words()
	if len(s) > 1 {
		if at, _ := t.recAt(s, int(s[0])); at == idx {
			return sl, int(s[0])
		}
		for off, n := 1, 0; off < len(s); off += n {
			var at int64
			if at, n = t.recAt(s, off); at == idx {
				s[0] = uint32(off)
				return sl, off
			}
		}
	}
	off := max(len(s), 1)
	s = growWords(s, off+1-len(s))
	s[off] = uint32(idx) << 8 &^ bigRef
	if idx < -1<<22 || idx >= 1<<22 { // outside the header's 23 bits
		s[off] = t.newBig(idx)
	}
	s[0] = uint32(off)
	sl.set(s)
	return sl, off
}

// add puts dst into one contact set of src's window idx — the RST set when
// rst — and returns the window's two tallies.
func (t *scanTracker) add(src netaddr.V4, idx int64, dst netaddr.V4, rst bool) (nd, nr int) {
	sl, off := t.window(src, idx)
	s := sl.words()
	w, dsts, rsts := t.members(s, off)
	if w != nil {
		return w.add(dst, rst)
	}
	nd, nr = len(dsts), len(rsts)
	set, at, one := dsts, off+1+nd, uint32(1)
	if rst {
		set, at, one = rsts, at+nr, 1<<4
	}
	if slices.Contains(set, uint32(dst)) {
		return nd, nr
	}
	if len(set) == scanInline {
		// The set is full: the window moves out, its record shrinks to the
		// reference (the slack serves the source's next members).
		ref := t.newBig(idx)
		w = &t.big[ref&^bigRef]
		for i, a := range s[off+1 : off+1+nd+nr] {
			w.add(netaddr.V4(a), i >= nd)
		}
		s[off] = ref
		sl.set(append(s[:off+1], s[off+1+nd+nr:]...))
		return w.add(dst, rst)
	}
	s = growWords(s, 1)
	copy(s[at+1:], s[at:])
	s[at] = uint32(dst)
	s[off] += one
	sl.set(s)
	return int(s[off] & 15), int(s[off] >> 4 & 15)
}

// recordSyn notes an inbound connection attempt src → dst.
func (t *scanTracker) recordSyn(at time.Time, src, dst netaddr.V4) {
	t.record(at, src, dst, false)
}

// recordRst notes a campus RST returned to the external peer.
func (t *scanTracker) recordRst(at time.Time, peer, from netaddr.V4) {
	t.record(at, peer, from, true)
}

// record runs on every tracker-relevant packet; past the set insert it is
// a handful of integer checks until a source qualifies: then onDetect fires
// once per source, and the window is folded into the per-source peak.
func (t *scanTracker) record(at time.Time, src, dst netaddr.V4, rst bool) {
	idx := t.windowIndex(at)
	nd, nr := t.add(src, idx, dst, rst)
	if t.ckDirty != nil {
		t.ckDirty[src] = struct{}{}
	}
	if nd < ScanDetectMinDsts || nr < ScanDetectMinRsts {
		return
	}
	info := ScannerInfo{
		Source:     src,
		Window:     t.origin.Add(time.Duration(idx) * ScanDetectWindow),
		UniqueDsts: nd,
		RstDsts:    nr,
	}
	if t.onDetect != nil && !t.flagged[src] {
		t.flagged[src] = true
		t.onDetect(info, at)
	}
	if cur, ok := t.best[src]; ok && !cur.Window.Equal(info.Window) {
		// A different window holds the peak: replace only on strictly
		// better tallies (earlier window wins full ties).
		if nd < cur.UniqueDsts || (nd == cur.UniqueDsts && nr <= cur.RstDsts) {
			return
		}
	} else if ok && nd == cur.UniqueDsts && nr == cur.RstDsts {
		return // same window, nothing grew on the tallied axis
	}
	t.best[src] = info
	t.detGen++
}

// detect returns the detected scanners sorted by source — the peak
// qualifying window per source, read straight from the online best map.
// The sorted slice is cached until the next change and must be treated as
// read-only by callers (frozen shard views alias it).
func (t *scanTracker) detect() []ScannerInfo {
	if t.cacheGen == t.detGen {
		return t.cache
	}
	out := make([]ScannerInfo, 0, len(t.best))
	for _, info := range t.best {
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Source < out[j].Source })
	t.cache, t.cacheGen = out, t.detGen
	return out
}
