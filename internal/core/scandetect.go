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
	sources map[netaddr.V4]*scanSource
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

	// ckDirty names the sources touched since the last checkpoint export
	// (see export.go). Off (nil, zero cost) until the first full export.
	ckDirty map[netaddr.V4]struct{}
}

// scanSource holds one external source's windows in first-touch order. A
// source touches at most ⌈trace length / 12 h⌉ of them and nearly always
// the newest, so a slice searched newest-first beats a map per source.
type scanSource struct {
	windows []scanWindow
}

type scanWindow struct {
	idx     int64
	dsts    v4set
	rstDsts v4set
}

// v4setInline is how many members a v4set holds before it promotes to a
// map (DESIGN.md §7 records the measurement that picked it).
const v4setInline = 3

// v4set is an address set sized for the one or two members nearly every
// (source, window) pair ever has: members live inline, and a Go map is
// made only for a set that outgrows the inline array. The zero value is
// an empty set.
type v4set struct {
	m      map[netaddr.V4]struct{}
	n      uint32
	inline [v4setInline]netaddr.V4
}

func (s *v4set) add(a netaddr.V4) {
	if s.m != nil {
		s.m[a] = struct{}{}
		return
	}
	for _, x := range s.inline[:s.n] {
		if x == a {
			return
		}
	}
	if s.n < v4setInline {
		s.inline[s.n] = a
		s.n++
		return
	}
	s.m = make(map[netaddr.V4]struct{}, 2*v4setInline)
	for _, x := range s.inline {
		s.m[x] = struct{}{}
	}
	s.m[a] = struct{}{}
}

func (s *v4set) len() int {
	if s.m != nil {
		return len(s.m)
	}
	return int(s.n)
}

// sorted renders the members ascending (nil when empty).
func (s *v4set) sorted() []netaddr.V4 {
	if s.m != nil {
		return sortedV4Keys(s.m)
	}
	if s.n == 0 {
		return nil
	}
	out := slices.Clone(s.inline[:s.n])
	slices.Sort(out)
	return out
}

func newScanTracker() *scanTracker {
	return &scanTracker{
		sources:  make(map[netaddr.V4]*scanSource),
		best:     make(map[netaddr.V4]ScannerInfo),
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

func (t *scanTracker) windowIndex(at time.Time) int64 {
	if !t.started {
		t.origin = at
		t.started = true
	}
	return int64(at.Sub(t.origin) / ScanDetectWindow)
}

// window returns src's window covering at, creating it if needed. The
// pointer aims into the source's slice: use it before the next call, never
// retain it.
func (t *scanTracker) window(src netaddr.V4, at time.Time) *scanWindow {
	s := t.sources[src]
	if s == nil {
		s = &scanSource{}
		t.sources[src] = s
	}
	idx := t.windowIndex(at)
	for i := len(s.windows) - 1; i >= 0; i-- {
		if s.windows[i].idx == idx {
			return &s.windows[i]
		}
	}
	s.windows = append(s.windows, scanWindow{idx: idx})
	return &s.windows[len(s.windows)-1]
}

// recordSyn notes an inbound connection attempt src → dst.
func (t *scanTracker) recordSyn(at time.Time, src, dst netaddr.V4) {
	w := t.window(src, at)
	w.dsts.add(dst)
	if t.ckDirty != nil {
		t.ckDirty[src] = struct{}{}
	}
	t.maybeFlag(src, w, at)
	t.updateBest(src, w)
}

// recordRst notes a campus RST returned to the external peer.
func (t *scanTracker) recordRst(at time.Time, peer, from netaddr.V4) {
	w := t.window(peer, at)
	w.rstDsts.add(from)
	if t.ckDirty != nil {
		t.ckDirty[peer] = struct{}{}
	}
	t.maybeFlag(peer, w, at)
	t.updateBest(peer, w)
}

// updateBest folds the just-touched window into the per-source peak. Runs
// on every tracker-relevant packet, so the comparison is a handful of
// integer checks; it only allocates when a source first qualifies.
func (t *scanTracker) updateBest(src netaddr.V4, w *scanWindow) {
	if w.dsts.len() < ScanDetectMinDsts || w.rstDsts.len() < ScanDetectMinRsts {
		return
	}
	start := t.origin.Add(time.Duration(w.idx) * ScanDetectWindow)
	cur, ok := t.best[src]
	if ok && !cur.Window.Equal(start) {
		// A different window holds the peak: replace only on strictly
		// better tallies (earlier window wins full ties).
		if w.dsts.len() < cur.UniqueDsts ||
			(w.dsts.len() == cur.UniqueDsts && w.rstDsts.len() <= cur.RstDsts) {
			return
		}
	} else if ok && w.dsts.len() == cur.UniqueDsts && w.rstDsts.len() == cur.RstDsts {
		return // same window, nothing grew on the tallied axis
	}
	t.best[src] = ScannerInfo{
		Source:     src,
		Window:     start,
		UniqueDsts: w.dsts.len(),
		RstDsts:    w.rstDsts.len(),
	}
	t.detGen++
}

// maybeFlag fires onDetect the first time src's current window satisfies
// both thresholds.
func (t *scanTracker) maybeFlag(src netaddr.V4, w *scanWindow, at time.Time) {
	if t.onDetect == nil || t.flagged[src] {
		return
	}
	if w.dsts.len() < ScanDetectMinDsts || w.rstDsts.len() < ScanDetectMinRsts {
		return
	}
	if t.flagged == nil {
		t.flagged = make(map[netaddr.V4]bool)
	}
	t.flagged[src] = true
	t.onDetect(ScannerInfo{
		Source:     src,
		Window:     t.origin.Add(time.Duration(w.idx) * ScanDetectWindow),
		UniqueDsts: w.dsts.len(),
		RstDsts:    w.rstDsts.len(),
	}, at)
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

// mergeFrom unions another tracker's state into t. Correct only when the
// two trackers saw disjoint source sets (the owner-sharding invariant);
// ShardedPassive.Merge relies on it.
func (t *scanTracker) mergeFrom(o *scanTracker) {
	if o.started && !t.started {
		t.seed(o.origin)
	}
	for src, s := range o.sources {
		t.sources[src] = s
	}
	for src, info := range o.best {
		t.best[src] = info
	}
	for src := range o.flagged {
		if t.flagged == nil {
			t.flagged = make(map[netaddr.V4]bool)
		}
		t.flagged[src] = true
	}
	t.detGen++
}
