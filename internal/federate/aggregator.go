package federate

import (
	"bytes"
	"cmp"
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"
	"time"
	"unsafe"

	"servdisc/internal/core"
	"servdisc/internal/netaddr"
	"servdisc/internal/obs"
	"servdisc/internal/pipeline"
	"servdisc/internal/query"
)

// AggregatorMetrics is the aggregator's optional telemetry bundle.
type AggregatorMetrics struct {
	// Decode observes per-frame wire decode time on a FeedClient
	// connection. It includes blocking on the socket for the next frame
	// of a quiet feed — still the honest number for "time from bytes
	// available to frame in hand".
	Decode *obs.Histogram
	// Apply observes per-frame merge time on the same path: pure merge
	// cost.
	Apply *obs.Histogram
}

// GlobalEvent is one entry of the aggregator's own event stream: a
// site-attributed discovery the *global* inventory just learned.
// ServiceDiscovered fires exactly once per service globally (the first
// site to report it wins attribution; later sites extend the record, they
// do not re-discover it), ScannerDetected once per scanner source.
// Site-local refinements (provenance upgrades, sweep completions) update
// aggregator state without re-publishing.
type GlobalEvent struct {
	// Site is the vantage point whose feed triggered the event.
	Site SiteID `json:"site"`
	// Event is the discovery, in the engine event schema. For
	// snapshot-bootstrapped discoveries it is synthesized (the timestamp is
	// the service's first evidence at that site).
	Event core.Event `json:"event"`
}

// side is what one technique has established about one service at one
// site, each field a semilattice join, so the state is identical for any
// arrival order of the same frames. Zero is unknown, and ordered below
// every known instant.
type side struct {
	// at is the earliest observation (min-merged, zero not counting).
	at core.Instant
	// seen is the newest observation (max-merged). It decides whether a
	// late retraction kills the side: the canonical stream order for an
	// expire-and-rebirth is discovery of the new incarnation first,
	// retraction of the old one second (expiry events publish at the
	// snapshot after the rebirth), so a side whose newest evidence
	// postdates the deadline survives the retraction even though its first
	// time predates it.
	seen core.Instant
	// retracted is the newest retraction deadline applied (max-merged).
	// Evidence timestamped before it is void: cleared when the retraction
	// arrives and refused when it arrives later, so replayed pre-expiry
	// frames cannot resurrect an expired service.
	retracted core.Instant
}

// accept gates evidence observed at t: void iff strictly older than the
// deadline (a service reborn exactly at it counts). Zero evidence time is
// older than any deadline — its age is unknown, and accepting it would
// resurrect expired state.
func (d *side) accept(t core.Instant) bool { return t >= d.retracted }

// merge folds evidence observed at t into the side, setting its liveness
// bit, if accept lets it in, and reports whether it did.
func (d *side) merge(live *bool, t core.Instant) bool {
	if !d.accept(t) {
		return false
	}
	*live = true
	d.at, d.seen = earliest(d.at, t), max(d.seen, t)
	return true
}

// clear drops the side's evidence and keeps its deadline.
func (d *side) clear(live *bool) { *live, d.at, d.seen = false, 0, 0 }

// retract max-merges the deadline r into the side and voids the evidence
// older than it: all of it when nothing seen since is accepted, else the
// first time, which belonged to the retracted incarnation and advances to
// the newest surviving evidence (the site's next snapshot min-merges the
// reborn incarnation's exact first time back in). It reports whether the
// side lost evidence.
func (d *side) retract(live *bool, r core.Instant) bool {
	d.retracted = max(d.retracted, r)
	if !*live || d.at >= d.retracted {
		return false
	}
	if seen := max(d.seen, d.at); d.accept(seen) {
		d.at = seen
	} else {
		d.clear(live)
	}
	return true
}

// earliest is the earlier of two instants, where zero is unknown rather
// than earliest.
func earliest(a, b core.Instant) core.Instant {
	if a == 0 || (b != 0 && b < a) {
		return b
	}
	return a
}

// svcState is everything one site has established about one service,
// folded from any mix of snapshot and event frames: one side per
// technique, the passive weights (max-merged, at the engine record's
// widths), and the earliest evidence from either technique. Liveness is
// kept apart from the times: a cell restored from a state file may hold a
// live side with no time, and a first time no side supplies.
type svcState struct {
	passive, active side
	firstAt         core.Instant
	flows           int
	clients         uint32
	// hasPassive and hasActive report unretracted evidence per side. A
	// cell with neither is kept as a tombstone until CollapseTombstones.
	hasPassive, hasActive bool
}

// A field that pushes the cell past 72 bytes fails the build here.
const _ = uint(72 - unsafe.Sizeof(svcState{}))

// siteCell is one site's svcState for one service. A key's cells are kept
// sorted by site.
type siteCell struct {
	site SiteID
	svcState
}

// live reports whether the cell still holds unretracted evidence.
func (s *svcState) live() bool { return s.hasPassive || s.hasActive }

// mergeSides folds one report of a service's per-technique first times — a
// discovery or upgrade event, or a snapshot row — for the sides it names,
// each through its own retraction gate, and reports which sides got in.
func (s *svcState) mergeSides(passive, active bool, passiveAt, activeAt core.Instant) (okP, okA bool) {
	okP = passive && s.passive.merge(&s.hasPassive, passiveAt)
	okA = active && s.active.merge(&s.hasActive, activeAt)
	if okP {
		s.firstAt = earliest(s.firstAt, passiveAt)
	}
	if okA {
		s.firstAt = earliest(s.firstAt, activeAt)
	}
	return okP, okA
}

// retract folds one validated retraction into the side it names. Where
// that side lost evidence, what was derived from it goes: the first time
// is rederived from the surviving sides, and a passive side's weights
// belonged to the retracted incarnation — every frame that carries a
// retraction carries the key's current row beside it.
func (s *svcState) retract(r *Retraction) {
	d, live := &s.passive, &s.hasPassive
	if r.Prov == core.ActiveOnly {
		d, live = &s.active, &s.hasActive
	}
	if !d.retract(live, core.ToInstant(r.At)) {
		return
	}
	if d == &s.passive {
		s.flows, s.clients = 0, 0
	}
	s.firstAt = 0
	if s.hasPassive {
		s.firstAt = s.passive.at
	}
	if s.hasActive {
		s.firstAt = earliest(s.firstAt, s.active.at)
	}
}

// prov derives the site-local provenance class from the merged state,
// using the same rule as core.NewHybridInventory (ties go passive).
func (s *svcState) prov() core.Provenance {
	switch {
	case s.hasPassive && s.hasActive:
		if s.active.at != 0 && s.active.at < s.passive.at {
			return core.ActiveFirst
		}
		return core.PassiveFirst
	case s.hasActive:
		return core.ActiveOnly
	default:
		return core.PassiveOnly
	}
}

// scannerState is one site's knowledge of one scanning source: the
// dominant (lexicographically maximal) observation across crossing events
// and snapshot peak windows, so event-derived and snapshot-derived views
// converge on the peak.
type scannerState struct {
	window  time.Time
	dsts    int
	rstDsts int
}

func (s *scannerState) merge(info core.ScannerInfo) {
	switch {
	case info.UniqueDsts != s.dsts:
		if info.UniqueDsts < s.dsts {
			return
		}
	case info.RstDsts != s.rstDsts:
		if info.RstDsts < s.rstDsts {
			return
		}
	default:
		if !info.Window.After(s.window) {
			return
		}
	}
	s.window, s.dsts, s.rstDsts = info.Window, info.UniqueDsts, info.RstDsts
}

// siteState is the per-feed bookkeeping: the dedup high-water marks and
// the site's sweep ledger.
type siteState struct {
	// epoch is the publisher incarnation the cursors below belong to.
	// Sequence numbers restart from zero when a site's publisher
	// restarts; a frame from a different epoch resets the cursors so the
	// new incarnation's feed is merged, not discarded as duplicates.
	epoch uint64
	// lastSeq is the highest event sequence applied (or covered by an
	// applied snapshot) — the generation-dedup cursor. Events at or below
	// it are duplicates of state the aggregator already holds.
	lastSeq uint64
	// snapGen is the newest applied snapshot's generation; older
	// snapshots are strictly dominated and skipped wholesale.
	snapGen      uint64
	snapApplied  bool
	events, dups uint64
	packets      int
	scans        map[int]core.ScanMeta
	// watermark is the newest observation-clock timestamp this site has
	// reported through any frame — the site's position on the paper's
	// latency-to-discovery axis. The aggregator-wide maximum minus a
	// site's watermark is that site's *discovery staleness*: how far its
	// feed lags the freshest evidence anywhere in the federation.
	watermark core.Instant
}

// SiteStats summarizes one site's feed for monitoring endpoints.
type SiteStats struct {
	Site SiteID `json:"site"`
	// LastSeq is the dedup high-water mark; Events and DupEvents count
	// applied and generation-skipped event and seal frames.
	LastSeq   uint64 `json:"last_seq"`
	Events    uint64 `json:"events"`
	DupEvents uint64 `json:"dup_events"`
	// Services is how many services this site contributes to the global
	// inventory; Scans its completed sweeps; Packets its passive volume.
	Services int `json:"services"`
	Scans    int `json:"scans"`
	Packets  int `json:"packets"`
	// Watermark is the newest observation timestamp the site has
	// reported (zero until its first timestamped frame). See
	// Aggregator.Staleness for the derived lag metric.
	Watermark time.Time `json:"watermark,omitzero"`
}

// Aggregator reconciles N site feeds into one global inventory with
// per-site provenance and cross-site dedup: a service reported from two
// campuses is one record listing both sites.
//
// Feeds attach in-process (Attach, a pipeline.Hub subscription on the
// publisher) or over the wire (FeedClient on a decoded stream); both paths
// funnel into Apply, which is safe for any number of concurrent feeds.
//
// Convergence: every merge Apply performs is an idempotent, commutative,
// monotone join, and frames within one site's feed carry totally-ordered
// sequence numbers, so the final state — and the canonical Dump — is
// byte-identical for any interleaving of the same feeds, including
// disconnect/reconnect cycles that replay a snapshot plus overlapping
// events. Property-tested in aggregator_test.go at 1, 2 and 4 sites
// racing live producers.
type Aggregator struct {
	mu    sync.Mutex
	sites map[SiteID]*siteState
	// cells holds every key's site cells as of the last flush; live is the
	// write layer over it: each key touched since, with a private copy of
	// its cells (none once CollapseTombstones took the last). qcat indexes
	// cells. See query.go for the flush.
	cells    cellTree
	live     map[core.ServiceKey][]siteCell
	qcat     *query.Catalog
	scanners map[netaddr.V4]map[SiteID]*scannerState
	hub      *pipeline.Hub[GlobalEvent]

	// met is the optional telemetry bundle (see SetMetrics).
	met *AggregatorMetrics
}

// SetMetrics attaches the telemetry bundle; call before feeds start.
func (a *Aggregator) SetMetrics(m *AggregatorMetrics) { a.met = m }

// NewAggregator builds an empty aggregator.
func NewAggregator() *Aggregator {
	return &Aggregator{
		sites:    make(map[SiteID]*siteState),
		live:     make(map[core.ServiceKey][]siteCell),
		qcat:     query.NewCatalog(0),
		scanners: make(map[netaddr.V4]map[SiteID]*scannerState),
		hub:      pipeline.NewHub[GlobalEvent](),
	}
}

// Subscribe attaches a bounded subscriber to the aggregator's global event
// stream (see GlobalEvent; pipeline.Hub drop semantics apply).
func (a *Aggregator) Subscribe(buf int) *pipeline.Sub[GlobalEvent] { return a.hub.Subscribe(buf) }

// EventCounters exposes the global stream's flow counters.
func (a *Aggregator) EventCounters() *pipeline.StageCounters { return a.hub.Counters() }

// Close ends the global event stream. Applying further frames keeps
// updating state; only the stream stops.
func (a *Aggregator) Close() { a.hub.Close() }

// site returns (creating if needed) the bookkeeping for one feed.
func (a *Aggregator) site(id SiteID) *siteState {
	st := a.sites[id]
	if st == nil {
		st = &siteState{scans: make(map[int]core.ScanMeta)}
		a.sites[id] = st
	}
	return st
}

// svc returns the per-site state cell for one service, reporting whether
// the key is new to the global inventory entirely. Every caller is a
// mutation path, so the cell is in the write layer: a key's first touch
// since the flush copies its cells out of the tree, which readers may hold.
// The pointer is good until the next svc call.
func (a *Aggregator) svc(site SiteID, key core.ServiceKey) (s *svcState, newGlobal bool) {
	cells, ok := a.live[key]
	if !ok {
		frozen, _ := a.cells.Get(key)
		cells = slices.Clone(frozen)
	}
	newGlobal = len(cells) == 0
	i, found := slices.BinarySearchFunc(cells, site, func(c siteCell, id SiteID) int { return cmp.Compare(c.site, id) })
	if !found {
		cells = slices.Insert(cells, i, siteCell{site: site})
	}
	a.live[key] = cells
	return &cells[i].svcState, newGlobal
}

// Apply folds one frame into the global state. It is the single merge
// point for every feed path and safe for concurrent callers; frames of one
// site must be applied in feed order (each feed goroutine naturally does).
func (a *Aggregator) Apply(f *Frame) error {
	if f.V != WireVersion {
		return fmt.Errorf("federate: frame version %d, want %d", f.V, WireVersion)
	}
	if f.Site == "" {
		return fmt.Errorf("federate: frame without site identity")
	}
	if f.Type == FrameResume {
		// Resume is strictly a client-to-publisher hello; one arriving on
		// a feed is a protocol violation. Rejected before any bookkeeping
		// (even the epoch cursor reset) so a hostile resume frame cannot
		// perturb state at all.
		return fmt.Errorf("federate: resume frame on an inbound feed")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	st := a.site(f.Site)
	if f.Epoch != st.epoch {
		// A different publisher incarnation: its sequence space is fresh,
		// so the dedup cursors restart with it. The merged inventory
		// state is untouched — merges are idempotent, so whatever the new
		// incarnation re-reports folds in cleanly.
		st.epoch = f.Epoch
		st.lastSeq, st.snapGen, st.snapApplied = 0, 0, false
	}
	switch f.Type {
	case FrameHello, FrameHeartbeat:
		// Hellos carry identity, heartbeats carry liveness; neither
		// mutates merged state (beyond the epoch bookkeeping above).
		return nil
	case FrameEvent:
		if f.Event == nil {
			return fmt.Errorf("federate: event frame without payload")
		}
		if !representable(f.Event.Time, f.Event.PassiveAt, f.Event.ActiveAt) {
			return fmt.Errorf("federate: event time outside the cell's range")
		}
	case FrameSnapshot, FrameSeal:
		if err := validBody(f); err != nil {
			return err
		}
	default:
		return fmt.Errorf("federate: unknown frame type %q", f.Type)
	}
	if f.Type == FrameSnapshot {
		// An older snapshot is strictly dominated by what is already
		// merged: every time it carries is >= the applied minimum, every
		// weight <= the applied maximum. A snapshot at the SAME generation
		// is re-merged (idempotent, so harmless): the generation only
		// counts sequenced frames, and weights that move with no event,
		// or an event sequenced between a catchup's generation read and
		// its engine freeze, appear in later snapshots without advancing
		// it — skipping equal generations would lose exactly that state.
		if st.snapApplied && f.Seq < st.snapGen {
			return nil
		}
		st.snapApplied = true
		st.snapGen = f.Seq
		// Frames at or below the snapshot's generation are reflected in
		// it; advancing the cursor is the reconnect dedup.
		st.lastSeq = max(st.lastSeq, f.Seq)
		a.applySnapshot(f.Site, st, f.Snapshot)
		return nil
	}
	// An event or seal frame is one stream position, not a generation.
	if f.Seq <= st.lastSeq {
		st.dups++
		return nil
	}
	st.lastSeq = f.Seq
	st.events++
	if f.Type == FrameEvent {
		st.watermark = max(st.watermark, core.ToInstant(f.Event.Time))
		a.applyEvent(f.Site, st, f.Event)
	} else {
		a.applySnapshot(f.Site, st, f.Snapshot)
	}
	return nil
}

// validBody rejects a snapshot or seal frame without a body, or with any
// structurally invalid retraction or row, before any of it mutates state:
// applySnapshot must never half-apply a hostile frame. A row's weights
// must fit the cell's, and every time must be one a cell can hold.
func validBody(f *Frame) error {
	if f.Snapshot == nil {
		return fmt.Errorf("federate: %s frame without payload", f.Type)
	}
	for _, r := range f.Snapshot.Retractions {
		if r.At.IsZero() || !representable(r.At) {
			return fmt.Errorf("federate: retraction without a deadline a cell can hold")
		}
		if r.Prov != core.PassiveOnly && r.Prov != core.ActiveOnly {
			return fmt.Errorf("federate: retraction with evidence kind %q", r.Prov)
		}
	}
	for _, svc := range f.Snapshot.Services {
		if !validWeights(svc.Flows, svc.Clients) || !representable(svc.PassiveAt, svc.ActiveAt) {
			return fmt.Errorf("federate: row %s holds weights or a time no cell can", svc.Key)
		}
	}
	return nil
}

// validWeights reports whether a cell can hold a row's passive weights.
func validWeights(flows, clients int) bool {
	return flows >= 0 && clients >= 0 && clients <= math.MaxUint32
}

// representable reports whether a cell holds each of ts exactly: the wire
// and a state file can carry times outside core.Instant's range.
func representable(ts ...time.Time) bool {
	for _, t := range ts {
		if !core.ToInstant(t).Time().Equal(t) {
			return false
		}
	}
	return true
}

// report folds one report about row.Key into site's cell: the row's first
// times for the sides named, through mergeSides, and its passive weights
// when the passive side gets in. When no site held the key before, the
// report announces it on the global stream: as ev, or, for a snapshot or
// seal row (nil ev), as a discovery timed at the cell's first evidence. A
// new cell has no deadline, so its first report always gets in.
// Caller holds a.mu; the row is validated.
func (a *Aggregator) report(site SiteID, row *SnapshotService, passive, active bool, ev *core.Event) {
	s, newGlobal := a.svc(site, row.Key)
	okP, _ := s.mergeSides(passive, active, core.ToInstant(row.PassiveAt), core.ToInstant(row.ActiveAt))
	if okP {
		s.flows, s.clients = max(s.flows, row.Flows), max(s.clients, uint32(row.Clients))
	}
	if !newGlobal {
		return
	}
	if ev == nil {
		ev = &core.Event{Kind: core.EventServiceDiscovered, Time: s.firstAt.Time(), Key: row.Key, Provenance: row.Provenance}
	}
	a.hub.Publish(GlobalEvent{Site: site, Event: *ev})
}

// applyEvent merges one live event. Caller holds a.mu.
func (a *Aggregator) applyEvent(site SiteID, st *siteState, ev *core.Event) {
	switch ev.Kind {
	case core.EventServiceDiscovered:
		active := ev.Provenance == core.ActiveOnly
		a.report(site, &SnapshotService{Key: ev.Key, PassiveAt: ev.Time, ActiveAt: ev.Time}, !active, active, ev)
	case core.EventProvenanceUpgraded:
		// The upgrade names each technique's first observation, so it
		// merges like a snapshot row holding both sides, weights aside. If
		// the preceding discovery frame was lost (bounded feed), the upgrade
		// is this key's first global appearance: it is announced as a
		// discovery with the best provenance known.
		a.report(site, &SnapshotService{Key: ev.Key, PassiveAt: ev.PassiveAt, ActiveAt: ev.ActiveAt}, true, true,
			&core.Event{Kind: core.EventServiceDiscovered, Time: ev.Time, Key: ev.Key, Provenance: ev.Provenance})
	case core.EventScannerDetected:
		a.mergeScanner(site, ev.Scanner, ev.Time)
	case core.EventScanCompleted:
		if _, seen := st.scans[ev.Scan.ID]; !seen {
			st.scans[ev.Scan.ID] = ev.Scan
		}
	}
}

// applySnapshot folds a snapshot or seal body into the site's state: its
// retractions first — the service list already excludes what they withdrew,
// and applying them first keeps an older row from resurrecting it — then
// the services, scanners, sweeps and packet count. Caller holds a.mu; the
// body is validated.
func (a *Aggregator) applySnapshot(site SiteID, st *siteState, snap *Snapshot) {
	for i := range snap.Retractions {
		r := &snap.Retractions[i]
		st.watermark = max(st.watermark, core.ToInstant(r.At))
		s, _ := a.svc(site, r.Key)
		s.retract(r)
	}
	if snap.Packets > st.packets {
		st.packets = snap.Packets
	}
	for i := range snap.Services {
		svc := &snap.Services[i]
		// Every reported time advances the watermark, accepted or not —
		// it tells us how fresh the site's view is either way.
		st.watermark = max(st.watermark, core.ToInstant(svc.PassiveAt), core.ToInstant(svc.ActiveAt))
		a.report(site, svc, svc.Provenance != core.ActiveOnly, svc.Provenance != core.PassiveOnly, nil)
	}
	for _, info := range snap.Scanners {
		a.mergeScanner(site, info, info.Window)
	}
	for _, meta := range snap.Scans {
		if _, seen := st.scans[meta.ID]; !seen {
			st.scans[meta.ID] = meta
		}
	}
}

// mergeScanner folds one scanner observation. Caller holds a.mu.
func (a *Aggregator) mergeScanner(site SiteID, info core.ScannerInfo, at time.Time) {
	perSite := a.scanners[info.Source]
	newGlobal := false
	if perSite == nil {
		perSite = make(map[SiteID]*scannerState)
		a.scanners[info.Source] = perSite
		newGlobal = true
	}
	s := perSite[site]
	if s == nil {
		s = &scannerState{}
		perSite[site] = s
	}
	s.merge(info)
	if newGlobal {
		a.hub.Publish(GlobalEvent{Site: site, Event: core.Event{
			Kind: core.EventScannerDetected, Time: at, Scanner: info,
		}})
	}
}

// Attach subscribes the aggregator to an in-process publisher: the
// catch-up bootstrap plus the live feed, consumed on a dedicated
// goroutine. The returned channel closes when the feed ends: the publisher
// or engine closed, or the feed's queue overflowed, which ends it at the
// first frame past the gap. Attach again after the feed ends to apply the
// site's current snapshot — the in-process equivalent of an aggregator
// reconnect.
func (a *Aggregator) Attach(p *Publisher) <-chan struct{} {
	bootstrap, live := p.Catchup(0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer live.Cancel()
		for i := range bootstrap {
			_ = a.Apply(&bootstrap[i])
		}
		for f := range live.Events() {
			if live.Dropped() > 0 {
				return
			}
			_ = a.Apply(&f)
		}
	}()
	return done
}

// SiteCursor reports the dedup cursor held for one site — the (epoch,
// seq) high-water mark a reconnecting feed client presents as its resume
// cursor. ok is false until the site has *applied state* — a snapshot or
// at least one event — not merely a hello: a client whose bootstrap
// snapshot was cut mid-frame has applied nothing, and letting it claim
// resume-from-zero on redial would skip the snapshot (and its
// snapshot-only weights and retractions) forever.
func (a *Aggregator) SiteCursor(site SiteID) (epoch, seq uint64, ok bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := a.sites[site]
	if st == nil || (!st.snapApplied && st.lastSeq == 0) {
		return 0, 0, false
	}
	return st.epoch, st.lastSeq, true
}

// Staleness reports each site's discovery staleness: the aggregator-wide
// maximum watermark minus the site's own — how far that feed's view of
// the world lags the freshest evidence in the federation (the paper's
// latency-to-discovery axis, measured continuously). Sites that have not
// yet reported a timestamped frame are skipped.
func (a *Aggregator) Staleness() map[SiteID]time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	global := a.globalWatermarkLocked()
	out := make(map[SiteID]time.Duration, len(a.sites))
	for id, st := range a.sites {
		if st.watermark == 0 {
			continue
		}
		out[id] = global.Time().Sub(st.watermark.Time())
	}
	return out
}

// Sites returns every site that has appeared on any feed, sorted.
func (a *Aggregator) Sites() []SiteID {
	a.mu.Lock()
	defer a.mu.Unlock()
	return slices.Sorted(maps.Keys(a.sites))
}

// perSiteServiceCounts tallies how many services each site contributes to
// the global inventory — live evidence only, retraction tombstones do not
// count. Caller holds a.mu and has flushed.
func (a *Aggregator) perSiteServiceCounts() map[SiteID]int {
	perSite := make(map[SiteID]int, len(a.sites))
	a.cells.Walk(nil, func(_ core.ServiceKey, cells []siteCell) bool {
		for i := range cells {
			if cells[i].live() {
				perSite[cells[i].site]++
			}
		}
		return true
	})
	return perSite
}

// globalWatermarkLocked is the newest observation timestamp any site has
// reported: the federation's observation clock. Caller holds a.mu.
func (a *Aggregator) globalWatermarkLocked() core.Instant {
	var global core.Instant
	for _, st := range a.sites {
		global = max(global, st.watermark)
	}
	return global
}

// CollapseTombstones drops retraction bookkeeping older than horizon on the
// observation clock — the global watermark, where retraction deadlines
// live: cells with no live evidence whose retraction deadlines all fall
// more than horizon before it are deleted (and emptied services removed),
// returning how many cells were collapsed. After a cell is collapsed, a
// replayed pre-expiry frame would merge as a fresh discovery again — run
// this only with a horizon no publisher still replays across (the
// federated daemon's -tombstone-gc flag; zero keeps tombstones forever).
func (a *Aggregator) CollapseTombstones(horizon time.Duration) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	olderThan := a.globalWatermarkLocked().Time().Add(-horizon)
	a.flushLocked()
	collapsed := func(c siteCell) bool {
		return !c.live() && c.passive.retracted.Time().Before(olderThan) && c.active.retracted.Time().Before(olderThan)
	}
	n := 0
	a.cells.Walk(nil, func(key core.ServiceKey, cells []siteCell) bool {
		if slices.ContainsFunc(cells, collapsed) {
			kept := slices.DeleteFunc(slices.Clone(cells), collapsed)
			n += len(cells) - len(kept)
			a.live[key] = kept
		}
		return true
	})
	return n
}

// Stats summarizes every site's feed, sorted by site.
func (a *Aggregator) Stats() []SiteStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.flushLocked()
	perSite := a.perSiteServiceCounts()
	out := make([]SiteStats, 0, len(a.sites))
	for _, id := range slices.Sorted(maps.Keys(a.sites)) {
		st := a.sites[id]
		out = append(out, SiteStats{
			Site: id, LastSeq: st.lastSeq, Events: st.events, DupEvents: st.dups,
			Services: perSite[id], Scans: len(st.scans), Packets: st.packets,
			Watermark: st.watermark.Time(),
		})
	}
	return out
}

// NumServices returns the global (cross-site deduplicated) service count:
// services with live evidence from at least one site.
func (a *Aggregator) NumServices() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.flushLocked().Len()
}

// SiteRecord is one site's view of a global service.
type SiteRecord struct {
	Site       SiteID          `json:"site"`
	Provenance core.Provenance `json:"prov"`
	PassiveAt  time.Time       `json:"passive_at,omitzero"`
	ActiveAt   time.Time       `json:"active_at,omitzero"`
	Flows      int             `json:"flows,omitempty"`
	Clients    int             `json:"clients,omitempty"`
}

// GlobalService is one cross-site deduplicated service: the record every
// reporting site contributes to, plus the earliest evidence anywhere.
type GlobalService struct {
	Key     core.ServiceKey `json:"key"`
	FirstAt time.Time       `json:"first_at"`
	Sites   []SiteRecord    `json:"sites"`
}

// Services returns the global inventory in deterministic order: keys
// canonically sorted (core.ServiceKey.Before, the same ordering as
// Inventory.Dump), each with its per-site records sorted by site.
func (a *Aggregator) Services() []GlobalService { return a.View().Services() }

// GlobalView is the global inventory as of one flush: immutable, so it is
// read lock-free for as long as the holder likes.
type GlobalView struct {
	gen   uint64
	n     int
	cells cellTree
}

// View flushes and pins the global inventory.
func (a *Aggregator) View() GlobalView {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.viewLocked()
}

func (a *Aggregator) viewLocked() GlobalView {
	ep := a.flushLocked()
	return GlobalView{gen: ep.Gen(), n: ep.Len(), cells: a.cells}
}

// Gen identifies the flush the view pins: it changes whenever the
// aggregator's state does, and views with equal generations hold equal
// state.
func (v GlobalView) Gen() uint64 { return v.gen }

// Services copies the view's services out, in Walk's order.
func (v GlobalView) Services() []GlobalService {
	out := make([]GlobalService, 0, v.n)
	v.Walk(nil, func(g GlobalService) bool {
		out = append(out, g)
		return true
	})
	return out
}

// Walk visits the services ordered after *after (every service when after
// is nil), in canonical key order, each with its live per-site records
// sorted by site, until f returns false. Keys whose cells are all
// tombstones are not services.
func (v GlobalView) Walk(after *core.ServiceKey, f func(GlobalService) bool) {
	v.cells.Walk(after, func(key core.ServiceKey, cells []siteCell) bool {
		g := GlobalService{Key: key, Sites: make([]SiteRecord, 0, len(cells))}
		var first core.Instant
		for i := range cells {
			s := &cells[i]
			if !s.live() {
				continue
			}
			g.Sites = append(g.Sites, SiteRecord{
				Site: s.site, Provenance: s.prov(),
				PassiveAt: s.passive.at.Time(), ActiveAt: s.active.at.Time(),
				Flows: s.flows, Clients: int(s.clients),
			})
			first = earliest(first, s.firstAt)
		}
		g.FirstAt = first.Time()
		return len(g.Sites) == 0 || f(g)
	})
}

// Dump renders the global inventory into a canonical byte form: the
// roll-up header, every service in key order with its per-site provenance
// and times, the deduplicated scanner list, and per-site summaries. For
// the same set of site feeds the output is byte-identical regardless of
// feed interleaving — the federation determinism contract, and the
// cross-site analogue of core.Inventory.Dump.
func (a *Aggregator) Dump() []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	v := a.viewLocked()
	var b bytes.Buffer
	fmt.Fprintf(&b, "sites=%d services=%d scanners=%d\n",
		len(a.sites), v.n, len(a.scanners))
	v.Walk(nil, func(g GlobalService) bool {
		fmt.Fprintf(&b, "%s sites=%d first=%s\n", g.Key, len(g.Sites),
			g.FirstAt.UTC().Format(time.RFC3339Nano))
		for _, sr := range g.Sites {
			fmt.Fprintf(&b, "  %s %s", sr.Site, sr.Provenance)
			if !sr.PassiveAt.IsZero() {
				fmt.Fprintf(&b, " passive=%s flows=%d clients=%d",
					sr.PassiveAt.UTC().Format(time.RFC3339Nano), sr.Flows, sr.Clients)
			}
			if !sr.ActiveAt.IsZero() {
				fmt.Fprintf(&b, " active=%s", sr.ActiveAt.UTC().Format(time.RFC3339Nano))
			}
			b.WriteByte('\n')
		}
		return true
	})
	for _, src := range slices.Sorted(maps.Keys(a.scanners)) {
		perSite := a.scanners[src]
		fmt.Fprintf(&b, "scanner %s sites=%d\n", src, len(perSite))
		for _, id := range slices.Sorted(maps.Keys(perSite)) {
			s := perSite[id]
			fmt.Fprintf(&b, "  %s window=%s dsts=%d rsts=%d\n", id,
				s.window.UTC().Format(time.RFC3339Nano), s.dsts, s.rstDsts)
		}
	}
	perSiteSvcs := a.perSiteServiceCounts()
	for _, id := range slices.Sorted(maps.Keys(a.sites)) {
		st := a.sites[id]
		fmt.Fprintf(&b, "site %s services=%d scans=%d packets=%d\n",
			id, perSiteSvcs[id], len(st.scans), st.packets)
	}
	return b.Bytes()
}
