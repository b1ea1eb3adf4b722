package federate

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

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

// svcState is everything one site has established about one service,
// folded from any mix of snapshot and event frames. Every field merges as
// a semilattice join — times by minimum, weights by maximum, booleans by
// or — so the state is identical for any arrival order of the same frames.
type svcState struct {
	hasPassive, hasActive bool
	// passiveAt and activeAt are the earliest per-technique observations
	// (zero when unknown, which the join treats as absent, not as minimal).
	passiveAt, activeAt time.Time
	// passiveSeenAt / activeSeenAt are the NEWEST accepted observations
	// (max-merged). They decide whether a late retraction kills the side:
	// the canonical stream order for an expire-and-rebirth is discovery of
	// the new incarnation first, retraction of the old one second (expiry
	// events publish at the snapshot after the rebirth), so a cell whose
	// newest evidence postdates the deadline must survive the retraction
	// even though its min-merged first-at predates it.
	passiveSeenAt, activeSeenAt time.Time
	// flows and clients are the passive weights (max over snapshots).
	flows, clients int
	// firstAt is the earliest evidence from any technique.
	firstAt time.Time
	// retractedPassiveAt / retractedActiveAt are the newest retraction
	// deadlines applied per evidence kind (max-merged — the retraction
	// side of the semilattice). Evidence of a kind timestamped before its
	// retraction time is void: it is cleared when the retraction arrives
	// and rejected when it arrives later, so replayed pre-expiry frames
	// cannot resurrect an expired service. A cell with no live evidence
	// is kept as a tombstone until CollapseTombstones.
	retractedPassiveAt, retractedActiveAt time.Time
}

// siteCell is one site's svcState for one service. A key's cells are kept
// sorted by site.
type siteCell struct {
	site SiteID
	svcState
}

// live reports whether the cell still holds unretracted evidence.
func (s *svcState) live() bool { return s.hasPassive || s.hasActive }

// acceptPassive / acceptActive gate incoming evidence against the
// retraction times: evidence is void iff strictly older than the
// retraction (a service reborn exactly at the deadline counts). A zero
// evidence time is treated as older than any retraction — its age is
// unknown, and accepting it would resurrect expired state.
func (s *svcState) acceptPassive(t time.Time) bool {
	return s.retractedPassiveAt.IsZero() || (!t.IsZero() && !t.Before(s.retractedPassiveAt))
}

func (s *svcState) acceptActive(t time.Time) bool {
	return s.retractedActiveAt.IsZero() || (!t.IsZero() && !t.Before(s.retractedActiveAt))
}

// mergeSides folds one report of a service's per-technique first times — a
// discovery or upgrade event, or a snapshot row — for the sides it names,
// each through its own retraction gate, and reports which sides got in.
func (s *svcState) mergeSides(passive, active bool, passiveAt, activeAt time.Time) (okP, okA bool) {
	okP = passive && s.acceptPassive(passiveAt)
	okA = active && s.acceptActive(activeAt)
	if okP {
		s.hasPassive = true
		s.passiveAt = minTime(s.passiveAt, passiveAt)
		s.passiveSeenAt = maxTime(s.passiveSeenAt, passiveAt)
		s.firstAt = minTime(s.firstAt, passiveAt)
	}
	if okA {
		s.hasActive = true
		s.activeAt = minTime(s.activeAt, activeAt)
		s.activeSeenAt = maxTime(s.activeSeenAt, activeAt)
		s.firstAt = minTime(s.firstAt, activeAt)
	}
	return okP, okA
}

// clearPassive / clearActive drop one evidence kind's fields after a
// retraction; firstAt is recomputed from what remains.
func (s *svcState) clearPassive() {
	s.hasPassive = false
	s.passiveAt, s.passiveSeenAt = time.Time{}, time.Time{}
	s.flows, s.clients = 0, 0
	s.recomputeFirstAt()
}

func (s *svcState) clearActive() {
	s.hasActive = false
	s.activeAt, s.activeSeenAt = time.Time{}, time.Time{}
	s.recomputeFirstAt()
}

// recomputeFirstAt rebuilds the technique-agnostic first-at from the
// surviving per-side times, after a retraction invalidated evidence that
// may have fed the old value.
func (s *svcState) recomputeFirstAt() {
	s.firstAt = time.Time{}
	if s.hasPassive {
		s.firstAt = minTime(s.firstAt, s.passiveAt)
	}
	if s.hasActive {
		s.firstAt = minTime(s.firstAt, s.activeAt)
	}
}

// join folds another time observation into a min-merged field.
func minTime(cur, t time.Time) time.Time {
	if t.IsZero() {
		return cur
	}
	if cur.IsZero() || t.Before(cur) {
		return t
	}
	return cur
}

// maxTime folds another time observation into a max-merged field.
func maxTime(cur, t time.Time) time.Time {
	if t.After(cur) {
		return t
	}
	return cur
}

// prov derives the site-local provenance class from the merged state,
// using the same rule as core.NewHybridInventory (ties go passive).
func (s *svcState) prov() core.Provenance {
	switch {
	case s.hasPassive && s.hasActive:
		if !s.passiveAt.IsZero() && !s.activeAt.IsZero() && s.activeAt.Before(s.passiveAt) {
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
	watermark time.Time
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
		// counts sequenced frames, and state mutated after a pump drop
		// appears in later snapshots without advancing it — skipping
		// equal generations would lose exactly that recovery path.
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
		st.watermark = maxTime(st.watermark, f.Event.Time)
		a.applyEvent(f.Site, st, f.Event)
	} else {
		a.applySnapshot(f.Site, st, f.Snapshot)
	}
	return nil
}

// validBody rejects a snapshot or seal frame without a body, or with any
// structurally invalid retraction, before any of it mutates state:
// applySnapshot must never half-apply a hostile frame.
func validBody(f *Frame) error {
	if f.Snapshot == nil {
		return fmt.Errorf("federate: %s frame without payload", f.Type)
	}
	for _, r := range f.Snapshot.Retractions {
		if r.At.IsZero() {
			return fmt.Errorf("federate: retraction without deadline")
		}
		if r.Prov != core.PassiveOnly && r.Prov != core.ActiveOnly {
			return fmt.Errorf("federate: retraction with evidence kind %q", r.Prov)
		}
	}
	return nil
}

// applyRetract folds one retraction: the deadline max-merges into the
// cell, and evidence of that kind strictly older than it is cleared. Where
// newer evidence survives, what belonged to the retracted incarnation —
// its first time, and for passive evidence its weights — goes: every frame
// that carries a retraction carries the key's current row beside it.
// Caller holds a.mu; the retraction is already validated.
func (a *Aggregator) applyRetract(site SiteID, r *Retraction) {
	s, _ := a.svc(site, r.Key)
	switch r.Prov {
	case core.ActiveOnly:
		if r.At.After(s.retractedActiveAt) {
			s.retractedActiveAt = r.At
		}
		if s.hasActive {
			seen := maxTime(s.activeSeenAt, s.activeAt)
			switch {
			case !s.acceptActive(seen):
				s.clearActive()
			case s.activeAt.Before(s.retractedActiveAt):
				// The min-merged first-at belongs to the retracted
				// incarnation; advance it to the newest surviving evidence
				// (the site's next snapshot min-merges the reborn
				// incarnation's exact first-at back in).
				s.activeAt = seen
				s.recomputeFirstAt()
			}
		}
	default: // PassiveOnly
		if r.At.After(s.retractedPassiveAt) {
			s.retractedPassiveAt = r.At
		}
		if s.hasPassive {
			seen := maxTime(s.passiveSeenAt, s.passiveAt)
			switch {
			case !s.acceptPassive(seen):
				s.clearPassive()
			case s.passiveAt.Before(s.retractedPassiveAt):
				s.passiveAt = seen
				s.flows, s.clients = 0, 0
				s.recomputeFirstAt()
			}
		}
	}
}

// applyEvent merges one live event. Caller holds a.mu.
func (a *Aggregator) applyEvent(site SiteID, st *siteState, ev *core.Event) {
	switch ev.Kind {
	case core.EventServiceDiscovered:
		s, newGlobal := a.svc(site, ev.Key)
		active := ev.Provenance == core.ActiveOnly
		if okP, okA := s.mergeSides(!active, active, ev.Time, ev.Time); !okP && !okA {
			return
		}
		if newGlobal {
			a.hub.Publish(GlobalEvent{Site: site, Event: *ev})
		}
	case core.EventProvenanceUpgraded:
		// The upgrade names each technique's first observation, so it
		// merges like a snapshot row holding both sides, weights aside.
		s, newGlobal := a.svc(site, ev.Key)
		if okP, okA := s.mergeSides(true, true, ev.PassiveAt, ev.ActiveAt); !okP && !okA {
			return
		}
		if newGlobal {
			// The preceding discovery frame was lost (bounded feed): the
			// upgrade is still this key's first global appearance, so
			// announce it — synthesized, with the best provenance known.
			a.hub.Publish(GlobalEvent{Site: site, Event: core.Event{
				Kind: core.EventServiceDiscovered, Time: ev.Time,
				Key: ev.Key, Provenance: ev.Provenance,
			}})
		}
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
		st.watermark = maxTime(st.watermark, snap.Retractions[i].At)
		a.applyRetract(site, &snap.Retractions[i])
	}
	if snap.Packets > st.packets {
		st.packets = snap.Packets
	}
	for i := range snap.Services {
		svc := &snap.Services[i]
		// Every reported time advances the watermark, accepted or not —
		// it tells us how fresh the site's view is either way.
		st.watermark = maxTime(st.watermark, maxTime(svc.PassiveAt, svc.ActiveAt))
		s, newGlobal := a.svc(site, svc.Key)
		okP, okA := s.mergeSides(svc.Provenance != core.ActiveOnly, svc.Provenance != core.PassiveOnly,
			svc.PassiveAt, svc.ActiveAt)
		if !okP && !okA {
			continue
		}
		if okP {
			s.flows = max(s.flows, svc.Flows)
			s.clients = max(s.clients, svc.Clients)
		}
		if newGlobal {
			a.hub.Publish(GlobalEvent{Site: site, Event: core.Event{
				Kind: core.EventServiceDiscovered, Time: s.firstAt,
				Key: svc.Key, Provenance: svc.Provenance,
			}})
		}
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
		if st.watermark.IsZero() {
			continue
		}
		out[id] = global.Sub(st.watermark)
	}
	return out
}

// Sites returns every site that has appeared on any feed, sorted.
func (a *Aggregator) Sites() []SiteID {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]SiteID, 0, len(a.sites))
	for id := range a.sites {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
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
func (a *Aggregator) globalWatermarkLocked() time.Time {
	var global time.Time
	for _, st := range a.sites {
		global = maxTime(global, st.watermark)
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
	olderThan := a.globalWatermarkLocked().Add(-horizon)
	a.flushLocked()
	collapsed := func(c siteCell) bool {
		return !c.live() && c.retractedPassiveAt.Before(olderThan) && c.retractedActiveAt.Before(olderThan)
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
	for id, st := range a.sites {
		out = append(out, SiteStats{
			Site: id, LastSeq: st.lastSeq, Events: st.events, DupEvents: st.dups,
			Services: perSite[id], Scans: len(st.scans), Packets: st.packets,
			Watermark: st.watermark,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
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
		for i := range cells {
			s := &cells[i]
			if !s.live() {
				continue
			}
			g.Sites = append(g.Sites, SiteRecord{
				Site: s.site, Provenance: s.prov(),
				PassiveAt: s.passiveAt, ActiveAt: s.activeAt,
				Flows: s.flows, Clients: s.clients,
			})
			g.FirstAt = minTime(g.FirstAt, s.firstAt)
		}
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
	srcs := make([]netaddr.V4, 0, len(a.scanners))
	for src := range a.scanners {
		srcs = append(srcs, src)
	}
	sort.Slice(srcs, func(i, j int) bool { return srcs[i] < srcs[j] })
	for _, src := range srcs {
		perSite := a.scanners[src]
		ids := make([]SiteID, 0, len(perSite))
		for id := range perSite {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		fmt.Fprintf(&b, "scanner %s sites=%d\n", src, len(ids))
		for _, id := range ids {
			s := perSite[id]
			fmt.Fprintf(&b, "  %s window=%s dsts=%d rsts=%d\n", id,
				s.window.UTC().Format(time.RFC3339Nano), s.dsts, s.rstDsts)
		}
	}
	ids := make([]SiteID, 0, len(a.sites))
	for id := range a.sites {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	perSiteSvcs := a.perSiteServiceCounts()
	for _, id := range ids {
		st := a.sites[id]
		fmt.Fprintf(&b, "site %s services=%d scans=%d packets=%d\n",
			id, perSiteSvcs[id], len(st.scans), st.packets)
	}
	return b.Bytes()
}
