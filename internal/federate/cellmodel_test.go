package federate

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"testing"
	"time"

	"servdisc/internal/core"
	"servdisc/internal/query"
	"servdisc/internal/stats"
)

// refCell is the site cell as it was kept before its times became
// instants: seven time.Times, and every rule written once per technique.
// It is the reference TestSiteCellModel holds the cell to.
type refCell struct {
	hasPassive, hasActive                 bool
	passiveAt, activeAt                   time.Time
	passiveSeenAt, activeSeenAt           time.Time
	flows, clients                        int
	firstAt                               time.Time
	retractedPassiveAt, retractedActiveAt time.Time
}

func (s *refCell) live() bool { return s.hasPassive || s.hasActive }

func (s *refCell) acceptPassive(t time.Time) bool {
	return s.retractedPassiveAt.IsZero() || (!t.IsZero() && !t.Before(s.retractedPassiveAt))
}

func (s *refCell) acceptActive(t time.Time) bool {
	return s.retractedActiveAt.IsZero() || (!t.IsZero() && !t.Before(s.retractedActiveAt))
}

func (s *refCell) mergeSides(passive, active bool, passiveAt, activeAt time.Time) (okP, okA bool) {
	okP = passive && s.acceptPassive(passiveAt)
	okA = active && s.acceptActive(activeAt)
	if okP {
		s.hasPassive = true
		s.passiveAt = refMin(s.passiveAt, passiveAt)
		s.passiveSeenAt = refMax(s.passiveSeenAt, passiveAt)
		s.firstAt = refMin(s.firstAt, passiveAt)
	}
	if okA {
		s.hasActive = true
		s.activeAt = refMin(s.activeAt, activeAt)
		s.activeSeenAt = refMax(s.activeSeenAt, activeAt)
		s.firstAt = refMin(s.firstAt, activeAt)
	}
	return okP, okA
}

func (s *refCell) clearPassive() {
	s.hasPassive = false
	s.passiveAt, s.passiveSeenAt = time.Time{}, time.Time{}
	s.flows, s.clients = 0, 0
	s.recomputeFirstAt()
}

func (s *refCell) clearActive() {
	s.hasActive = false
	s.activeAt, s.activeSeenAt = time.Time{}, time.Time{}
	s.recomputeFirstAt()
}

func (s *refCell) recomputeFirstAt() {
	s.firstAt = time.Time{}
	if s.hasPassive {
		s.firstAt = refMin(s.firstAt, s.passiveAt)
	}
	if s.hasActive {
		s.firstAt = refMin(s.firstAt, s.activeAt)
	}
}

func (s *refCell) retract(r Retraction) {
	switch r.Prov {
	case core.ActiveOnly:
		if r.At.After(s.retractedActiveAt) {
			s.retractedActiveAt = r.At
		}
		if s.hasActive {
			seen := refMax(s.activeSeenAt, s.activeAt)
			switch {
			case !s.acceptActive(seen):
				s.clearActive()
			case s.activeAt.Before(s.retractedActiveAt):
				s.activeAt = seen
				s.recomputeFirstAt()
			}
		}
	default:
		if r.At.After(s.retractedPassiveAt) {
			s.retractedPassiveAt = r.At
		}
		if s.hasPassive {
			seen := refMax(s.passiveSeenAt, s.passiveAt)
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

func (s *refCell) prov() core.Provenance {
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

func (s *refCell) record(site SiteID) AggSvcRecord {
	return AggSvcRecord{
		Site: site, HasPassive: s.hasPassive, HasActive: s.hasActive,
		PassiveAt: s.passiveAt, ActiveAt: s.activeAt,
		PassiveSeenAt: s.passiveSeenAt, ActiveSeenAt: s.activeSeenAt,
		Flows: s.flows, Clients: s.clients, FirstAt: s.firstAt,
		RetractedPassiveAt: s.retractedPassiveAt, RetractedActiveAt: s.retractedActiveAt,
	}
}

func refMin(cur, t time.Time) time.Time {
	if t.IsZero() {
		return cur
	}
	if cur.IsZero() || t.Before(cur) {
		return t
	}
	return cur
}

func refMax(cur, t time.Time) time.Time {
	if t.After(cur) {
		return t
	}
	return cur
}

// refDoc is docOf over reference cells, in site order.
func refDoc(key core.ServiceKey, sites []SiteID, cells map[SiteID]*refCell) (query.Doc, bool) {
	var merged refCell
	d := query.Doc{Key: key}
	live := false
	for _, site := range sites {
		s := cells[site]
		if s == nil || !s.live() {
			continue
		}
		live = true
		if s.hasPassive {
			merged.hasPassive = true
			merged.passiveAt = refMin(merged.passiveAt, s.passiveAt)
		}
		if s.hasActive {
			merged.hasActive = true
			merged.activeAt = refMin(merged.activeAt, s.activeAt)
		}
		d.First = refMin(d.First, s.firstAt)
		d.Last = refMax(d.Last, refMax(s.passiveSeenAt, s.activeSeenAt))
		d.Flows += s.flows
		d.Clients += s.clients
	}
	if !live {
		return query.Doc{}, false
	}
	if d.Last.IsZero() {
		d.Last = d.First
	}
	d.First, d.Last = d.First.UTC(), d.Last.UTC()
	d.Prov = merged.prov()
	return d, true
}

// refModel is the reference aggregator: every (key, site) cell a frame
// has touched, and the global events the old apply path announced.
type refModel struct {
	cells  map[core.ServiceKey]map[SiteID]*refCell
	events []GlobalEvent
}

// cell returns the key's cell at site, creating it, and whether the key
// had no cell at any site before.
func (m *refModel) cell(site SiteID, key core.ServiceKey) (*refCell, bool) {
	perSite := m.cells[key]
	newGlobal := len(perSite) == 0
	if perSite == nil {
		perSite = make(map[SiteID]*refCell)
		m.cells[key] = perSite
	}
	if perSite[site] == nil {
		perSite[site] = &refCell{}
	}
	return perSite[site], newGlobal
}

func (m *refModel) apply(f *Frame) {
	if f.Type == FrameEvent {
		ev := f.Event
		s, newGlobal := m.cell(f.Site, ev.Key)
		if ev.Kind == core.EventServiceDiscovered {
			active := ev.Provenance == core.ActiveOnly
			if okP, okA := s.mergeSides(!active, active, ev.Time, ev.Time); (okP || okA) && newGlobal {
				m.events = append(m.events, GlobalEvent{Site: f.Site, Event: *ev})
			}
			return
		}
		if okP, okA := s.mergeSides(true, true, ev.PassiveAt, ev.ActiveAt); (okP || okA) && newGlobal {
			m.events = append(m.events, GlobalEvent{Site: f.Site, Event: core.Event{
				Kind: core.EventServiceDiscovered, Time: ev.Time, Key: ev.Key, Provenance: ev.Provenance}})
		}
		return
	}
	for _, r := range f.Snapshot.Retractions {
		s, _ := m.cell(f.Site, r.Key)
		s.retract(r)
	}
	for _, svc := range f.Snapshot.Services {
		s, newGlobal := m.cell(f.Site, svc.Key)
		okP, okA := s.mergeSides(svc.Provenance != core.ActiveOnly, svc.Provenance != core.PassiveOnly, svc.PassiveAt, svc.ActiveAt)
		if !okP && !okA {
			continue
		}
		if okP {
			s.flows, s.clients = max(s.flows, svc.Flows), max(s.clients, svc.Clients)
		}
		if newGlobal {
			m.events = append(m.events, GlobalEvent{Site: f.Site, Event: core.Event{
				Kind: core.EventServiceDiscovered, Time: s.firstAt, Key: svc.Key, Provenance: svc.Provenance}})
		}
	}
}

// TestSiteCellModel drives the aggregator and the reference cell with the
// same seeded frames — discoveries, upgrades, snapshot rows and
// retractions over a few keys and sites, zero times and deadlines equal to
// evidence times included — and holds the two to exact agreement after
// every frame: each cell's provenance, each key's indexed doc, the
// exported cells as JSON, and the global event stream.
func TestSiteCellModel(t *testing.T) {
	base := time.Date(2006, 12, 16, 10, 0, 0, 0, time.UTC)
	sites := []SiteID{"east", "north", "west"}
	keys := []core.ServiceKey{testKey(0x807D0101, 6, 22), testKey(0x807D0101, 6, 80), testKey(0x807D0202, 17, 53)}
	for seed := uint64(1); seed <= 60; seed++ {
		rng := stats.NewRNG(seed).Derive("site-cell-model")
		at := func() time.Time {
			if rng.Intn(6) == 0 {
				return time.Time{}
			}
			return base.Add(time.Duration(rng.Intn(5)) * time.Minute)
		}
		agg := NewAggregator()
		sub := agg.Subscribe(1 << 12)
		ref := &refModel{cells: make(map[core.ServiceKey]map[SiteID]*refCell)}
		seq := make(map[SiteID]uint64)
		for step := 0; step < 80; step++ {
			site, key := sites[rng.Intn(len(sites))], keys[rng.Intn(len(keys))]
			seq[site]++
			f := &Frame{V: WireVersion, Site: site, Seq: seq[site], Type: FrameSeal}
			var op string
			switch rng.Intn(4) {
			case 0:
				op = "discovery"
				prov := []core.Provenance{core.PassiveOnly, core.ActiveOnly}[rng.Intn(2)]
				f.Type, f.Event = FrameEvent, &core.Event{Kind: core.EventServiceDiscovered, Time: at(), Key: key, Provenance: prov}
			case 1:
				op = "upgrade"
				prov := []core.Provenance{core.PassiveFirst, core.ActiveFirst}[rng.Intn(2)]
				f.Type, f.Event = FrameEvent, &core.Event{Kind: core.EventProvenanceUpgraded, Time: at(), Key: key,
					Provenance: prov, PassiveAt: at(), ActiveAt: at()}
			case 2:
				op = "row"
				f.Snapshot = &Snapshot{Services: []SnapshotService{{Key: key, Provenance: core.Provenance(rng.Intn(4)),
					PassiveAt: at(), ActiveAt: at(), Flows: rng.Intn(4), Clients: rng.Intn(3)}}}
			default:
				op = "retraction"
				r := Retraction{Key: key, At: base.Add(time.Duration(rng.Intn(5)) * time.Minute),
					Prov: []core.Provenance{core.PassiveOnly, core.ActiveOnly}[rng.Intn(2)]}
				f.Snapshot = &Snapshot{Retractions: []Retraction{r}}
				if rng.Intn(2) == 0 { // the key's current row rides beside it
					f.Snapshot.Services = []SnapshotService{{Key: key, Provenance: core.PassiveOnly, PassiveAt: at(), Flows: 1, Clients: 1}}
				}
			}
			if err := agg.Apply(f); err != nil {
				t.Fatalf("seed %d step %d %s: %v", seed, step, op, err)
			}
			ref.apply(f)
			if diff := cellModelDiff(agg, ref, sites); diff != "" {
				t.Fatalf("seed %d step %d (%s at %s on %s): %s", seed, step, op, site, key, diff)
			}
		}
		agg.Close()
		var got []GlobalEvent
		for ge := range sub.Events() {
			got = append(got, ge)
		}
		gotJSON, _ := json.Marshal(got)
		wantJSON, _ := json.Marshal(ref.events)
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("seed %d: global events\n got %s\nwant %s", seed, gotJSON, wantJSON)
		}
	}
}

// cellModelDiff compares the aggregator with the reference, returning the
// first disagreement.
func cellModelDiff(agg *Aggregator, ref *refModel, sites []SiteID) string {
	var want []AggService
	for key, perSite := range ref.cells {
		gs := AggService{Key: key}
		for _, site := range sites {
			if c := perSite[site]; c != nil {
				gs.Sites = append(gs.Sites, c.record(site))
			}
		}
		want = append(want, gs)
	}
	slices.SortFunc(want, func(a, b AggService) int { return a.Key.Compare(b.Key) })
	gotJSON, _ := json.Marshal(agg.ExportState().Services)
	wantJSON, _ := json.Marshal(want)
	if !bytes.Equal(gotJSON, wantJSON) {
		return fmt.Sprintf("exported cells\n got %s\nwant %s", gotJSON, wantJSON)
	}
	var diff string
	agg.View().cells.Walk(nil, func(key core.ServiceKey, cells []siteCell) bool {
		for i := range cells {
			if got, want := cells[i].prov(), ref.cells[key][cells[i].site].prov(); got != want {
				diff = fmt.Sprintf("%s at %s: prov %s, want %s", key, cells[i].site, got, want)
				return false
			}
		}
		got, gotOK := docOf(key, cells)
		want, wantOK := refDoc(key, sites, ref.cells[key])
		if got != want || gotOK != wantOK {
			diff = fmt.Sprintf("%s: doc %+v (%v), want %+v (%v)", key, got, gotOK, want, wantOK)
			return false
		}
		return true
	})
	return diff
}
