package federate

// Aggregator state export/import: the federated daemon's checkpoint
// payload. Unlike the engine's delta chains, aggregator state is small —
// one cell per (service, site), not per flow — so it is exported whole.
// Every list is sorted, making the export deterministic for a given
// state (the same property Dump has).

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"

	"servdisc/internal/core"
	"servdisc/internal/netaddr"
)

// AggSvcRecord is one site's merged knowledge of one service, in wire
// form: the raw semilattice cell, not the derived provenance (which is
// recomputed on demand).
type AggSvcRecord struct {
	Site       SiteID    `json:"site"`
	HasPassive bool      `json:"has_passive,omitempty"`
	HasActive  bool      `json:"has_active,omitempty"`
	PassiveAt  time.Time `json:"passive_at,omitzero"`
	ActiveAt   time.Time `json:"active_at,omitzero"`
	// PassiveSeenAt / ActiveSeenAt are the newest accepted observations
	// per side (the late-retraction survival cursor).
	PassiveSeenAt time.Time `json:"passive_seen_at,omitzero"`
	ActiveSeenAt  time.Time `json:"active_seen_at,omitzero"`
	Flows         int       `json:"flows,omitempty"`
	Clients       int       `json:"clients,omitempty"`
	FirstAt       time.Time `json:"first_at,omitzero"`
	// RetractedPassiveAt / RetractedActiveAt carry the cell's retraction
	// deadlines; a cell with no live evidence persists as a tombstone.
	RetractedPassiveAt time.Time `json:"retracted_passive_at,omitzero"`
	RetractedActiveAt  time.Time `json:"retracted_active_at,omitzero"`
}

// AggService is one global service with every site's cell.
type AggService struct {
	Key   core.ServiceKey `json:"key"`
	Sites []AggSvcRecord  `json:"sites"`
}

// AggScannerRecord is one site's peak observation of one scanner.
type AggScannerRecord struct {
	Site    SiteID    `json:"site"`
	Window  time.Time `json:"window"`
	Dsts    int       `json:"dsts"`
	RstDsts int       `json:"rst_dsts"`
}

// AggScanner is one global scanner with every site's observation.
type AggScanner struct {
	Source netaddr.V4         `json:"source"`
	Sites  []AggScannerRecord `json:"sites"`
}

// AggSiteState is one feed's bookkeeping: the dedup cursors that make a
// restored aggregator skip re-sent frames instead of double-counting
// them, plus the sweep ledger and feed statistics.
type AggSiteState struct {
	Site        SiteID          `json:"site"`
	Epoch       uint64          `json:"epoch,omitempty"`
	LastSeq     uint64          `json:"last_seq,omitempty"`
	SnapGen     uint64          `json:"snap_gen,omitempty"`
	SnapApplied bool            `json:"snap_applied,omitempty"`
	Events      uint64          `json:"events,omitempty"`
	Dups        uint64          `json:"dups,omitempty"`
	Packets     int             `json:"packets,omitempty"`
	Scans       []core.ScanMeta `json:"scans,omitempty"`
}

// AggregatorState is the aggregator's complete state in wire form.
type AggregatorState struct {
	Sites    []AggSiteState `json:"sites,omitempty"`
	Services []AggService   `json:"services,omitempty"`
	Scanners []AggScanner   `json:"scanners,omitempty"`
}

// ExportState copies the aggregator's complete state, every list sorted.
// Safe for concurrent callers; the copy is a consistent cut (taken under
// the merge lock).
func (a *Aggregator) ExportState() *AggregatorState {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.flushLocked()
	st := &AggregatorState{}
	st.Sites = make([]AggSiteState, 0, len(a.sites))
	for id, s := range a.sites {
		as := AggSiteState{
			Site: id, Epoch: s.epoch, LastSeq: s.lastSeq,
			SnapGen: s.snapGen, SnapApplied: s.snapApplied,
			Events: s.events, Dups: s.dups, Packets: s.packets,
			Scans: make([]core.ScanMeta, 0, len(s.scans)),
		}
		for _, meta := range s.scans {
			as.Scans = append(as.Scans, meta)
		}
		sort.Slice(as.Scans, func(i, j int) bool { return as.Scans[i].ID < as.Scans[j].ID })
		st.Sites = append(st.Sites, as)
	}
	sort.Slice(st.Sites, func(i, j int) bool { return st.Sites[i].Site < st.Sites[j].Site })
	st.Services = make([]AggService, 0, a.cells.Len())
	a.cells.Walk(nil, func(key core.ServiceKey, cells []siteCell) bool {
		gs := AggService{Key: key, Sites: make([]AggSvcRecord, 0, len(cells))}
		for _, s := range cells {
			gs.Sites = append(gs.Sites, AggSvcRecord{
				Site: s.site, HasPassive: s.hasPassive, HasActive: s.hasActive,
				PassiveAt: s.passive.at.Time(), ActiveAt: s.active.at.Time(),
				PassiveSeenAt: s.passive.seen.Time(), ActiveSeenAt: s.active.seen.Time(),
				Flows: s.flows, Clients: int(s.clients), FirstAt: s.firstAt.Time(),
				RetractedPassiveAt: s.passive.retracted.Time(),
				RetractedActiveAt:  s.active.retracted.Time(),
			})
		}
		st.Services = append(st.Services, gs)
		return true
	})
	st.Scanners = make([]AggScanner, 0, len(a.scanners))
	for src, sites := range a.scanners {
		gs := AggScanner{Source: src, Sites: make([]AggScannerRecord, 0, len(sites))}
		for id, s := range sites {
			gs.Sites = append(gs.Sites, AggScannerRecord{
				Site: id, Window: s.window, Dsts: s.dsts, RstDsts: s.rstDsts,
			})
		}
		sort.Slice(gs.Sites, func(i, j int) bool { return gs.Sites[i].Site < gs.Sites[j].Site })
		st.Scanners = append(st.Scanners, gs)
	}
	sort.Slice(st.Scanners, func(i, j int) bool { return st.Scanners[i].Source < st.Scanners[j].Source })
	return st
}

// ImportState loads an exported state into a fresh aggregator, before
// any feed attaches: restored services are already "known globally", so
// reconnecting feeds re-reporting them do not re-announce on the global
// event stream, and the restored dedup cursors skip re-sent frames. A
// state file is input from outside the program: a cell with weights or
// times a cell cannot hold is refused, and nothing is imported.
func (a *Aggregator) ImportState(st *AggregatorState) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.sites) != 0 || a.cells.Len() != 0 || len(a.live) != 0 || len(a.scanners) != 0 {
		return fmt.Errorf("federate: state import requires a fresh aggregator")
	}
	live := make(map[core.ServiceKey][]siteCell, len(st.Services))
	for _, gs := range st.Services {
		cells := make([]siteCell, 0, len(gs.Sites))
		for _, r := range gs.Sites {
			if !validWeights(r.Flows, r.Clients) || !representable(r.PassiveAt, r.ActiveAt, r.PassiveSeenAt,
				r.ActiveSeenAt, r.FirstAt, r.RetractedPassiveAt, r.RetractedActiveAt) {
				return fmt.Errorf("federate: state cell %s at %s holds weights or times no cell can", gs.Key, r.Site)
			}
			cells = append(cells, siteCell{site: r.Site, svcState: svcState{
				passive:    side{core.ToInstant(r.PassiveAt), core.ToInstant(r.PassiveSeenAt), core.ToInstant(r.RetractedPassiveAt)},
				active:     side{core.ToInstant(r.ActiveAt), core.ToInstant(r.ActiveSeenAt), core.ToInstant(r.RetractedActiveAt)},
				firstAt:    core.ToInstant(r.FirstAt),
				flows:      r.Flows,
				clients:    uint32(r.Clients),
				hasPassive: r.HasPassive, hasActive: r.HasActive,
			}})
		}
		slices.SortFunc(cells, func(x, y siteCell) int { return cmp.Compare(x.site, y.site) })
		live[gs.Key] = cells
	}
	a.live = live
	for _, as := range st.Sites {
		s := &siteState{
			epoch: as.Epoch, lastSeq: as.LastSeq,
			snapGen: as.SnapGen, snapApplied: as.SnapApplied,
			events: as.Events, dups: as.Dups, packets: as.Packets,
			scans: make(map[int]core.ScanMeta, len(as.Scans)),
		}
		for _, meta := range as.Scans {
			s.scans[meta.ID] = meta
		}
		a.sites[as.Site] = s
	}
	for _, gs := range st.Scanners {
		perSite := make(map[SiteID]*scannerState, len(gs.Sites))
		for _, r := range gs.Sites {
			perSite[r.Site] = &scannerState{window: r.Window, dsts: r.Dsts, rstDsts: r.RstDsts}
		}
		a.scanners[gs.Source] = perSite
	}
	return nil
}
