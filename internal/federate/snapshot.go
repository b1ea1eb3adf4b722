package federate

import (
	"slices"
	"time"

	"servdisc/internal/core"
)

// SnapshotService is one service record inside a snapshot frame: the
// wire-portable slice of what the site's frozen Inventory knows about the
// service. Zero times mean "that technique never saw it" (consistent with
// the Provenance class).
type SnapshotService struct {
	Key core.ServiceKey `json:"key"`
	// Provenance is the site-local classification as of the freeze.
	Provenance core.Provenance `json:"prov"`
	// PassiveAt is the first passive evidence (zero for active-only).
	PassiveAt time.Time `json:"passive_at,omitzero"`
	// ActiveAt is the first successful probe (zero for passive-only).
	ActiveAt time.Time `json:"active_at,omitzero"`
	// Flows and Clients are the passive weights as of the freeze.
	Flows   int `json:"flows,omitempty"`
	Clients int `json:"clients,omitempty"`
}

// Snapshot is the bootstrap payload of a snapshot frame: a flattened,
// key-ordered rendering of one site's frozen core.Inventory. The carrying
// frame's Seq records the event-stream generation the snapshot covers.
type Snapshot struct {
	// Services lists every discovered service in canonical (addr, proto,
	// port) order.
	Services []SnapshotService `json:"services"`
	// Scanners lists detected external scanners, sorted by source.
	Scanners []core.ScannerInfo `json:"scanners,omitempty"`
	// Scans lists completed sweep metadata in start order.
	Scans []core.ScanMeta `json:"scans,omitempty"`
	// Retractions lists the site's retention tombstones — services whose
	// evidence expired, sorted by (key, prov). A reconnecting aggregator
	// replays them before the service list, so retract frames lost from
	// the bounded live feed cannot resurrect an expired service.
	Retractions []Retraction `json:"retractions,omitempty"`
	// Packets is how many packets the site's passive run has consumed.
	Packets int `json:"packets"`
}

// BuildSnapshot flattens a frozen inventory into its wire form. The
// inventory is read-only and the result shares nothing with it, so the
// caller may serialize the snapshot at leisure while the engine keeps
// ingesting.
func BuildSnapshot(inv *core.Inventory) *Snapshot {
	s := &Snapshot{
		Services: appendServices(make([]SnapshotService, 0, inv.Len()), inv),
		Scanners: append([]core.ScannerInfo(nil), inv.Scanners()...),
		Scans:    append([]core.ScanMeta(nil), inv.Scans()...),
		Packets:  inv.Packets(),
	}
	inv.EachTombstone(func(key core.ServiceKey, at time.Time, prov core.Provenance) bool {
		s.Retractions = append(s.Retractions, Retraction{Key: key, At: at, Prov: prov})
		return true
	})
	return s
}

// serviceRow is one service's snapshot row, from what Inventory.Service
// returns for it.
func serviceRow(key core.ServiceKey, rec *core.PassiveRecord, prov core.Provenance, activeAt time.Time) SnapshotService {
	svc := SnapshotService{Key: key, Provenance: prov, ActiveAt: activeAt}
	if rec != nil {
		svc.PassiveAt = rec.FirstSeen()
		svc.Flows = rec.Flows
		svc.Clients = rec.Clients()
	}
	return svc
}

// appendServices appends a row for every service of inv, in key order.
func appendServices(rows []SnapshotService, inv *core.Inventory) []SnapshotService {
	inv.EachService(func(key core.ServiceKey, rec *core.PassiveRecord, prov core.Provenance, _, activeAt time.Time) bool {
		rows = append(rows, serviceRow(key, rec, prov, activeAt))
		return true
	})
	return rows
}

// pendingSeal is what the engine's seals changed since the last seal frame:
// the inventory that frame was built from (base), the newest one (inv),
// and the keys the seals between them added or updated.
type pendingSeal struct {
	base, inv *core.Inventory
	keys      []core.ServiceKey
}

// buildSeal renders a pending seal as a seal frame's rows, read from the
// newest inventory: each added or updated service that is still there
// (one a later seal removed ships as its retract frame), each scanner
// whose tallies or window moved since base, each sweep new since base,
// and the packet count. It returns nil when none of that changed.
func buildSeal(p pendingSeal) *Snapshot {
	s := &Snapshot{Packets: p.inv.Packets()}
	core.SortKeys(p.keys)
	for _, key := range slices.Compact(p.keys) {
		if rec, prov, _, activeAt, ok := p.inv.Service(key); ok {
			s.Services = append(s.Services, serviceRow(key, rec, prov, activeAt))
		}
	}
	was := p.base.Scanners()
	for _, sc := range p.inv.Scanners() {
		for len(was) > 0 && was[0].Source < sc.Source {
			was = was[1:]
		}
		if len(was) == 0 || was[0] != sc {
			s.Scanners = append(s.Scanners, sc)
		}
	}
	for _, sc := range p.inv.Scans() {
		if !slices.ContainsFunc(p.base.Scans(), func(b core.ScanMeta) bool { return b.ID == sc.ID }) {
			s.Scans = append(s.Scans, sc)
		}
	}
	if len(s.Services) == 0 && len(s.Scanners) == 0 && len(s.Scans) == 0 && s.Packets == p.base.Packets() {
		return nil
	}
	return s
}
