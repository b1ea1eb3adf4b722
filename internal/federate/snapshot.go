package federate

import (
	"sort"
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
		Services: make([]SnapshotService, 0, inv.Len()),
		Scanners: append([]core.ScannerInfo(nil), inv.Scanners()...),
		Scans:    append([]core.ScanMeta(nil), inv.Scans()...),
		Packets:  inv.Packets(),
	}
	inv.EachService(func(key core.ServiceKey, rec *core.PassiveRecord, prov core.Provenance, _, activeAt time.Time) bool {
		svc := SnapshotService{Key: key, Provenance: prov, ActiveAt: activeAt}
		if rec != nil {
			svc.PassiveAt = rec.FirstSeen()
			svc.Flows = rec.Flows
			svc.Clients = rec.Clients()
		}
		s.Services = append(s.Services, svc)
		return true
	})
	inv.EachTombstone(func(key core.ServiceKey, at time.Time, prov core.Provenance) bool {
		s.Retractions = append(s.Retractions, Retraction{Key: key, At: at, Prov: prov})
		return true
	})
	sort.Slice(s.Retractions, func(i, j int) bool {
		a, b := &s.Retractions[i], &s.Retractions[j]
		if a.Key != b.Key {
			return a.Key.Before(b.Key)
		}
		return a.Prov < b.Prov
	})
	return s
}
