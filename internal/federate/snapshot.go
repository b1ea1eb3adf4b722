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

// Snapshot is the payload of a snapshot or seal frame: a flattened,
// key-ordered rendering of one site's frozen core.Inventory, or of what
// changed in it. The carrying frame's Seq records the stream position it
// covers.
type Snapshot struct {
	// Services lists every discovered service in canonical (addr, proto,
	// port) order.
	Services []SnapshotService `json:"services"`
	// Scanners lists detected external scanners, sorted by source.
	Scanners []core.ScannerInfo `json:"scanners,omitempty"`
	// Scans lists completed sweep metadata in start order.
	Scans []core.ScanMeta `json:"scans,omitempty"`
	// Retractions lists the site's retention tombstones — services whose
	// evidence expired. The aggregator applies them before the service
	// list, so no row or replayed frame older than a retraction can
	// resurrect the service it withdrew.
	Retractions []Retraction `json:"retractions,omitempty"`
	// Packets is how many packets the site's passive run has consumed.
	Packets int `json:"packets"`
}

// BuildSnapshot flattens a frozen inventory into its wire form. The
// inventory is read-only and the result shares nothing with it, so the
// caller may serialize the snapshot at leisure while the engine keeps
// ingesting.
func BuildSnapshot(inv *core.Inventory) *Snapshot { return buildSnapshot(inv, nil) }

// buildSnapshot is BuildSnapshot restricted to the rows and retractions of
// the keys keep accepts (every key when keep is nil); the scanners, sweeps
// and packet count ship whole.
func buildSnapshot(inv *core.Inventory, keep func(core.ServiceKey) bool) *Snapshot {
	s := &Snapshot{
		Scanners: append([]core.ScannerInfo(nil), inv.Scanners()...),
		Scans:    append([]core.ScanMeta(nil), inv.Scans()...),
		Packets:  inv.Packets(),
	}
	if keep == nil {
		s.Services = make([]SnapshotService, 0, inv.Len())
	}
	inv.EachService(func(key core.ServiceKey, rec *core.PassiveRecord, prov core.Provenance, _, activeAt time.Time) bool {
		if keep == nil || keep(key) {
			s.Services = append(s.Services, serviceRow(key, rec, prov, activeAt))
		}
		return true
	})
	inv.EachTombstone(func(key core.ServiceKey, at time.Time, prov core.Provenance) bool {
		if keep == nil || keep(key) {
			s.Retractions = append(s.Retractions, Retraction{Key: key, At: at, Prov: prov})
		}
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

// buildSeal renders what changed from base to inv as a seal frame's body,
// given keys, sorted and unique, that the link changed: each tombstone new
// or moved since base, a row for each of keys still listed in inv, each
// scanner whose tallies or window moved since base, each sweep new since
// base, and the packet count. The body is nil when none of that changed.
func buildSeal(base, inv *core.Inventory, keys []core.ServiceKey) *Snapshot {
	s := &Snapshot{Packets: inv.Packets()}
	inv.EachTombstoneSince(base, func(key core.ServiceKey, at time.Time, prov core.Provenance) {
		s.Retractions = append(s.Retractions, Retraction{Key: key, At: at, Prov: prov})
	})
	for _, key := range keys {
		if rec, prov, _, activeAt, ok := inv.Service(key); ok {
			s.Services = append(s.Services, serviceRow(key, rec, prov, activeAt))
		}
	}
	was := base.Scanners()
	for _, sc := range inv.Scanners() {
		for len(was) > 0 && was[0].Source < sc.Source {
			was = was[1:]
		}
		if len(was) == 0 || was[0] != sc {
			s.Scanners = append(s.Scanners, sc)
		}
	}
	for _, sc := range inv.Scans() {
		if !slices.ContainsFunc(base.Scans(), func(b core.ScanMeta) bool { return b.ID == sc.ID }) {
			s.Scans = append(s.Scans, sc)
		}
	}
	if len(s.Services)+len(s.Scanners)+len(s.Scans)+len(s.Retractions) == 0 && s.Packets == base.Packets() {
		return nil
	}
	return s
}
