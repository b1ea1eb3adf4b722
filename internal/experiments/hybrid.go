package experiments

import (
	"fmt"
	"time"

	"servdisc/internal/campus"
	"servdisc/internal/core"
	"servdisc/internal/packet"
	"servdisc/internal/report"
	"servdisc/internal/stats"
)

// HybridTable reads the campaign's hybrid inventory (core.NewHybridInventory
// of its passive and active sides, Dataset.Inventory) and breaks the union down
// by first-seen provenance per selected TCP service port — the engine-level
// restatement of the paper's passive-vs-active comparison tables: passive
// wins the race for popular services, probing contributes the idle ones.
func HybridTable(ds *Dataset) *report.Table {
	type row struct{ union, pFirst, aFirst, pOnly, aOnly int }
	perPort := make(map[uint16]*row, len(campus.SelectedTCPPorts))
	for _, port := range campus.SelectedTCPPorts {
		perPort[port] = &row{}
	}
	var total row
	ds.Inventory.EachService(func(key core.ServiceKey, _ *core.PassiveRecord, p core.Provenance, _, _ time.Time) bool {
		r, ok := perPort[key.Port]
		if key.Proto != packet.ProtoTCP || !ok {
			return true
		}
		for _, dst := range []*row{r, &total} {
			dst.union++
			switch p {
			case core.PassiveFirst:
				dst.pFirst++
			case core.ActiveFirst:
				dst.aFirst++
			case core.PassiveOnly:
				dst.pOnly++
			case core.ActiveOnly:
				dst.aOnly++
			}
		}
		return true
	})

	t := report.NewTable("Hybrid reconciliation: first-seen provenance per service port (DTCP1-18d)",
		"port", "union", "passive-first", "active-first", "passive-only", "active-only")
	addRow := func(label string, r *row) {
		pct := func(n int) string { return fmt.Sprintf("%d (%s)", n, stats.Percent(n, r.union)) }
		t.AddRow(label, r.union, pct(r.pFirst), pct(r.aFirst), pct(r.pOnly), pct(r.aOnly))
	}
	for _, port := range campus.SelectedTCPPorts {
		addRow(fmt.Sprintf("%d", port), perPort[port])
	}
	addRow("all", &total)
	return t
}
