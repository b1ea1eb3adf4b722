package federate

import (
	"servdisc/internal/core"
	"servdisc/internal/query"
)

// This file is the aggregator's query side: the same secondary indexes
// the site engines maintain (internal/query), kept over the *global*
// cross-site inventory. Feed frames write the touched keys' cells into the
// write layer (see Aggregator.svc); every reader flushes it first, patching
// the cell tree and advancing the index over exactly those keys —
// O(churn · log n), never a table rescan. The epoch a flush installs reads
// the flushed tree, so any number of in-flight queries run lock-free after
// the flush releases the aggregator lock.

// cellTree is the aggregator's store: every key's site cells in key order,
// tombstone-only keys included. It is the query Source of its epochs.
type cellTree struct {
	core.Tree[core.ServiceKey, []siteCell]
}

// Doc folds the key's live site cells into the indexed doc (docOf).
func (t cellTree) Doc(key core.ServiceKey) (query.Doc, bool) {
	cells, _ := t.Get(key)
	return docOf(key, cells)
}

// Docs folds each key's cells as it walks, skipping tombstone-only keys.
func (t cellTree) Docs(after *core.ServiceKey, f func(query.Doc) bool) {
	t.Walk(after, func(k core.ServiceKey, cells []siteCell) bool {
		d, ok := docOf(k, cells)
		return !ok || f(d)
	})
}

// docOf folds a key's site cells into the indexed doc: earliest evidence
// anywhere, newest evidence anywhere, summed passive weights, and the
// cross-site provenance class, derived by the same rule a single site uses
// from its sides' first times merged across sites. ok is false when no
// site holds live evidence.
func docOf(key core.ServiceKey, cells []siteCell) (query.Doc, bool) {
	var merged svcState
	var first, last core.Instant
	d := query.Doc{Key: key}
	for i := range cells {
		s := &cells[i]
		if !s.live() {
			continue
		}
		merged.mergeSides(s.hasPassive, s.hasActive, s.passive.at, s.active.at)
		first = earliest(first, s.firstAt)
		last = max(last, s.passive.seen, s.active.seen)
		d.Flows += s.flows
		d.Clients += int(s.clients)
	}
	if !merged.live() {
		return query.Doc{}, false
	}
	if last == 0 {
		last = first
	}
	d.First, d.Last, d.Prov = first.Time(), last.Time(), merged.prov()
	return d, true
}

// flushLocked patches the cell tree with the write layer, advances the
// index over exactly the keys it held, and starts an empty one; it returns
// the current epoch. Caller holds a.mu; the epoch is immutable and safe to
// query after the lock is released.
func (a *Aggregator) flushLocked() *query.Epoch {
	if len(a.live) == 0 {
		return a.qcat.Epoch()
	}
	keys := make([]core.ServiceKey, 0, len(a.live))
	a.cells = cellTree{core.FlushLive(a.cells.Tree, a.live, func(cells []siteCell) bool { return len(cells) == 0 },
		func(k core.ServiceKey, _, _ []siteCell) { keys = append(keys, k) })}
	a.live = make(map[core.ServiceKey][]siteCell)
	a.qcat.Advance(a.cells, keys)
	return a.qcat.Epoch()
}

// Query answers a typed query over the global inventory: hits in
// canonical key order, paginated, deterministic for a quiescent
// aggregator regardless of how the same feeds interleaved. The flush
// happens under the aggregator lock; query execution runs lock-free
// against the epoch it installed.
func (a *Aggregator) Query(q query.Query) (query.Result, error) {
	return a.QueryEpoch().Query(q)
}

// QueryEpoch flushes and returns the current index epoch — the bulk form
// of Query for callers running many queries against one consistent view.
func (a *Aggregator) QueryEpoch() *query.Epoch {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.flushLocked()
}
