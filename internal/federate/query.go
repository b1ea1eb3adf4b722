package federate

import (
	"servdisc/internal/core"
	"servdisc/internal/query"
)

// This file is the aggregator's query side: the same secondary indexes
// the site engines maintain (internal/query), kept over the *global*
// cross-site inventory. Feed frames mark touched keys dirty (see
// Aggregator.svc); the index refreshes lazily at the next Query, patching
// only the dirty keys — O(churn · log n), never a table rescan — and every
// refresh installs an immutable epoch that any number of in-flight
// queries read lock-free after the refresh releases the aggregator lock.

// markDirty records a service-table mutation for the lazy index refresh
// and advances the table generation. Caller holds a.mu.
func (a *Aggregator) markDirty(key core.ServiceKey) {
	if a.dirty == nil {
		a.dirty = make(map[core.ServiceKey]struct{})
	}
	a.dirty[key] = struct{}{}
	a.gen++
}

// Gen returns the service-table mutation generation — unchanged means the
// global inventory (and anything derived from it, like the /services
// encoding) is unchanged.
func (a *Aggregator) Gen() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.gen
}

// globalDocLocked folds one key's live per-site cells into the indexed
// doc: earliest evidence anywhere, newest evidence anywhere, summed
// passive weights, and the cross-site provenance class derived by the
// same rule a single site uses on its merged times. ok is false when no
// site holds live evidence. Caller holds a.mu.
func (a *Aggregator) globalDocLocked(key core.ServiceKey) (query.Doc, bool) {
	var merged svcState
	d := query.Doc{Key: key}
	live := false
	for _, s := range a.services[key] {
		if !s.live() {
			continue
		}
		live = true
		if s.hasPassive {
			merged.hasPassive = true
			merged.passiveAt = minTime(merged.passiveAt, s.passiveAt)
		}
		if s.hasActive {
			merged.hasActive = true
			merged.activeAt = minTime(merged.activeAt, s.activeAt)
		}
		d.First = minTime(d.First, s.firstAt)
		d.Last = maxTime(d.Last, maxTime(s.passiveSeenAt, s.activeSeenAt))
		d.Flows += s.flows
		d.Clients += s.clients
	}
	if !live {
		return query.Doc{}, false
	}
	if d.Last.IsZero() {
		d.Last = d.First
	}
	d.Prov = merged.prov()
	return d, true
}

// refreshIndexLocked brings the catalog up to date with the service table
// and returns the current epoch. Caller holds a.mu; the returned epoch is
// immutable and safe to query after the lock is released.
func (a *Aggregator) refreshIndexLocked() *query.Epoch {
	if a.qcat == nil {
		a.qcat = query.NewCatalog(0)
		a.qfull = true
	}
	if a.qfull {
		keys := make([]core.ServiceKey, 0, len(a.services))
		for k := range a.services {
			keys = append(keys, k)
		}
		core.SortKeys(keys)
		docs := make([]query.Doc, 0, len(keys))
		for _, k := range keys {
			if d, ok := a.globalDocLocked(k); ok {
				docs = append(docs, d)
			}
		}
		a.qcat.Rebuild(docs)
		a.qfull, a.dirty = false, nil
		return a.qcat.Epoch()
	}
	if len(a.dirty) > 0 {
		keys := make([]core.ServiceKey, 0, len(a.dirty))
		for k := range a.dirty {
			keys = append(keys, k)
		}
		core.SortKeys(keys)
		var upserts []query.Doc
		var removes []core.ServiceKey
		for _, k := range keys {
			if d, ok := a.globalDocLocked(k); ok {
				upserts = append(upserts, d)
			} else {
				removes = append(removes, k)
			}
		}
		a.qcat.Patch(upserts, removes)
		a.dirty = nil
	}
	return a.qcat.Epoch()
}

// Query answers a typed query over the global inventory: hits in
// canonical key order, paginated, deterministic for a quiescent
// aggregator regardless of how the same feeds interleaved. The index
// refresh (dirty keys only) happens under the aggregator lock; query
// execution runs lock-free against the refreshed epoch.
func (a *Aggregator) Query(q query.Query) (query.Result, error) {
	a.mu.Lock()
	ep := a.refreshIndexLocked()
	a.mu.Unlock()
	return ep.Query(q)
}

// QueryEpoch refreshes and returns the current index epoch — the bulk
// form of Query for callers running many queries against one consistent
// view.
func (a *Aggregator) QueryEpoch() *query.Epoch {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.refreshIndexLocked()
}
