// Package query is the read path: secondary indexes over the live
// inventory, a typed paginated query API and event-stream filters. An
// index epoch is an immutable value — thousands of
// in-flight queries read it lock-free while the next epoch is patched
// forward from snapshot deltas in O(churn · log n), never by rescanning
// the inventory.
package query

import (
	"sort"

	"servdisc/internal/core"
)

// keyed constrains tree elements to anything addressable by a ServiceKey.
// Docs carry full records; index postings carry bare keys.
type keyed interface{ skey() core.ServiceKey }

// keyEntry is a bare ServiceKey as a tree element — the posting-list form.
type keyEntry core.ServiceKey

func (e keyEntry) skey() core.ServiceKey { return core.ServiceKey(e) }

// cmpKeys orders ServiceKeys canonically (addr, proto, port) — the same
// ordering as Inventory.Keys, so index iteration reproduces dump order.
func cmpKeys(a, b core.ServiceKey) int { return a.Compare(b) }

// Node arities. Leaves hold up to leafMax elements, inner nodes up to
// innerMax children. Small leaves keep the per-update path copy cheap
// (one leaf + a spine of inner nodes), which is what the O(churn) index
// maintenance gate measures; the fanout keeps a 2M-entry tree ~5 levels
// deep so point lookups stay a handful of binary searches.
const (
	leafMax  = 64
	innerMax = 16
)

// stree is a persistent (immutable, structurally shared) B+-tree keyed by
// ServiceKey. The zero value is the empty tree. All mutation goes through
// patch, which returns a new tree sharing every untouched subtree with
// the receiver — the same path-copying discipline as the core pmap, but
// ordered, so it can serve deterministic paginated range scans.
type stree[E keyed] struct {
	root *snode[E]
	size int
}

// snode is one tree node: a leaf (elems non-nil) or an inner node (kids
// non-nil). Nodes are immutable after construction.
type snode[E keyed] struct {
	elems []E
	kids  []*snode[E]
	max   core.ServiceKey // largest key in the subtree
	n     int             // elements in the subtree
}

func (t stree[E]) len() int { return t.size }

// get returns the element stored under k.
func (t stree[E]) get(k core.ServiceKey) (E, bool) {
	nd := t.root
	for nd != nil && nd.kids != nil {
		i := sort.Search(len(nd.kids), func(j int) bool { return cmpKeys(nd.kids[j].max, k) >= 0 })
		if i == len(nd.kids) {
			var zero E
			return zero, false
		}
		nd = nd.kids[i]
	}
	if nd == nil {
		var zero E
		return zero, false
	}
	i := sort.Search(len(nd.elems), func(j int) bool { return cmpKeys(nd.elems[j].skey(), k) >= 0 })
	if i < len(nd.elems) && nd.elems[i].skey() == k {
		return nd.elems[i], true
	}
	var zero E
	return zero, false
}

// patch returns a tree with adds upserted and dels removed. Both slices
// must be sorted by key and duplicate-free, and no key may appear in both.
// The receiver is unchanged; subtrees no op touches are shared, so the
// cost is O((|adds|+|dels|) · log n) node copies.
func (t stree[E]) patch(adds []E, dels []core.ServiceKey) stree[E] {
	if len(adds) == 0 && len(dels) == 0 {
		return t
	}
	var kids []*snode[E]
	if t.root == nil {
		if len(adds) == 0 {
			return t
		}
		kids = buildLeaves(adds)
	} else {
		kids = patchNode(t.root, adds, dels)
	}
	for len(kids) > 1 {
		kids = groupInner(kids)
	}
	if len(kids) == 0 {
		return stree[E]{}
	}
	root := kids[0]
	// Hoist single-child chains so the height tracks the population.
	for root.kids != nil && len(root.kids) == 1 {
		root = root.kids[0]
	}
	return stree[E]{root: root, size: root.n}
}

// patchNode applies the ops to one subtree, returning replacement nodes of
// the same height (possibly zero of them if everything was deleted, or
// several if inserts forced splits). Each returned node respects the
// arity bounds.
func patchNode[E keyed](nd *snode[E], adds []E, dels []core.ServiceKey) []*snode[E] {
	if nd.kids == nil {
		return patchLeaf(nd, adds, dels)
	}
	out := make([]*snode[E], 0, len(nd.kids)+1)
	changed := false
	ai, di := 0, 0
	for i, kid := range nd.kids {
		ahi, dhi := len(adds), len(dels)
		if i < len(nd.kids)-1 {
			// Ops with keys beyond the last kid's max still belong to the
			// last kid (inserts past the current right edge).
			max := kid.max
			ahi = ai + sort.Search(len(adds)-ai, func(j int) bool { return cmpKeys(adds[ai+j].skey(), max) > 0 })
			dhi = di + sort.Search(len(dels)-di, func(j int) bool { return cmpKeys(dels[di+j], max) > 0 })
		}
		if ahi == ai && dhi == di {
			out = append(out, kid)
		} else {
			changed = true
			out = append(out, patchNode(kid, adds[ai:ahi], dels[di:dhi])...)
		}
		ai, di = ahi, dhi
	}
	if !changed {
		return []*snode[E]{nd}
	}
	out = coalesce(out)
	if len(out) == 0 {
		return nil
	}
	return regroup(out)
}

// patchLeaf merges the ops into one leaf's elements, splitting the result
// into fresh leaves. Deletes of absent keys are ignored.
func patchLeaf[E keyed](nd *snode[E], adds []E, dels []core.ServiceKey) []*snode[E] {
	merged := make([]E, 0, len(nd.elems)+len(adds))
	changed := false
	ai, di := 0, 0
	for _, e := range nd.elems {
		k := e.skey()
		for ai < len(adds) && cmpKeys(adds[ai].skey(), k) < 0 {
			merged = append(merged, adds[ai])
			ai++
			changed = true
		}
		for di < len(dels) && cmpKeys(dels[di], k) < 0 {
			di++
		}
		if di < len(dels) && dels[di] == k {
			di++
			changed = true
			continue
		}
		if ai < len(adds) && adds[ai].skey() == k {
			merged = append(merged, adds[ai]) // upsert
			ai++
			changed = true
			continue
		}
		merged = append(merged, e)
	}
	if ai < len(adds) {
		merged = append(merged, adds[ai:]...)
		changed = true
	}
	if !changed {
		return []*snode[E]{nd}
	}
	if len(merged) == 0 {
		return nil
	}
	return buildLeaves(merged)
}

// buildLeaves splits a sorted element slice into evenly sized leaves. The
// leaves subslice the input (which is freshly built by the caller and
// never mutated afterwards).
func buildLeaves[E keyed](elems []E) []*snode[E] {
	parts := (len(elems) + leafMax - 1) / leafMax
	per := (len(elems) + parts - 1) / parts
	out := make([]*snode[E], 0, parts)
	for lo := 0; lo < len(elems); lo += per {
		hi := min(lo+per, len(elems))
		chunk := elems[lo:hi:hi]
		out = append(out, &snode[E]{elems: chunk, max: chunk[len(chunk)-1].skey(), n: len(chunk)})
	}
	return out
}

// coalesce merges an underfull node into its left neighbor when the pair
// fits in one node, bounding how far repeated deletions can fragment the
// tree.
func coalesce[E keyed](kids []*snode[E]) []*snode[E] {
	out := kids[:0]
	for _, k := range kids {
		if len(out) > 0 {
			prev := out[len(out)-1]
			if merged, ok := mergeNodes(prev, k); ok {
				out[len(out)-1] = merged
				continue
			}
		}
		out = append(out, k)
	}
	return out
}

// mergeNodes combines two same-height siblings when one is underfull and
// the pair fits a single node. Inputs are never mutated.
func mergeNodes[E keyed](a, b *snode[E]) (*snode[E], bool) {
	if a.kids == nil && b.kids == nil {
		if len(a.elems)+len(b.elems) > leafMax || (len(a.elems) >= leafMax/4 && len(b.elems) >= leafMax/4) {
			return nil, false
		}
		elems := make([]E, 0, len(a.elems)+len(b.elems))
		elems = append(append(elems, a.elems...), b.elems...)
		return &snode[E]{elems: elems, max: elems[len(elems)-1].skey(), n: len(elems)}, true
	}
	if a.kids != nil && b.kids != nil {
		if len(a.kids)+len(b.kids) > innerMax || (len(a.kids) >= innerMax/4 && len(b.kids) >= innerMax/4) {
			return nil, false
		}
		kids := make([]*snode[E], 0, len(a.kids)+len(b.kids))
		kids = append(append(kids, a.kids...), b.kids...)
		return &snode[E]{kids: kids, max: b.max, n: a.n + b.n}, true
	}
	return nil, false
}

// regroup wraps a run of same-height nodes into parents when it exceeds
// the arity bound, otherwise into a single parent-less replacement set.
// Used by patchNode to return nodes at its own height: the input is the
// node's new child list, the output the replacement node(s).
func regroup[E keyed](kids []*snode[E]) []*snode[E] {
	if len(kids) <= innerMax {
		return []*snode[E]{makeInner(kids)}
	}
	return groupInner(kids)
}

// groupInner packs nodes into evenly sized parents one level up.
func groupInner[E keyed](kids []*snode[E]) []*snode[E] {
	parts := (len(kids) + innerMax - 1) / innerMax
	per := (len(kids) + parts - 1) / parts
	out := make([]*snode[E], 0, parts)
	for lo := 0; lo < len(kids); lo += per {
		hi := min(lo+per, len(kids))
		out = append(out, makeInner(kids[lo:hi:hi]))
	}
	return out
}

func makeInner[E keyed](kids []*snode[E]) *snode[E] {
	n := 0
	for _, k := range kids {
		n += k.n
	}
	return &snode[E]{kids: kids, max: kids[len(kids)-1].max, n: n}
}

// cursor iterates a tree in key order, resumable from any position — the
// pagination and k-way-merge primitive. Zero allocation per step after
// construction.
type cursor[E keyed] struct {
	stack []cframe[E]
}

type cframe[E keyed] struct {
	nd *snode[E]
	i  int
}

// seek positions the cursor at the first element with key > after (or the
// first element overall when after is nil).
func (t stree[E]) seek(after *core.ServiceKey) cursor[E] {
	c := cursor[E]{}
	if t.root == nil {
		return c
	}
	c.stack = make([]cframe[E], 0, 8)
	nd := t.root
	for {
		if nd.kids != nil {
			i := 0
			if after != nil {
				a := *after
				i = sort.Search(len(nd.kids), func(j int) bool { return cmpKeys(nd.kids[j].max, a) > 0 })
			}
			if i == len(nd.kids) {
				// Everything in this subtree is ≤ after; unwind.
				c.stack = c.stack[:0]
				return c
			}
			c.stack = append(c.stack, cframe[E]{nd: nd, i: i})
			nd = nd.kids[i]
			continue
		}
		i := 0
		if after != nil {
			a := *after
			i = sort.Search(len(nd.elems), func(j int) bool { return cmpKeys(nd.elems[j].skey(), a) > 0 })
		}
		c.stack = append(c.stack, cframe[E]{nd: nd, i: i})
		if i == len(nd.elems) {
			c.advance()
		}
		return c
	}
}

// next returns the current element and steps forward; ok is false at the
// end of the tree.
func (c *cursor[E]) next() (E, bool) {
	if len(c.stack) == 0 {
		var zero E
		return zero, false
	}
	top := &c.stack[len(c.stack)-1]
	e := top.nd.elems[top.i]
	top.i++
	if top.i == len(top.nd.elems) {
		c.advance()
	}
	return e, true
}

// peek returns the current element without advancing.
func (c *cursor[E]) peek() (E, bool) {
	if len(c.stack) == 0 {
		var zero E
		return zero, false
	}
	top := &c.stack[len(c.stack)-1]
	return top.nd.elems[top.i], true
}

// advance pops exhausted frames and descends into the next leaf.
func (c *cursor[E]) advance() {
	for {
		c.stack = c.stack[:len(c.stack)-1]
		if len(c.stack) == 0 {
			return
		}
		top := &c.stack[len(c.stack)-1]
		top.i++
		if top.i < len(top.nd.kids) {
			nd := top.nd.kids[top.i]
			for nd.kids != nil {
				c.stack = append(c.stack, cframe[E]{nd: nd, i: 0})
				nd = nd.kids[0]
			}
			c.stack = append(c.stack, cframe[E]{nd: nd, i: 0})
			return
		}
	}
}
