package core

// Persistent B+-tree — the one persistent structure in the repository: the
// merged store's services, trails and tombstones, and the query layer's
// posting lists and doc tree. A Tree value is immutable: Patch returns a new
// tree that shares every subtree no edit touched with the receiver, so a
// snapshot patched forward from its predecessor costs O(churn · log n) node
// copies instead of an O(n) clone, and every previously returned tree stays
// valid forever. Entries sit in key order, so the same tree is the
// inventory's key listing, resumable from any key (Seek, Walk).

import (
	"slices"
	"sort"
	"unsafe"
)

// TreeKey constrains tree keys: comparable, with Ord mapping them into
// uint64 injectively and in order. Every search compares those integers.
type TreeKey interface {
	comparable
	Ord() uint64
}

// TreeEntry is one key and its value. Val leads so that a zero-size value
// (a posting list's struct{}) adds no trailing padding to the key.
type TreeEntry[K TreeKey, V any] struct {
	Val V
	Key K
}

// TreeEdit is one change Patch applies: Val upserted under Key, or Key
// removed when Del is set.
type TreeEdit[K TreeKey, V any] struct {
	Key K
	Val V
	Del bool
}

// Node arities. Leaves hold up to leafMax entries, inner nodes up to
// innerMax children. Small leaves keep the per-edit path copy cheap (one
// leaf and a spine of inner nodes), which is what the O(churn) snapshot and
// index gates measure; the fan-out keeps a 2 M-entry tree five levels deep.
const (
	leafMax  = 64
	innerMax = 16
)

// Tree is a persistent B+-tree map from K to V. The zero value is the empty
// tree.
type Tree[K TreeKey, V any] struct {
	root *tnode[K, V]
	n    int
}

// tnode is a leaf (kids nil, at least one entry) or an inner node (at least
// one child, and maxes[i] the Ord of the largest key under kids[i]: what a
// descent searches, packed apart from the children, so a search probes few
// cache lines). A parent holds its children by value, so a descent reads
// one node array per level. The arrays never change after construction,
// and a node copied out of one keeps sharing them.
type tnode[K TreeKey, V any] struct {
	ents  []TreeEntry[K, V]
	kids  []tnode[K, V]
	maxes *[innerMax]uint64
}

// max is the largest key under nd.
func (nd *tnode[K, V]) max() K {
	if nd.kids != nil {
		return nd.kids[len(nd.kids)-1].max()
	}
	return nd.ents[len(nd.ents)-1].Key
}

// inner is the inner node over kids, which it keeps.
func inner[K TreeKey, V any](kids []tnode[K, V]) tnode[K, V] {
	maxes := new([innerMax]uint64)
	for i := range kids {
		maxes[i] = kids[i].max().Ord()
	}
	return tnode[K, V]{kids: kids, maxes: maxes}
}

// same reports whether a and b are one node: the same arrays, so the same
// entries — whatever parent array each was copied into.
func (a *tnode[K, V]) same(b *tnode[K, V]) bool {
	return len(a.ents) == len(b.ents) && len(a.kids) == len(b.kids) &&
		unsafe.SliceData(a.ents) == unsafe.SliceData(b.ents) && unsafe.SliceData(a.kids) == unsafe.SliceData(b.kids)
}

// kidAt is the first child whose max is >= k (> k when after): the one
// that holds k, or the first after it.
func (nd *tnode[K, V]) kidAt(k K, after bool) int {
	o := k.Ord()
	lo, hi := 0, len(nd.kids)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if m := nd.maxes[h]; m < o || m == o && after {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo
}

// entAt is kidAt for a leaf's entries.
func (nd *tnode[K, V]) entAt(k K, after bool) int {
	o := k.Ord()
	lo, hi := 0, len(nd.ents)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if e := nd.ents[h].Key.Ord(); e < o || e == o && after {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo
}

// Len returns the number of entries.
func (t Tree[K, V]) Len() int { return t.n }

// Get returns the value stored under k.
func (t Tree[K, V]) Get(k K) (v V, ok bool) {
	nd := t.root
	if nd == nil {
		return v, false
	}
	for nd.kids != nil {
		i := nd.kidAt(k, false)
		if i == len(nd.kids) {
			return v, false
		}
		nd = &nd.kids[i]
	}
	if i := nd.entAt(k, false); i < len(nd.ents) && nd.ents[i].Key == k {
		return nd.ents[i].Val, true
	}
	return v, false
}

// BuildTree makes the tree of ents, which must be sorted by key and
// duplicate-free, bottom up: every node is allocated once at its final size.
// The leaves subslice ents, so the caller must not write ents afterwards.
func BuildTree[K TreeKey, V any](ents []TreeEntry[K, V]) Tree[K, V] {
	return treeOf(leaves(make([]tnode[K, V], 0, (len(ents)+leafMax-1)/leafMax), ents), len(ents))
}

// treeOf stacks same-height nodes into a tree of n entries, hoisting
// single-child roots so the height tracks the population.
func treeOf[K TreeKey, V any](kids []tnode[K, V], n int) Tree[K, V] {
	if len(kids) == 0 {
		return Tree[K, V]{}
	}
	for len(kids) > 1 {
		kids = group(kids)
	}
	root := &kids[0]
	for len(root.kids) == 1 {
		root = &root.kids[0]
	}
	return Tree[K, V]{root: root, n: n}
}

// leaves appends ents, split into evenly sized leaves that subslice it, to
// out.
func leaves[K TreeKey, V any](out []tnode[K, V], ents []TreeEntry[K, V]) []tnode[K, V] {
	if len(ents) == 0 {
		return out
	}
	parts := (len(ents) + leafMax - 1) / leafMax
	per := (len(ents) + parts - 1) / parts
	for lo := 0; lo < len(ents); lo += per {
		hi := min(lo+per, len(ents))
		out = append(out, tnode[K, V]{ents: ents[lo:hi:hi]})
	}
	return out
}

// group packs same-height nodes into evenly sized parents one level up. The
// parents subslice kids, which must be the caller's own.
func group[K TreeKey, V any](kids []tnode[K, V]) []tnode[K, V] {
	parts := (len(kids) + innerMax - 1) / innerMax
	per := (len(kids) + parts - 1) / parts
	out := make([]tnode[K, V], 0, parts)
	for lo := 0; lo < len(kids); lo += per {
		hi := min(lo+per, len(kids))
		out = append(out, inner(kids[lo:hi:hi]))
	}
	return out
}

// Patch returns the tree with edits applied; the receiver is unchanged.
// edits must be sorted by key and name each key at most once; removing an
// absent key is a no-op. report, if non-nil, is called once per edit in
// order, with the edit's index and the value its key held before (had
// false if none) — so a caller learns which upserts were inserts without a
// lookup of its own.
func (t Tree[K, V]) Patch(edits []TreeEdit[K, V], report func(i int, old V, had bool)) Tree[K, V] {
	if len(edits) == 0 {
		return t
	}
	p := patcher[K, V]{edits: edits, report: report, n: t.n}
	if t.root == nil {
		return treeOf(p.leaf(nil, 0, len(edits), nil), p.n)
	}
	return treeOf(p.node(t.root, 0, len(edits), nil), p.n)
}

// FlushLive returns base with live, a write layer over it, flushed in: each
// entry upserted, or its key deleted where retired (nil: never) says the
// value retires it; moved, if set, sees each key in key order with its value
// in base (zero if none) and in live. A layer that rewrites at least half of
// base is merged with it and built bottom up, not patched: the patch would
// copy nearly every leaf one by one.
func FlushLive[K TreeKey, V any](base Tree[K, V], live map[K]V, retired func(V) bool, moved func(k K, old, cur V)) Tree[K, V] {
	ents := make([]TreeEntry[K, V], 0, len(live))
	for k, v := range live {
		ents = append(ents, TreeEntry[K, V]{Val: v, Key: k})
	}
	ents = sortEntries(ents)
	del := func(i int) bool { return retired != nil && retired(ents[i].Val) }
	report := func(i int, old V, _ bool) {
		if moved != nil {
			moved(ents[i].Key, old, ents[i].Val)
		}
	}
	if 2*len(ents) < base.Len() {
		edits := upserts(ents)
		for i := range edits {
			edits[i].Del = del(i)
		}
		return base.Patch(edits, report)
	}
	// Sized for the usual layer, within base or covering it: the tree keeps it.
	out := make([]TreeEntry[K, V], 0, max(base.Len(), len(ents)))
	c := base.Seek(nil)
	for i, e := range ents {
		var old V
		for b, ok := c.Peek(); ok && b.Key.Ord() <= e.Key.Ord(); b, ok = c.Peek() {
			if c.Next(); b.Key == e.Key {
				old = b.Val
				break
			}
			out = append(out, b)
		}
		if report(i, old, false); !del(i) {
			out = append(out, e)
		}
	}
	for b, ok := c.Next(); ok; b, ok = c.Next() {
		out = append(out, b)
	}
	return BuildTree(out)
}

// patcher carries one Patch's edits, its report hook and the running size.
type patcher[K TreeKey, V any] struct {
	edits  []TreeEdit[K, V]
	report func(int, V, bool)
	n      int
}

// node appends the nodes replacing nd with edits[lo:hi] applied to out: nd
// itself when nothing changed, none when everything went, several when
// inserts split it. Each respects the arity bounds and has nd's height.
func (p *patcher[K, V]) node(nd *tnode[K, V], lo, hi int, out []tnode[K, V]) []tnode[K, V] {
	if nd.kids == nil {
		return p.leaf(nd, lo, hi, out)
	}
	kids := make([]tnode[K, V], 0, len(nd.kids)+2)
	changed := false
	for i := range nd.kids {
		kid := &nd.kids[i]
		end := hi
		if i < len(nd.kids)-1 { // edits past the last max still belong to the last child
			end = lo + sort.Search(hi-lo, func(j int) bool { return p.edits[lo+j].Key.Ord() > nd.maxes[i] })
		}
		if end == lo {
			kids = append(kids, *kid)
			continue
		}
		n := len(kids)
		kids = p.node(kid, lo, end, kids)
		changed = changed || len(kids) != n+1 || !kids[n].same(kid)
		lo = end
	}
	if !changed {
		return append(out, *nd)
	}
	kids = coalesce(kids)
	switch {
	case len(kids) == 0:
		return out
	case len(kids) <= innerMax:
		return append(out, inner(kids))
	}
	return append(out, group(kids)...)
}

// leaf merges edits[lo:hi] into a leaf (nil: an empty tree) and appends the
// resulting leaves to out.
func (p *patcher[K, V]) leaf(nd *tnode[K, V], lo, hi int, out []tnode[K, V]) []tnode[K, V] {
	var ents []TreeEntry[K, V]
	if nd != nil {
		ents = nd.ents
	}
	merged := make([]TreeEntry[K, V], 0, len(ents)+hi-lo)
	changed, j := false, 0
	for i := lo; i < hi; i++ {
		e := &p.edits[i]
		for j < len(ents) && ents[j].Key.Ord() < e.Key.Ord() {
			merged = append(merged, ents[j])
			j++
		}
		var old V
		had := j < len(ents) && ents[j].Key == e.Key
		if had {
			old = ents[j].Val
			j++
		}
		if p.report != nil {
			p.report(i, old, had)
		}
		switch {
		case !e.Del:
			merged = append(merged, TreeEntry[K, V]{e.Val, e.Key})
			if !had {
				p.n++
			}
		case had:
			p.n--
		default:
			continue // removing an absent key
		}
		changed = true
	}
	if !changed {
		if nd == nil {
			return out
		}
		return append(out, *nd)
	}
	return leaves(out, append(merged, ents[j:]...))
}

// coalesce merges each underfull node into its left neighbour when the pair
// fits one node, bounding how far deletions can fragment the tree. It
// rewrites kids in place; the nodes' arrays are never mutated.
func coalesce[K TreeKey, V any](kids []tnode[K, V]) []tnode[K, V] {
	out := kids[:0]
	for _, k := range kids {
		if n := len(out); n > 0 {
			if m, ok := mergeNodes(&out[n-1], &k); ok {
				out[n-1] = m
				continue
			}
		}
		out = append(out, k)
	}
	return out
}

// mergeNodes is the node holding two same-height siblings; ok is false
// unless one of them is underfull and together they fit.
func mergeNodes[K TreeKey, V any](a, b *tnode[K, V]) (m tnode[K, V], ok bool) {
	fits := func(x, y, max int) bool { return x+y <= max && (x < max/4 || y < max/4) }
	if a.kids == nil && fits(len(a.ents), len(b.ents), leafMax) {
		return tnode[K, V]{ents: slices.Concat(a.ents, b.ents)}, true
	}
	if a.kids != nil && fits(len(a.kids), len(b.kids), innerMax) {
		return inner(slices.Concat(a.kids, b.kids)), true
	}
	return m, false
}

// TreeCursor iterates a tree in key order from any position: the
// pagination, k-way-merge and diff primitive. Stepping allocates nothing.
type TreeCursor[K TreeKey, V any] struct {
	stack []tframe[K, V] // root first; the top frame is a leaf
}

type tframe[K TreeKey, V any] struct {
	nd *tnode[K, V]
	i  int
}

// Seek positions a cursor at the first entry with key > *after (the first
// entry when after is nil).
func (t Tree[K, V]) Seek(after *K) TreeCursor[K, V] {
	var c TreeCursor[K, V]
	if t.root == nil {
		return c
	}
	c.stack = make([]tframe[K, V], 0, 8)
	for nd := t.root; ; {
		i := 0
		if nd.kids != nil {
			if after != nil {
				i = nd.kidAt(*after, true)
			}
			if i == len(nd.kids) { // everything here is <= after
				c.stack = c.stack[:0]
				return c
			}
			c.stack = append(c.stack, tframe[K, V]{nd, i})
			nd = &nd.kids[i]
			continue
		}
		if after != nil {
			i = nd.entAt(*after, true)
		}
		c.stack = append(c.stack, tframe[K, V]{nd, i})
		if i == len(nd.ents) {
			c.advance()
		}
		return c
	}
}

// Peek returns the current entry; ok is false at the end of the tree.
func (c *TreeCursor[K, V]) Peek() (e TreeEntry[K, V], ok bool) {
	if len(c.stack) == 0 {
		return e, false
	}
	top := &c.stack[len(c.stack)-1]
	return top.nd.ents[top.i], true
}

// Next returns the current entry and steps past it.
func (c *TreeCursor[K, V]) Next() (e TreeEntry[K, V], ok bool) {
	if e, ok = c.Peek(); ok {
		top := &c.stack[len(c.stack)-1]
		if top.i++; top.i == len(top.nd.ents) {
			c.advance()
		}
	}
	return e, ok
}

// advance pops the top frame, whose node is exhausted (or skipped), and
// descends into the leftmost leaf of the next subtree.
func (c *TreeCursor[K, V]) advance() {
	for {
		c.stack = c.stack[:len(c.stack)-1]
		if len(c.stack) == 0 {
			return
		}
		top := &c.stack[len(c.stack)-1]
		if top.i++; top.i < len(top.nd.kids) {
			for nd := &top.nd.kids[top.i]; ; nd = &nd.kids[0] {
				c.stack = append(c.stack, tframe[K, V]{nd, 0})
				if nd.kids == nil {
					return
				}
			}
		}
	}
}

// Walk visits the entries with key > *after (every entry when after is nil)
// in key order until f returns false.
func (t Tree[K, V]) Walk(after *K, f func(K, V) bool) {
	for c := t.Seek(after); ; {
		e, ok := c.Next()
		if !ok || !f(e.Key, e.Val) {
			return
		}
	}
}

// Diff visits, in key order, every key whose binding differs between old
// and t: present on one side only, or bound to values eq calls unequal. The
// two cursors skip every subtree both trees share, so a tree patched
// forward from old costs O(changed leaves · leafMax) compares; trees with
// different node boundaries still diff exactly, entry by entry.
func (t Tree[K, V]) Diff(old Tree[K, V], eq func(a, b V) bool, yield func(K)) {
	if t.root == old.root || t.root != nil && old.root != nil && t.root.same(old.root) {
		return
	}
	a, b := old.Seek(nil), t.Seek(nil)
	for {
		for a.skipShared(&b) {
		}
		ea, oka := a.Peek()
		eb, okb := b.Peek()
		switch {
		case !oka && !okb:
			return
		case !okb || oka && ea.Key.Ord() < eb.Key.Ord():
			yield(ea.Key)
			a.Next()
		case !oka || eb.Key.Ord() < ea.Key.Ord():
			yield(eb.Key)
			b.Next()
		default:
			if !eq(ea.Val, eb.Val) {
				yield(ea.Key)
			}
			a.Next()
			b.Next()
		}
	}
}

// skipShared steps both cursors past a subtree they are both at the start
// of, and reports whether there was one. The candidates are the nodes whose
// first entry is the current one: every frame from the top down while the
// frames below it sit at their first child.
func (c *TreeCursor[K, V]) skipShared(d *TreeCursor[K, V]) bool {
	for i := c.startDepth(); i < len(c.stack); i++ {
		for j := d.startDepth(); j < len(d.stack); j++ {
			if c.stack[i].nd.same(d.stack[j].nd) {
				c.stack, d.stack = c.stack[:i+1], d.stack[:j+1]
				c.advance()
				d.advance()
				return true
			}
		}
	}
	return false
}

// startDepth is the depth of the outermost node the cursor is at the start
// of (len(stack) when it is inside a leaf, or at the end).
func (c *TreeCursor[K, V]) startDepth() int {
	i := len(c.stack)
	for i > 0 && c.stack[i-1].i == 0 {
		i--
	}
	return i
}
