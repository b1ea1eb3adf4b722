package core

// Persistent hash-array-mapped trie (CHAMP variant) — the storage behind
// merged snapshot inventories. A pmap value is immutable: Set and Delete
// return a new map sharing all untouched structure with the old one, so a
// snapshot patched forward from its predecessor costs O(records changed ·
// log64 n) node copies instead of an O(n) map clone, and every previously
// returned snapshot stays valid forever.
//
// Keys are hashed through an injective 64-bit encoding followed by the
// (bijective) splitmix64 finalizer, so two distinct keys can never share a
// hash and the trie needs no collision buckets: any two keys diverge at
// some level within the 64-bit hash. A transient builder amortizes a batch
// of changes to an existing map by mutating nodes it alone owns, identified
// by an edit token, and freezes into an ordinary pmap; a map with no
// predecessor is built bottom-up instead (pmapBulk).

import (
	"cmp"
	"math/bits"

	"servdisc/internal/netaddr"
)

const (
	pmapBits  = 6
	pmapWidth = 1 << pmapBits
	pmapMask  = pmapWidth - 1
)

// mix64 is the splitmix64 finalizer: a bijection on uint64, so composing
// it with an injective key encoding yields collision-free hashes.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashServiceKey packs (addr, proto, port) into disjoint bit ranges —
// injective by construction — and mixes.
func hashServiceKey(k ServiceKey) uint64 { return mix64(k.packed()) }

// hashV4 mixes the (already unique) 32-bit address.
func hashV4(a netaddr.V4) uint64 { return mix64(uint64(a)) }

// pmapEdit is a transient builder's ownership token: nodes stamped with a
// live token may be mutated in place by that builder alone.
type pmapEdit struct{ _ byte }

// pnode is one trie node. dataMap marks slots holding an inline key/value
// pair, nodeMap slots holding a child node; keys/vals and kids are packed
// dense in slot order.
type pnode[K comparable, V any] struct {
	dataMap uint64
	nodeMap uint64
	keys    []K
	vals    []V
	kids    []*pnode[K, V]
	edit    *pmapEdit
}

// pmap is an immutable hash map value. The zero value is unusable: build
// with newPmap to bind the hash function.
type pmap[K comparable, V any] struct {
	hash func(K) uint64
	root *pnode[K, V]
	n    int
}

func newPmap[K comparable, V any](hash func(K) uint64) pmap[K, V] {
	return pmap[K, V]{hash: hash}
}

func (m pmap[K, V]) Len() int { return m.n }

func (m pmap[K, V]) Get(k K) (V, bool) {
	var zero V
	n := m.root
	if n == nil {
		return zero, false
	}
	h := m.hash(k)
	for shift := uint(0); ; shift += pmapBits {
		if shift >= 64 {
			panic("pmap: hash bits exhausted")
		}
		bit := uint64(1) << ((h >> shift) & pmapMask)
		if n.dataMap&bit != 0 {
			i := bits.OnesCount64(n.dataMap & (bit - 1))
			if n.keys[i] == k {
				return n.vals[i], true
			}
			return zero, false
		}
		if n.nodeMap&bit == 0 {
			return zero, false
		}
		n = n.kids[bits.OnesCount64(n.nodeMap&(bit-1))]
	}
}

// Set returns a map with k bound to v; m is untouched.
func (m pmap[K, V]) Set(k K, v V) pmap[K, V] {
	root, added := pmapSet(m.root, 0, m.hash(k), k, v, m.hash, nil)
	n := m.n
	if added {
		n++
	}
	return pmap[K, V]{hash: m.hash, root: root, n: n}
}

// Delete returns a map without k; m is untouched. Absent keys are a no-op
// (the same map value comes back).
func (m pmap[K, V]) Delete(k K) pmap[K, V] {
	if m.root == nil {
		return m
	}
	root, removed := pmapDel(m.root, 0, m.hash(k), k, nil)
	if !removed {
		return m
	}
	return pmap[K, V]{hash: m.hash, root: root, n: m.n - 1}
}

// each visits every entry in an unspecified (but deterministic for a given
// map value) order until yield returns false.
func (m pmap[K, V]) each(yield func(K, V) bool) {
	if m.root != nil {
		m.root.each(yield)
	}
}

func (n *pnode[K, V]) each(yield func(K, V) bool) bool {
	for i := range n.keys {
		if !yield(n.keys[i], n.vals[i]) {
			return false
		}
	}
	for _, kid := range n.kids {
		if !kid.each(yield) {
			return false
		}
	}
	return true
}

// diff visits every key whose binding differs between old (which may be a
// zero pmap) and m: bound on one side only, or to values eq calls unequal.
// Shared subtrees are skipped whole: O(changed paths · log64 n), never O(n).
func (m pmap[K, V]) diff(old pmap[K, V], eq func(a, b V) bool, yield func(K)) {
	pnodeDiff(old.root, m.root, 0, m.hash, eq, yield)
}

func pnodeDiff[K comparable, V any](a, b *pnode[K, V], shift uint, hash func(K) uint64, eq func(a, b V) bool, yield func(K)) {
	if a == b {
		return
	}
	if a == nil || b == nil {
		cmp.Or(a, b).each(func(k K, _ V) bool { yield(k); return true })
		return
	}
	for slots := a.dataMap | a.nodeMap | b.dataMap | b.nodeMap; slots != 0; slots &= slots - 1 {
		bit := slots & -slots
		if a.dataMap&bit != 0 && b.dataMap&bit != 0 {
			i, j := bits.OnesCount64(a.dataMap&(bit-1)), bits.OnesCount64(b.dataMap&(bit-1))
			if a.keys[i] != b.keys[j] {
				yield(a.keys[i])
				yield(b.keys[j])
			} else if !eq(a.vals[i], b.vals[j]) {
				yield(a.keys[i])
			}
			continue
		}
		pnodeDiff(a.slot(bit, shift, hash), b.slot(bit, shift, hash), shift+pmapBits, hash, eq, yield)
	}
}

// slot returns what n holds at bit as a node of the next level: nil when
// the slot is empty, the child itself, or an inline entry wrapped alone.
func (n *pnode[K, V]) slot(bit uint64, shift uint, hash func(K) uint64) *pnode[K, V] {
	if n.nodeMap&bit != 0 {
		return n.kids[bits.OnesCount64(n.nodeMap&(bit-1))]
	}
	if n.dataMap&bit == 0 {
		return nil
	}
	i := bits.OnesCount64(n.dataMap & (bit - 1))
	return &pnode[K, V]{dataMap: 1 << ((hash(n.keys[i]) >> (shift + pmapBits)) & pmapMask),
		keys: n.keys[i : i+1], vals: n.vals[i : i+1]}
}

// owned returns n itself when the edit token proves exclusive ownership,
// or a copy stamped with the token otherwise.
func (n *pnode[K, V]) owned(edit *pmapEdit) *pnode[K, V] {
	if edit != nil && n.edit == edit {
		return n
	}
	return &pnode[K, V]{
		dataMap: n.dataMap,
		nodeMap: n.nodeMap,
		keys:    append([]K(nil), n.keys...),
		vals:    append([]V(nil), n.vals...),
		kids:    append([]*pnode[K, V](nil), n.kids...),
		edit:    edit,
	}
}

func pmapSet[K comparable, V any](n *pnode[K, V], shift uint, h uint64, k K, v V, hash func(K) uint64, edit *pmapEdit) (*pnode[K, V], bool) {
	if shift >= 64 {
		panic("pmap: hash bits exhausted")
	}
	bit := uint64(1) << ((h >> shift) & pmapMask)
	if n == nil {
		return &pnode[K, V]{dataMap: bit, keys: []K{k}, vals: []V{v}, edit: edit}, true
	}
	switch {
	case n.dataMap&bit != 0:
		i := bits.OnesCount64(n.dataMap & (bit - 1))
		if n.keys[i] == k {
			c := n.owned(edit)
			c.vals[i] = v
			return c, false
		}
		// Slot collision at this level: push both entries one level down.
		child := pmapMerge(shift+pmapBits, hash(n.keys[i]), n.keys[i], n.vals[i], h, k, v, edit)
		c := n.owned(edit)
		c.dataMap &^= bit
		c.keys = append(c.keys[:i], c.keys[i+1:]...)
		c.vals = append(c.vals[:i], c.vals[i+1:]...)
		j := bits.OnesCount64(c.nodeMap & (bit - 1))
		c.nodeMap |= bit
		c.kids = append(c.kids, nil)
		copy(c.kids[j+1:], c.kids[j:])
		c.kids[j] = child
		return c, true
	case n.nodeMap&bit != 0:
		j := bits.OnesCount64(n.nodeMap & (bit - 1))
		child, added := pmapSet(n.kids[j], shift+pmapBits, h, k, v, hash, edit)
		c := n.owned(edit)
		c.kids[j] = child
		return c, added
	default:
		i := bits.OnesCount64(n.dataMap & (bit - 1))
		c := n.owned(edit)
		c.dataMap |= bit
		c.keys = append(c.keys, k)
		copy(c.keys[i+1:], c.keys[i:])
		c.keys[i] = k
		c.vals = append(c.vals, v)
		copy(c.vals[i+1:], c.vals[i:])
		c.vals[i] = v
		return c, true
	}
}

// pmapMerge builds the subtree holding two entries whose hashes agree on
// every level above shift. Injective hashing guarantees divergence before
// the bits run out.
func pmapMerge[K comparable, V any](shift uint, h1 uint64, k1 K, v1 V, h2 uint64, k2 K, v2 V, edit *pmapEdit) *pnode[K, V] {
	if shift >= 64 {
		panic("pmap: hash collision (non-injective key encoding)")
	}
	i1 := (h1 >> shift) & pmapMask
	i2 := (h2 >> shift) & pmapMask
	if i1 == i2 {
		child := pmapMerge(shift+pmapBits, h1, k1, v1, h2, k2, v2, edit)
		return &pnode[K, V]{nodeMap: 1 << i1, kids: []*pnode[K, V]{child}, edit: edit}
	}
	if i1 > i2 {
		k1, k2 = k2, k1
		v1, v2 = v2, v1
		i1, i2 = i2, i1
	}
	return &pnode[K, V]{
		dataMap: 1<<i1 | 1<<i2,
		keys:    []K{k1, k2},
		vals:    []V{v1, v2},
		edit:    edit,
	}
}

func pmapDel[K comparable, V any](n *pnode[K, V], shift uint, h uint64, k K, edit *pmapEdit) (*pnode[K, V], bool) {
	if shift >= 64 {
		panic("pmap: hash bits exhausted")
	}
	bit := uint64(1) << ((h >> shift) & pmapMask)
	switch {
	case n.dataMap&bit != 0:
		i := bits.OnesCount64(n.dataMap & (bit - 1))
		if n.keys[i] != k {
			return n, false
		}
		if n.dataMap == bit && n.nodeMap == 0 {
			return nil, true
		}
		c := n.owned(edit)
		c.dataMap &^= bit
		c.keys = append(c.keys[:i], c.keys[i+1:]...)
		c.vals = append(c.vals[:i], c.vals[i+1:]...)
		return c, true
	case n.nodeMap&bit != 0:
		j := bits.OnesCount64(n.nodeMap & (bit - 1))
		child, removed := pmapDel(n.kids[j], shift+pmapBits, h, k, edit)
		if !removed {
			return n, false
		}
		if child == nil {
			if n.nodeMap == bit && n.dataMap == 0 {
				return nil, true
			}
			c := n.owned(edit)
			c.nodeMap &^= bit
			c.kids = append(c.kids[:j], c.kids[j+1:]...)
			return c, true
		}
		c := n.owned(edit)
		c.kids[j] = child
		return c, true
	default:
		return n, false
	}
}

// pent is one entry of a bulk build, with its hash.
type pent[K comparable, V any] struct {
	h uint64
	k K
	v V
}

// pmapBulk builds the map of the n distinct entries fill hands to add, bottom
// up: every entry is hashed once and every node allocated once at its final
// size, where as many transient Sets grow each node's arrays an append at a
// time. The shape of a CHAMP trie is a function of its key set, so the result
// is node for node the map those Sets would have built.
func pmapBulk[K comparable, V any](hash func(K) uint64, n int, fill func(add func(K, V))) pmap[K, V] {
	ents := make([]pent[K, V], 0, n)
	fill(func(k K, v V) { ents = append(ents, pent[K, V]{hash(k), k, v}) })
	m := pmap[K, V]{hash: hash, n: len(ents)}
	if m.n > 0 {
		m.root = pmapBuild(ents, make([]pent[K, V], m.n), 0)
	}
	return m
}

// pmapBuild builds the node holding ents, whose hashes agree on every level
// above shift: a counting sort by this level's digit into tmp (scratch of the
// same length), then a slot holding one entry stores it inline and a slot
// holding several becomes a child, built with the two buffers' roles swapped.
func pmapBuild[K comparable, V any](ents, tmp []pent[K, V], shift uint) *pnode[K, V] {
	if shift >= 64 {
		panic("pmap: hash collision (duplicate key in a bulk build)")
	}
	var end [pmapWidth]int // per digit: its count, then where its run in tmp starts, then ends
	for i := range ents {
		end[(ents[i].h>>shift)&pmapMask]++
	}
	n, pos := &pnode[K, V]{}, 0
	for d, c := range end {
		if c == 1 {
			n.dataMap |= 1 << d
		} else if c > 1 {
			n.nodeMap |= 1 << d
		}
		end[d], pos = pos, pos+c
	}
	for i := range ents {
		d := (ents[i].h >> shift) & pmapMask
		tmp[end[d]] = ents[i]
		end[d]++
	}
	data := bits.OnesCount64(n.dataMap)
	n.keys, n.vals = make([]K, 0, data), make([]V, 0, data)
	n.kids = make([]*pnode[K, V], 0, bits.OnesCount64(n.nodeMap))
	pos = 0
	for _, e := range end {
		if e == pos+1 {
			n.keys, n.vals = append(n.keys, tmp[pos].k), append(n.vals, tmp[pos].v)
		} else if e > pos {
			n.kids = append(n.kids, pmapBuild(tmp[pos:e], ents[pos:e], shift+pmapBits))
		}
		pos = e
	}
	return n
}

// pmapBuilder is a transient: a mutable accumulator over pmap structure.
// Mutations touch only nodes stamped with the builder's edit token, so the
// base map (and anything frozen out of the builder) is never disturbed.
// Single-goroutine; freeze() before sharing the result.
type pmapBuilder[K comparable, V any] struct {
	m    pmap[K, V]
	edit *pmapEdit
}

// builder opens a transient over the map's current contents.
func (m pmap[K, V]) builder() *pmapBuilder[K, V] {
	return &pmapBuilder[K, V]{m: m, edit: &pmapEdit{}}
}

func (b *pmapBuilder[K, V]) Set(k K, v V) {
	root, added := pmapSet(b.m.root, 0, b.m.hash(k), k, v, b.m.hash, b.edit)
	b.m.root = root
	if added {
		b.m.n++
	}
}

func (b *pmapBuilder[K, V]) Delete(k K) {
	if b.m.root == nil {
		return
	}
	root, removed := pmapDel(b.m.root, 0, b.m.hash(k), k, b.edit)
	if removed {
		b.m.root = root
		b.m.n--
	}
}

func (b *pmapBuilder[K, V]) Get(k K) (V, bool) { return b.m.Get(k) }

func (b *pmapBuilder[K, V]) Len() int { return b.m.n }

// freeze returns the accumulated map and retires the edit token: later
// builder mutations copy rather than touching anything frozen here.
func (b *pmapBuilder[K, V]) freeze() pmap[K, V] {
	b.edit = &pmapEdit{}
	return b.m
}
