package core

// Persistent hash-array-mapped trie (CHAMP variant) — the storage behind
// merged snapshot inventories. A pmap value is immutable: a builder opened
// on it collects changes by path copying, and what it freezes shares all
// untouched structure with the old map, so a snapshot patched forward from
// its predecessor costs O(records changed · log64 n) node copies instead of
// an O(n) map clone, and every previously returned snapshot stays valid
// forever.
//
// Keys are hashed through an injective 64-bit encoding followed by the
// (bijective) splitmix64 finalizer, so two distinct keys can never share a
// hash and the trie needs no collision buckets: any two keys diverge at
// some level within the 64-bit hash. A transient builder amortizes a batch
// of changes to an existing map by mutating the nodes it made itself, and
// freezes into an ordinary pmap; a map with no predecessor is built
// bottom-up instead (pmapBulk).

import (
	"cmp"
	"math/bits"
	"slices"
	"unsafe"

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

// pkv is one inline entry of a node.
type pkv[K comparable, V any] struct {
	k K
	v V
}

// pnode is one trie node, 32 bytes. dataMap marks slots holding an inline
// entry, nodeMap slots holding a child node; ents and kids point at arrays
// packed dense in slot order whose lengths are the bitmaps' popcounts
// (entries, children). Each array is allocated at exactly that length, so
// adding or removing a slot builds a new one: the length a bitmap derives
// never exceeds the allocation it indexes, which is what makes the
// unsafe.Slice views sound.
type pnode[K comparable, V any] struct {
	dataMap uint64
	nodeMap uint64
	ents    *pkv[K, V]
	kids    **pnode[K, V]
}

// A field that pushes the services trie's node past 32 bytes fails the
// build here, not a memory benchmark later.
const _ = uint(32-unsafe.Sizeof(pnode[ServiceKey, *PassiveRecord]{})) + uint(unsafe.Sizeof(pnode[ServiceKey, *PassiveRecord]{})-32) // == 32

func (n *pnode[K, V]) entries() []pkv[K, V] {
	return unsafe.Slice(n.ents, bits.OnesCount64(n.dataMap))
}

func (n *pnode[K, V]) children() []*pnode[K, V] {
	return unsafe.Slice(n.kids, bits.OnesCount64(n.nodeMap))
}

// rank is bit's position among the set bits of m.
func rank(m, bit uint64) int { return bits.OnesCount64(m & (bit - 1)) }

// pmap is an immutable hash map value. The zero value is unusable: the hash
// function is bound when the map is built (pmapBulk).
type pmap[K comparable, V any] struct {
	hash func(K) uint64
	root *pnode[K, V]
	n    int
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
			if e := &n.entries()[rank(n.dataMap, bit)]; e.k == k {
				return e.v, true
			}
			return zero, false
		}
		if n.nodeMap&bit == 0 {
			return zero, false
		}
		n = n.children()[rank(n.nodeMap, bit)]
	}
}

// each visits every entry in an unspecified (but deterministic for a given
// map value) order until yield returns false.
func (m pmap[K, V]) each(yield func(K, V) bool) {
	if m.root != nil {
		m.root.each(yield)
	}
}

func (n *pnode[K, V]) each(yield func(K, V) bool) bool {
	for _, e := range n.entries() {
		if !yield(e.k, e.v) {
			return false
		}
	}
	for _, kid := range n.children() {
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
			ea, eb := &a.entries()[rank(a.dataMap, bit)], &b.entries()[rank(b.dataMap, bit)]
			if ea.k != eb.k {
				yield(ea.k)
				yield(eb.k)
			} else if !eq(ea.v, eb.v) {
				yield(ea.k)
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
		return n.children()[rank(n.nodeMap, bit)]
	}
	if n.dataMap&bit == 0 {
		return nil
	}
	e := &n.entries()[rank(n.dataMap, bit)]
	return &pnode[K, V]{dataMap: 1 << ((hash(e.k) >> (shift + pmapBits)) & pmapMask), ents: e}
}

// pent is one entry of a bulk build, with its hash.
type pent[K comparable, V any] struct {
	h uint64
	k K
	v V
}

// pmapBulk builds the map of the n distinct entries fill hands to add, bottom
// up: every entry is hashed once and every node allocated once at its final
// size, where as many transient Sets rebuild each node's arrays a slot at a
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
	data := make([]pkv[K, V], 0, bits.OnesCount64(n.dataMap))
	kids := make([]*pnode[K, V], 0, bits.OnesCount64(n.nodeMap))
	pos = 0
	for _, e := range end {
		if e == pos+1 {
			data = append(data, pkv[K, V]{tmp[pos].k, tmp[pos].v})
		} else if e > pos {
			kids = append(kids, pmapBuild(tmp[pos:e], ents[pos:e], shift+pmapBits))
		}
		pos = e
	}
	n.ents, n.kids = unsafe.SliceData(data), unsafe.SliceData(kids)
	return n
}

// pmapBuilder is a transient: a mutable accumulator over pmap structure.
// It changes in place only the nodes it made — its owned set, every node it
// created or copied — and then only to replace a value or a child pointer,
// so the base map (and anything frozen out of the builder) is never
// disturbed. An owned node's arrays are its own as well: copying a node
// copies both. Single-goroutine; freeze() before sharing the result.
type pmapBuilder[K comparable, V any] struct {
	m     pmap[K, V]
	owned map[*pnode[K, V]]struct{}
}

// builder opens a transient over the map's current contents.
func (m pmap[K, V]) builder() *pmapBuilder[K, V] { return &pmapBuilder[K, V]{m: m} }

func (b *pmapBuilder[K, V]) Set(k K, v V) {
	root, added := b.set(b.m.root, 0, b.m.hash(k), k, v)
	b.m.root = root
	if added {
		b.m.n++
	}
}

func (b *pmapBuilder[K, V]) Delete(k K) {
	if b.m.root == nil {
		return
	}
	root, removed := b.del(b.m.root, 0, b.m.hash(k), k)
	if removed {
		b.m.root = root
		b.m.n--
	}
}

// freeze returns the accumulated map and drops the owned set: later
// builder mutations copy rather than touching anything frozen here.
func (b *pmapBuilder[K, V]) freeze() pmap[K, V] {
	b.owned = nil
	return b.m
}

// node makes an owned node over ents and kids, which must be arrays no other
// node holds.
func (b *pmapBuilder[K, V]) node(dataMap, nodeMap uint64, ents []pkv[K, V], kids []*pnode[K, V]) *pnode[K, V] {
	n := &pnode[K, V]{dataMap, nodeMap, unsafe.SliceData(ents), unsafe.SliceData(kids)}
	if b.owned == nil {
		b.owned = make(map[*pnode[K, V]]struct{})
	}
	b.owned[n] = struct{}{}
	return n
}

// reshape gives n new bitmaps and arrays — in place when the builder owns n,
// else in an owned copy, for which it copies whichever of n's arrays ents or
// kids still is.
func (b *pmapBuilder[K, V]) reshape(n *pnode[K, V], dataMap, nodeMap uint64, ents []pkv[K, V], kids []*pnode[K, V]) *pnode[K, V] {
	if _, mine := b.owned[n]; mine {
		n.dataMap, n.nodeMap, n.ents, n.kids = dataMap, nodeMap, unsafe.SliceData(ents), unsafe.SliceData(kids)
		return n
	}
	if unsafe.SliceData(ents) == n.ents {
		ents = slices.Clone(ents)
	}
	if unsafe.SliceData(kids) == n.kids {
		kids = slices.Clone(kids)
	}
	return b.node(dataMap, nodeMap, ents, kids)
}

// own returns n when the builder owns it, or an owned copy.
func (b *pmapBuilder[K, V]) own(n *pnode[K, V]) *pnode[K, V] {
	return b.reshape(n, n.dataMap, n.nodeMap, n.entries(), n.children())
}

func (b *pmapBuilder[K, V]) set(n *pnode[K, V], shift uint, h uint64, k K, v V) (*pnode[K, V], bool) {
	if shift >= 64 {
		panic("pmap: hash bits exhausted")
	}
	bit := uint64(1) << ((h >> shift) & pmapMask)
	if n == nil {
		return b.node(bit, 0, []pkv[K, V]{{k, v}}, nil), true
	}
	ents, kids := n.entries(), n.children()
	switch {
	case n.dataMap&bit != 0:
		i := rank(n.dataMap, bit)
		if ents[i].k == k {
			c := b.own(n)
			c.entries()[i].v = v
			return c, false
		}
		// Slot collision at this level: push both entries one level down.
		child := b.merge(shift+pmapBits, b.m.hash(ents[i].k), ents[i], h, pkv[K, V]{k, v})
		j := rank(n.nodeMap, bit)
		return b.reshape(n, n.dataMap&^bit, n.nodeMap|bit,
			slices.Concat(ents[:i], ents[i+1:]), slices.Concat(kids[:j], []*pnode[K, V]{child}, kids[j:])), true
	case n.nodeMap&bit != 0:
		j := rank(n.nodeMap, bit)
		child, added := b.set(kids[j], shift+pmapBits, h, k, v)
		c := b.own(n)
		c.children()[j] = child
		return c, added
	default:
		i := rank(n.dataMap, bit)
		return b.reshape(n, n.dataMap|bit, n.nodeMap, slices.Concat(ents[:i], []pkv[K, V]{{k, v}}, ents[i:]), kids), true
	}
}

// merge builds the subtree holding two entries whose hashes agree on every
// level above shift. Injective hashing guarantees divergence before the bits
// run out.
func (b *pmapBuilder[K, V]) merge(shift uint, h1 uint64, e1 pkv[K, V], h2 uint64, e2 pkv[K, V]) *pnode[K, V] {
	if shift >= 64 {
		panic("pmap: hash collision (non-injective key encoding)")
	}
	i1 := (h1 >> shift) & pmapMask
	i2 := (h2 >> shift) & pmapMask
	if i1 == i2 {
		return b.node(0, 1<<i1, nil, []*pnode[K, V]{b.merge(shift+pmapBits, h1, e1, h2, e2)})
	}
	if i1 > i2 {
		e1, e2 = e2, e1
	}
	return b.node(1<<i1|1<<i2, 0, []pkv[K, V]{e1, e2}, nil)
}

func (b *pmapBuilder[K, V]) del(n *pnode[K, V], shift uint, h uint64, k K) (*pnode[K, V], bool) {
	if shift >= 64 {
		panic("pmap: hash bits exhausted")
	}
	bit := uint64(1) << ((h >> shift) & pmapMask)
	ents, kids := n.entries(), n.children()
	switch {
	case n.dataMap&bit != 0:
		i := rank(n.dataMap, bit)
		if ents[i].k != k {
			return n, false
		}
		if n.dataMap == bit && n.nodeMap == 0 {
			return nil, true
		}
		return b.reshape(n, n.dataMap&^bit, n.nodeMap, slices.Concat(ents[:i], ents[i+1:]), kids), true
	case n.nodeMap&bit != 0:
		j := rank(n.nodeMap, bit)
		child, removed := b.del(kids[j], shift+pmapBits, h, k)
		if !removed {
			return n, false
		}
		if child == nil {
			if n.nodeMap == bit && n.dataMap == 0 {
				return nil, true
			}
			return b.reshape(n, n.dataMap, n.nodeMap&^bit, ents, slices.Concat(kids[:j], kids[j+1:])), true
		}
		c := b.own(n)
		c.children()[j] = child
		return c, true
	default:
		return n, false
	}
}
