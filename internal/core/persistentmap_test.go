package core

// Model-based property test for the persistent map: a pmap driven through
// randomized insert/update/delete/snapshot/builder-compact sequences (and
// bottom-up bulk rebuilds of the current contents) must agree with a plain
// map reference model at every step, and — the property flat maps cannot
// offer — every snapshot taken along the way must still agree with the
// model state it froze, re-verified after arbitrarily many later
// mutations. Run under -race this doubles as an aliasing guard: a mutation
// that touched a snapshot's shared structure in place would trip the
// verifier (and, for a builder changing a node outside its owned set, the
// race detector), and checkptr holds every entries() and children() view
// to its allocation.

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"servdisc/internal/netaddr"
	"servdisc/internal/packet"
)

// newPmap, Set and Delete are the one-change forms of the builder, for
// tests: the engine only ever changes a map through a builder it freezes.
func newPmap[K comparable, V any](hash func(K) uint64) pmap[K, V] {
	return pmap[K, V]{hash: hash}
}

// Set returns a map with k bound to v; m is untouched.
func (m pmap[K, V]) Set(k K, v V) pmap[K, V] {
	b := m.builder()
	b.Set(k, v)
	return b.freeze()
}

// Delete returns a map without k; m is untouched. Absent keys are a no-op
// (the same map value comes back).
func (m pmap[K, V]) Delete(k K) pmap[K, V] {
	b := m.builder()
	b.Delete(k)
	return b.freeze()
}

// pmSnap pairs a frozen pmap with a copy of the reference model at freeze
// time.
type pmSnap struct {
	m   pmap[ServiceKey, int]
	ref map[ServiceKey]int
	op  int
}

func pmTestKey(r *rand.Rand, space int) ServiceKey {
	return ServiceKey{
		Addr:  netaddr.V4(r.Intn(space)),
		Proto: packet.ProtoTCP,
		Port:  uint16(r.Intn(16)),
	}
}

func checkAgainst[K comparable](t *testing.T, label string, m pmap[K, int], ref map[K]int) {
	t.Helper()
	if m.Len() != len(ref) {
		t.Fatalf("%s: Len=%d want %d", label, m.Len(), len(ref))
	}
	seen := 0
	m.each(func(k K, v int) bool {
		want, ok := ref[k]
		if !ok {
			t.Fatalf("%s: each yielded absent key %v", label, k)
		}
		if v != want {
			t.Fatalf("%s: each(%v)=%d want %d", label, k, v, want)
		}
		seen++
		return true
	})
	if seen != len(ref) {
		t.Fatalf("%s: each visited %d entries, want %d", label, seen, len(ref))
	}
	for k, want := range ref {
		got, ok := m.Get(k)
		if !ok || got != want {
			t.Fatalf("%s: Get(%v)=(%d,%v) want (%d,true)", label, k, got, ok, want)
		}
	}
}

func TestPersistentMapModel(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(seed))
			m := newPmap[ServiceKey, int](hashServiceKey)
			ref := make(map[ServiceKey]int)
			var snaps []pmSnap
			const ops = 4000
			for op := 0; op < ops; op++ {
				switch c := r.Intn(100); {
				case c < 55: // insert or update
					k := pmTestKey(r, 512)
					v := r.Intn(1 << 20)
					m = m.Set(k, v)
					ref[k] = v
				case c < 80: // delete (sometimes absent)
					k := pmTestKey(r, 512)
					m = m.Delete(k)
					delete(ref, k)
				case c < 90: // snapshot: retain for later re-verification
					cp := make(map[ServiceKey]int, len(ref))
					for k, v := range ref {
						cp[k] = v
					}
					snaps = append(snaps, pmSnap{m: m, ref: cp, op: op})
				case c < 93: // rebuild bottom-up: the same contents, reached the bulk way
					m = pmapBulk(hashServiceKey, len(ref), func(add func(ServiceKey, int)) {
						for k, v := range ref {
							add(k, v)
						}
					})
				default: // compact through a builder transient
					b := m.builder()
					for i := 0; i < 20; i++ {
						k := pmTestKey(r, 512)
						if i%3 == 0 {
							b.Delete(k)
							delete(ref, k)
						} else {
							v := r.Intn(1 << 20)
							b.Set(k, v)
							ref[k] = v
						}
					}
					m = b.freeze()
					// The frozen result must be immune to further builder use.
					b.Set(pmTestKey(r, 512), -1)
					b.Delete(pmTestKey(r, 512))
				}
				if op%512 == 0 {
					checkAgainst(t, fmt.Sprintf("op %d (live)", op), m, ref)
				}
			}
			checkAgainst(t, "final", m, ref)
			// Every retained snapshot must still match the model state it
			// froze, all later mutations notwithstanding.
			for _, s := range snaps {
				checkAgainst(t, fmt.Sprintf("snapshot@op%d", s.op), s.m, s.ref)
			}
			// Negative lookups outside the touched keyspace.
			for i := 0; i < 100; i++ {
				k := ServiceKey{Addr: netaddr.V4(1 << 20), Proto: packet.ProtoUDP, Port: uint16(i)}
				if _, ok := m.Get(k); ok {
					t.Fatalf("Get(%s) found a never-inserted key", k)
				}
			}
		})
	}
}

// TestPersistentMapBuilderSharing drives a builder from an existing map and
// verifies the base map is untouched — the transient must copy, not mutate,
// nodes it does not own.
func TestPersistentMapBuilderSharing(t *testing.T) {
	m := newPmap[ServiceKey, int](hashServiceKey)
	ref := make(map[ServiceKey]int)
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		k := pmTestKey(r, 1024)
		m = m.Set(k, i)
		ref[k] = i
	}
	base := m
	baseRef := make(map[ServiceKey]int, len(ref))
	for k, v := range ref {
		baseRef[k] = v
	}
	b := base.builder()
	for i := 0; i < 2000; i++ {
		k := pmTestKey(r, 1024)
		if i%2 == 0 {
			b.Set(k, -i)
			ref[k] = -i
		} else {
			b.Delete(k)
			delete(ref, k)
		}
	}
	out := b.freeze()
	checkAgainst(t, "builder result", out, ref)
	checkAgainst(t, "base after builder", base, baseRef)

	// Two builders open on one base at once, their sets and deletes
	// interleaved: each owns only the nodes it made, so neither writes into
	// the other's copies or the base they share.
	bs := [2]*pmapBuilder[ServiceKey, int]{base.builder(), base.builder()}
	refs := [2]map[ServiceKey]int{maps.Clone(baseRef), maps.Clone(baseRef)}
	for i := 0; i < 4000; i++ {
		w, k := i%2, pmTestKey(r, 1024)
		if r.Intn(3) == 0 {
			bs[w].Delete(k)
			delete(refs[w], k)
		} else {
			bs[w].Set(k, i*10+w)
			refs[w][k] = i*10 + w
		}
	}
	for w, b := range bs {
		checkAgainst(t, fmt.Sprintf("builder %d of two", w), b.freeze(), refs[w])
	}
	checkAgainst(t, "base after two builders", base, baseRef)
}

// TestPersistentMapV4 exercises the second key type (address trails use
// netaddr.V4 keys) through the same model check.
func TestPersistentMapV4(t *testing.T) {
	m := newPmap[netaddr.V4, string](hashV4)
	ref := make(map[netaddr.V4]string)
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 3000; i++ {
		a := netaddr.V4(r.Intn(700))
		if r.Intn(4) == 0 {
			m = m.Delete(a)
			delete(ref, a)
		} else {
			v := fmt.Sprintf("v%d", i)
			m = m.Set(a, v)
			ref[a] = v
		}
	}
	if m.Len() != len(ref) {
		t.Fatalf("Len=%d want %d", m.Len(), len(ref))
	}
	for a, want := range ref {
		got, ok := m.Get(a)
		if !ok || got != want {
			t.Fatalf("Get(%s)=(%q,%v) want (%q,true)", a, got, ok, want)
		}
	}
	n := 0
	m.each(func(a netaddr.V4, v string) bool {
		if ref[a] != v {
			t.Fatalf("each(%s)=%q want %q", a, v, ref[a])
		}
		n++
		return true
	})
	if n != len(ref) {
		t.Fatalf("each visited %d, want %d", n, len(ref))
	}
}

// samePnodes reports whether two tries are the same node for node: bitmaps,
// inline entries in slot order, children in slot order.
func samePnodes[K comparable](a, b *pnode[K, int]) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.dataMap != b.dataMap || a.nodeMap != b.nodeMap || !slices.Equal(a.entries(), b.entries()) {
		return false
	}
	return slices.EqualFunc(a.children(), b.children(), samePnodes[K])
}

// bulkMatchesInserted checks, at sizes on both sides of every node-shape
// boundary, that pmapBulk builds node for node the trie the same entries'
// Sets build — CHAMP shape is canonical for a key set, which is what lets the
// first merge use it with every dump, checkpoint and frame unchanged — and
// that the result is an ordinary frozen map: a builder round over it matches
// the model and leaves it untouched.
func bulkMatchesInserted[K comparable](t *testing.T, hash func(K) uint64, key func(i int) K) {
	for _, n := range []int{0, 1, 2, 63, 64, 65, 4097, 200_000} {
		ref := make(map[K]int, n)
		sb := newPmap[K, int](hash).builder()
		for i := 0; i < n; i++ {
			sb.Set(key(i), i)
			ref[key(i)] = i
		}
		inserted := sb.freeze()
		bulk := pmapBulk(hash, n, func(add func(K, int)) {
			for i := n - 1; i >= 0; i-- { // any order
				add(key(i), i)
			}
		})
		if bulk.Len() != n || !samePnodes(bulk.root, inserted.root) {
			t.Fatalf("n=%d: bulk-built trie differs from the inserted one", n)
		}
		after := make(map[K]int, n)
		for k, v := range ref {
			after[k] = v
		}
		b := bulk.builder()
		for i := 0; i < min(n, 500); i++ {
			b.Delete(key(i * 7 % n))
			delete(after, key(i*7%n))
			b.Set(key(n+i), -i)
			after[key(n+i)] = -i
		}
		checkAgainst(t, fmt.Sprintf("n=%d: builder round over bulk", n), b.freeze(), after)
		checkAgainst(t, fmt.Sprintf("n=%d: bulk after the round", n), bulk, ref)
	}
}

func TestPmapBulkMatchesInserted(t *testing.T) {
	t.Run("ServiceKey", func(t *testing.T) {
		bulkMatchesInserted(t, hashServiceKey, func(i int) ServiceKey {
			protos := [3]packet.IPProtocol{packet.ProtoTCP, packet.ProtoUDP, 1}
			return ServiceKey{Addr: netaddr.V4(0x807d0000 + i/3), Proto: protos[i%3], Port: uint16(i * 7919)}
		})
	})
	t.Run("V4", func(t *testing.T) {
		bulkMatchesInserted(t, hashV4, func(i int) netaddr.V4 { return netaddr.V4(0x807d0000 + i) })
	})
}

// diffKeys collects what m.diff(old) visits, failing on a key visited twice.
func diffKeys(t *testing.T, label string, m, old pmap[ServiceKey, int]) map[ServiceKey]bool {
	t.Helper()
	got := make(map[ServiceKey]bool)
	m.diff(old, func(a, b int) bool { return a == b }, func(k ServiceKey) {
		if got[k] {
			t.Fatalf("%s: diff visited %v twice", label, k)
		}
		got[k] = true
	})
	return got
}

// checkDiff holds diff, both ways round, to a brute-force comparison of the
// two maps' entry sets.
func checkDiff(t *testing.T, label string, a, b pmap[ServiceKey, int]) {
	t.Helper()
	want := make(map[ServiceKey]bool)
	a.each(func(k ServiceKey, v int) bool {
		if w, ok := b.Get(k); !ok || w != v {
			want[k] = true
		}
		return true
	})
	b.each(func(k ServiceKey, _ int) bool {
		if _, ok := a.Get(k); !ok {
			want[k] = true
		}
		return true
	})
	for _, got := range []map[ServiceKey]bool{diffKeys(t, label, b, a), diffKeys(t, label, a, b)} {
		if len(got) != len(want) {
			t.Fatalf("%s: diff visited %d keys, want %d", label, len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("%s: diff missed %v", label, k)
			}
		}
	}
}

// TestPmapDiffModel: two maps grown apart from one base by random Sets
// (some rebinding a key to its old value), Deletes and builder rounds differ
// exactly where a brute-force comparison says, and a bulk-built map shares no
// node with its inserted twin yet differs from it nowhere. Diffing a map
// against itself is free: nothing visited, nothing allocated.
func TestPmapDiffModel(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		base := newPmap[ServiceKey, int](hashServiceKey)
		for i := 0; i < 3000; i++ {
			base = base.Set(pmTestKey(r, 256), r.Intn(4))
		}
		grow := func(m pmap[ServiceKey, int], ops int) pmap[ServiceKey, int] {
			for i := 0; i < ops; i++ {
				switch c := r.Intn(10); {
				case c < 5:
					m = m.Set(pmTestKey(r, 300), r.Intn(4)) // a quarter rebind the same value
				case c < 8:
					m = m.Delete(pmTestKey(r, 300))
				default:
					b := m.builder()
					for j := 0; j < 8; j++ {
						b.Set(pmTestKey(r, 300), r.Intn(4))
						b.Delete(pmTestKey(r, 300))
					}
					m = b.freeze()
				}
			}
			return m
		}
		for _, ops := range []int{0, 1, 5, 40, 400} {
			label := fmt.Sprintf("seed=%d ops=%d", seed, ops)
			a, b := grow(base, ops), grow(base, ops)
			checkDiff(t, label+" a/b", a, b)
			checkDiff(t, label+" base/a", base, a)
		}
		checkDiff(t, fmt.Sprintf("seed=%d empty/base", seed), newPmap[ServiceKey, int](hashServiceKey), base)
	}

	m := newPmap[ServiceKey, int](hashServiceKey)
	for i := 0; i < 20_000; i++ {
		m = m.Set(ServiceKey{Addr: netaddr.V4(0x807d0000 + i/4), Proto: packet.ProtoTCP, Port: uint16(i)}, i)
	}
	twin := pmapBulk(hashServiceKey, m.Len(), func(add func(ServiceKey, int)) { m.each(func(k ServiceKey, v int) bool { add(k, v); return true }) })
	checkDiff(t, "bulk twin", m, twin)
	checkDiff(t, "bulk twin, one rebound", m, twin.Set(ServiceKey{Addr: 0x807d0000, Proto: packet.ProtoTCP}, -1))

	// One rebound key costs its path: at most a node's worth of compares per
	// level, where a walk of the whole tries would compare all 20 000.
	compares := 0
	m.diff(m.Set(ServiceKey{Addr: 0x807d0000, Proto: packet.ProtoTCP}, -1),
		func(a, b int) bool { compares++; return a == b }, func(ServiceKey) {})
	if compares > pmapWidth*4 {
		t.Fatalf("diff of a one-key change compared %d pairs: it walks shared subtrees", compares)
	}

	eq := func(a, b int) bool { return a == b }
	visits := 0
	if allocs := testing.AllocsPerRun(10, func() { m.diff(m, eq, func(ServiceKey) { visits++ }) }); allocs != 0 || visits != 0 {
		t.Fatalf("self-diff: %v allocs, %d visits, want none", allocs, visits)
	}
}
