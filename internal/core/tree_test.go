package core

// Model-based property tests for the persistent B+-tree: trees driven through
// randomized upsert/delete batches, bulk rebuilds and diffs must agree with a
// plain map reference model at every step, and — the property flat maps
// cannot offer — every tree taken along the way must still agree with the
// model state it froze, re-verified after arbitrarily many later patches.
// Run under -race this doubles as an aliasing guard: a patch that wrote a
// shared node in place would trip the verifier.

import (
	"cmp"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"servdisc/internal/netaddr"
	"servdisc/internal/packet"
)

func treeTestKey(r *rand.Rand, space int) ServiceKey {
	return ServiceKey{
		Addr:  netaddr.V4(r.Intn(space)),
		Proto: packet.ProtoTCP,
		Port:  uint16(r.Intn(16)),
	}
}

// sortedEntries lists a model in key order, the form BuildTree takes.
func sortedEntries[K TreeKey, V any](ref map[K]V) []TreeEntry[K, V] {
	ents := make([]TreeEntry[K, V], 0, len(ref))
	for k, v := range ref {
		ents = append(ents, TreeEntry[K, V]{Val: v, Key: k})
	}
	slices.SortFunc(ents, func(a, b TreeEntry[K, V]) int { return cmp.Compare(a.Key.Ord(), b.Key.Ord()) })
	return ents
}

// applyEdits patches tr with a batch of edits given as a map (a nil value
// pointer deletes), checking the report hook against the model as it goes.
func applyEdits[K TreeKey](t *testing.T, tr Tree[K, int], ref map[K]int, batch map[K]*int) Tree[K, int] {
	t.Helper()
	edits := make([]TreeEdit[K, int], 0, len(batch))
	for k, v := range batch {
		if v == nil {
			edits = append(edits, TreeEdit[K, int]{Key: k, Del: true})
		} else {
			edits = append(edits, TreeEdit[K, int]{Key: k, Val: *v})
		}
	}
	slices.SortFunc(edits, func(a, b TreeEdit[K, int]) int { return cmp.Compare(a.Key.Ord(), b.Key.Ord()) })
	next := 0
	tr = tr.Patch(edits, func(i int, old int, had bool) {
		if i != next {
			t.Fatalf("report called for edit %d, want %d", i, next)
		}
		next++
		if want, ok := ref[edits[i].Key]; had != ok || old != want {
			t.Fatalf("report(%v) = (%d, %v), model (%d, %v)", edits[i].Key, old, had, want, ok)
		}
	})
	if next != len(edits) {
		t.Fatalf("report called %d times for %d edits", next, len(edits))
	}
	for _, e := range edits {
		if e.Del {
			delete(ref, e.Key)
		} else {
			ref[e.Key] = e.Val
		}
	}
	return tr
}

func set(v int) *int { return &v }

// checkAgainst holds a tree to the model: size, key order, Get of every key
// and the node invariants.
func checkAgainst[K TreeKey](t *testing.T, label string, tr Tree[K, int], ref map[K]int) {
	t.Helper()
	if tr.Len() != len(ref) {
		t.Fatalf("%s: Len=%d want %d", label, tr.Len(), len(ref))
	}
	want := sortedEntries(ref)
	i := 0
	tr.Walk(nil, func(k K, v int) bool {
		if i >= len(want) || k != want[i].Key || v != want[i].Val {
			t.Fatalf("%s: walk position %d is (%v, %d)", label, i, k, v)
		}
		i++
		return true
	})
	if i != len(want) {
		t.Fatalf("%s: walk visited %d entries, want %d", label, i, len(want))
	}
	for k, v := range ref {
		if got, ok := tr.Get(k); !ok || got != v {
			t.Fatalf("%s: Get(%v)=(%d,%v) want (%d,true)", label, k, got, ok, v)
		}
	}
	if n := checkNode(t, label, tr.root, true); n != tr.Len() {
		t.Fatalf("%s: nodes hold %d entries, Len %d", label, n, tr.Len())
	}
}

// checkNode verifies one subtree's arity bounds, order and child maxima,
// returning its entry count.
func checkNode[K TreeKey, V any](t *testing.T, label string, nd *tnode[K, V], root bool) int {
	t.Helper()
	if nd == nil {
		return 0
	}
	if nd.kids == nil {
		if len(nd.ents) == 0 || len(nd.ents) > leafMax {
			t.Fatalf("%s: leaf arity %d out of bounds", label, len(nd.ents))
		}
		for i := 1; i < len(nd.ents); i++ {
			if nd.ents[i-1].Key.Ord() >= nd.ents[i].Key.Ord() {
				t.Fatalf("%s: leaf unsorted at %d", label, i)
			}
		}
		return len(nd.ents)
	}
	if len(nd.kids) == 0 || len(nd.kids) > innerMax || root && len(nd.kids) == 1 {
		t.Fatalf("%s: inner arity %d out of bounds (root %v)", label, len(nd.kids), root)
	}
	n := 0
	for i := range nd.kids {
		kid := &nd.kids[i]
		if nd.maxes[i] != kid.max().Ord() || i > 0 && nd.maxes[i-1] >= nd.maxes[i] {
			t.Fatalf("%s: child %d max %v is wrong or out of order", label, i, nd.maxes[i])
		}
		n += checkNode(t, label, kid, false)
	}
	return n
}

type treeSnap struct {
	tr  Tree[ServiceKey, int]
	ref map[ServiceKey]int
	op  int
}

func TestPersistentMapModel(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(seed))
			var tr Tree[ServiceKey, int]
			ref := make(map[ServiceKey]int)
			var snaps []treeSnap
			const ops = 1500
			for op := 0; op < ops; op++ {
				switch c := r.Intn(100); {
				case c < 45: // one upsert
					tr = applyEdits(t, tr, ref, map[ServiceKey]*int{treeTestKey(r, 512): set(r.Intn(1 << 20))})
				case c < 65: // one delete (sometimes absent)
					tr = applyEdits(t, tr, ref, map[ServiceKey]*int{treeTestKey(r, 512): nil})
				case c < 80: // a batch: splits, merges and multi-leaf routing
					batch := map[ServiceKey]*int{}
					for i := r.Intn(300); i > 0; i-- {
						if k := treeTestKey(r, 512); r.Intn(3) == 0 {
							batch[k] = nil
						} else {
							batch[k] = set(r.Intn(1 << 20))
						}
					}
					tr = applyEdits(t, tr, ref, batch)
				case c < 90: // snapshot: retain for later re-verification
					snaps = append(snaps, treeSnap{tr: tr, ref: maps.Clone(ref), op: op})
				default: // rebuild bottom-up: the same contents, reached the bulk way
					tr = BuildTree(sortedEntries(ref))
				}
				if op%128 == 0 {
					checkAgainst(t, fmt.Sprintf("op %d (live)", op), tr, ref)
				}
			}
			checkAgainst(t, "final", tr, ref)
			for _, s := range snaps {
				checkAgainst(t, fmt.Sprintf("snapshot@op%d", s.op), s.tr, s.ref)
			}
			for i := 0; i < 100; i++ {
				k := ServiceKey{Addr: netaddr.V4(1 << 20), Proto: packet.ProtoUDP, Port: uint16(i)}
				if _, ok := tr.Get(k); ok {
					t.Fatalf("Get(%s) found a never-inserted key", k)
				}
			}
		})
	}
}

// TestTreeBatchModel: mixed batches of upserts and deletes against a map
// reference. Order, membership, counts and the node invariants hold at every
// step, and every earlier tree still holds its own contents after the later
// patches.
func TestTreeBatchModel(t *testing.T) {
	const universe = 4000
	key := func(i int) ServiceKey {
		return ServiceKey{Addr: netaddr.V4(0x0a100000 + i/8), Proto: packet.ProtoTCP, Port: uint16(1000 + i%8)}
	}
	r := rand.New(rand.NewSource(7))
	var tr Tree[ServiceKey, int]
	ref := make(map[ServiceKey]int)
	var history []treeSnap
	for step := 0; step < 60; step++ {
		batch := map[ServiceKey]*int{}
		for i := r.Intn(300); i > 0; i-- {
			batch[key(r.Intn(universe))] = set(r.Intn(1 << 20))
		}
		for i := r.Intn(200); i > 0; i-- {
			if k := key(r.Intn(universe)); batch[k] == nil {
				batch[k] = nil
			}
		}
		tr = applyEdits(t, tr, ref, batch)
		checkAgainst(t, fmt.Sprintf("step %d", step), tr, ref)
		if _, ok := tr.Get(key(universe + 1)); ok {
			t.Fatalf("step %d: Get of an absent key succeeded", step)
		}
		history = append(history, treeSnap{tr: tr, ref: maps.Clone(ref), op: step})
	}
	for _, g := range history {
		checkAgainst(t, fmt.Sprintf("generation %d", g.op), g.tr, g.ref)
	}
}

// TestFlushLiveModel flushes write layers of every size into a tree: small
// ones patch it, ones rewriting half of it or more rebuild it bottom up.
// Either way the tree must match the model, moved must see each key of the
// layer once in key order with its old and new values, and every tree taken
// along the way must still match the state it froze.
func TestFlushLiveModel(t *testing.T) {
	const universe = 3000
	key := func(i int) netaddr.V4 { return netaddr.V4(0x0a100000 + i) }
	r := rand.New(rand.NewSource(11))
	var tr Tree[netaddr.V4, int]
	ref := make(map[netaddr.V4]int)
	var history []struct {
		tr  Tree[netaddr.V4, int]
		ref map[netaddr.V4]int
	}
	retired := func(v int) bool { return v < 0 }
	rebuilt := 0
	for step := 0; step < 80; step++ {
		live := map[netaddr.V4]int{}
		for i := r.Intn([]int{20, 400, 4000}[step%3]); i > 0; i-- {
			v := r.Intn(1 << 20)
			if r.Intn(4) == 0 {
				v = -1
			}
			live[key(r.Intn(universe))] = v
		}
		if 2*len(live) >= tr.Len() {
			rebuilt++
		}
		var prev *netaddr.V4
		seen := 0
		tr = FlushLive(tr, live, retired, func(k netaddr.V4, old, cur int) {
			if prev != nil && k.Ord() <= prev.Ord() {
				t.Fatalf("step %d: moved(%v) after %v", step, k, *prev)
			}
			prev = &k
			seen++
			if old != ref[k] || cur != live[k] {
				t.Fatalf("step %d: moved(%v, %d, %d), model (%d, %d)", step, k, old, cur, ref[k], live[k])
			}
		})
		if seen != len(live) {
			t.Fatalf("step %d: moved saw %d keys of %d", step, seen, len(live))
		}
		for k, v := range live {
			if retired(v) {
				delete(ref, k)
			} else {
				ref[k] = v
			}
		}
		checkAgainst(t, fmt.Sprintf("step %d", step), tr, ref)
		history = append(history, struct {
			tr  Tree[netaddr.V4, int]
			ref map[netaddr.V4]int
		}{tr, maps.Clone(ref)})
	}
	if rebuilt == 0 || rebuilt == 80 {
		t.Fatalf("%d of 80 flushes rebuilt: both paths must run", rebuilt)
	}
	for i, g := range history {
		checkAgainst(t, fmt.Sprintf("generation %d", i), g.tr, g.ref)
	}
}

// TestTreePatchSharing patches two trees apart from one base, their edits
// interleaved: neither writes into the other's nodes or the base they share.
func TestTreePatchSharing(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	var base Tree[ServiceKey, int]
	baseRef := make(map[ServiceKey]int)
	for i := 0; i < 2000; i++ {
		base = applyEdits(t, base, baseRef, map[ServiceKey]*int{treeTestKey(r, 1024): set(i)})
	}
	trs := [2]Tree[ServiceKey, int]{base, base}
	refs := [2]map[ServiceKey]int{maps.Clone(baseRef), maps.Clone(baseRef)}
	for i := 0; i < 4000; i++ {
		w, k := i%2, treeTestKey(r, 1024)
		v := set(i*10 + w)
		if r.Intn(3) == 0 {
			v = nil
		}
		trs[w] = applyEdits(t, trs[w], refs[w], map[ServiceKey]*int{k: v})
	}
	for w := range trs {
		checkAgainst(t, fmt.Sprintf("tree %d of two", w), trs[w], refs[w])
	}
	checkAgainst(t, "base after two patch chains", base, baseRef)
}

// TestPersistentMapV4 exercises the second key type (address trails use
// netaddr.V4 keys) through the same model check.
func TestPersistentMapV4(t *testing.T) {
	var tr Tree[netaddr.V4, int]
	ref := make(map[netaddr.V4]int)
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 3000; i++ {
		a := netaddr.V4(r.Intn(700))
		if r.Intn(4) == 0 {
			tr = applyEdits(t, tr, ref, map[netaddr.V4]*int{a: nil})
		} else {
			tr = applyEdits(t, tr, ref, map[netaddr.V4]*int{a: set(i)})
		}
	}
	checkAgainst(t, "V4", tr, ref)
}

// buildMatchesPatched checks, at sizes on both sides of every node-shape
// boundary, that BuildTree holds exactly what patching the same entries in
// builds, and that the result is an ordinary tree: a patch round over it
// matches the model and leaves it untouched.
func buildMatchesPatched[K TreeKey](t *testing.T, key func(i int) K) {
	for _, n := range []int{0, 1, 2, leafMax - 1, leafMax, leafMax + 1, leafMax*innerMax - 1, leafMax * innerMax, leafMax*innerMax + 1, 4097, 200_000} {
		ref := make(map[K]int, n)
		for i := 0; i < n; i++ {
			ref[key(i)] = i
		}
		var patched Tree[K, int]
		sofar := make(map[K]int, n)
		for lo := 0; lo < n; lo += 5000 {
			batch := map[K]*int{}
			for i := lo; i < min(lo+5000, n); i++ {
				batch[key(i)] = set(i)
			}
			patched = applyEdits(t, patched, sofar, batch)
		}
		bulk := BuildTree(sortedEntries(ref))
		checkAgainst(t, fmt.Sprintf("n=%d: patched", n), patched, ref)
		checkAgainst(t, fmt.Sprintf("n=%d: bulk", n), bulk, ref)
		after := maps.Clone(ref)
		round := bulk
		for i := 0; i < min(n, 500); i++ {
			round = applyEdits(t, round, after, map[K]*int{key(i * 7 % n): nil, key(n + i): set(-i)})
		}
		checkAgainst(t, fmt.Sprintf("n=%d: patch round over bulk", n), round, after)
		checkAgainst(t, fmt.Sprintf("n=%d: bulk after the round", n), bulk, ref)
	}
}

func TestTreeBuildMatchesPatched(t *testing.T) {
	t.Run("ServiceKey", func(t *testing.T) {
		buildMatchesPatched(t, func(i int) ServiceKey {
			protos := [3]packet.IPProtocol{packet.ProtoTCP, packet.ProtoUDP, 1}
			return ServiceKey{Addr: netaddr.V4(0x807d0000 + i/3), Proto: protos[i%3], Port: uint16(i * 7919)}
		})
	})
	t.Run("V4", func(t *testing.T) {
		buildMatchesPatched(t, func(i int) netaddr.V4 { return netaddr.V4(0x807d0000 + i*13%1_000_003) })
	})
}

// diffKeys collects what tr.Diff(old) visits, failing on a key visited twice
// or out of order.
func diffKeys(t *testing.T, label string, tr, old Tree[ServiceKey, int]) map[ServiceKey]bool {
	t.Helper()
	got := make(map[ServiceKey]bool)
	var last *ServiceKey
	tr.Diff(old, func(a, b int) bool { return a == b }, func(k ServiceKey) {
		if got[k] || last != nil && !last.Before(k) {
			t.Fatalf("%s: diff visited %v twice or out of order", label, k)
		}
		got[k], last = true, &k
	})
	return got
}

// checkDiff holds Diff, both ways round, to a brute-force comparison of the
// two trees' entry sets.
func checkDiff(t *testing.T, label string, a, b Tree[ServiceKey, int]) {
	t.Helper()
	want := make(map[ServiceKey]bool)
	a.Walk(nil, func(k ServiceKey, v int) bool {
		if w, ok := b.Get(k); !ok || w != v {
			want[k] = true
		}
		return true
	})
	b.Walk(nil, func(k ServiceKey, _ int) bool {
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

// TestTreeDiffModel: two trees patched apart from one base by random
// upserts (some rebinding a key to its old value), deletes and batches differ
// exactly where a brute-force comparison says, including against bulk-built
// trees whose node boundaries differ from the patched ones; a bulk-built
// twin shares no node with its patched original yet differs from it nowhere.
// One rebound key costs its leaf, and diffing a tree against itself is free:
// nothing visited, nothing allocated.
func TestTreeDiffModel(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		var base Tree[ServiceKey, int]
		baseRef := map[ServiceKey]int{}
		for i := 0; i < 3000; i++ {
			base = applyEdits(t, base, baseRef, map[ServiceKey]*int{treeTestKey(r, 256): set(r.Intn(4))})
		}
		grow := func(ops int) Tree[ServiceKey, int] {
			tr, ref := base, maps.Clone(baseRef)
			for i := 0; i < ops; i++ {
				batch := map[ServiceKey]*int{}
				switch c := r.Intn(10); {
				case c < 5:
					batch[treeTestKey(r, 300)] = set(r.Intn(4)) // a quarter rebind the same value
				case c < 8:
					batch[treeTestKey(r, 300)] = nil
				default:
					for j := 0; j < 40; j++ {
						batch[treeTestKey(r, 300)] = set(r.Intn(4))
						batch[treeTestKey(r, 300)] = nil
					}
				}
				tr = applyEdits(t, tr, ref, batch)
			}
			return tr
		}
		for _, ops := range []int{0, 1, 5, 40, 400} {
			label := fmt.Sprintf("seed=%d ops=%d", seed, ops)
			a, b := grow(ops), grow(ops)
			checkDiff(t, label+" a/b", a, b)
			checkDiff(t, label+" base/a", base, a)
			checkDiff(t, label+" bulk(base)/a", BuildTree(sortedEntries(baseRef)), a)
		}
		checkDiff(t, fmt.Sprintf("seed=%d empty/base", seed), Tree[ServiceKey, int]{}, base)
	}

	ref := map[ServiceKey]int{}
	for i := 0; i < 20_000; i++ {
		ref[ServiceKey{Addr: netaddr.V4(0x807d0000 + i/4), Proto: packet.ProtoTCP, Port: uint16(i)}] = i
	}
	var tr Tree[ServiceKey, int]
	for lo, ents := 0, sortedEntries(ref); lo < len(ents); lo += 777 { // leaves cut where a bulk build does not
		tr = tr.Patch(upserts(ents[lo:min(lo+777, len(ents))]), nil)
	}
	twin := BuildTree(sortedEntries(ref))
	rebound := []TreeEdit[ServiceKey, int]{{Key: ServiceKey{Addr: 0x807d0000, Proto: packet.ProtoTCP}, Val: -1}}
	checkDiff(t, "bulk twin", tr, twin)
	checkDiff(t, "bulk twin, one rebound", tr, twin.Patch(rebound, nil))

	// One rebound key costs its leaf, where a walk of the whole trees would
	// compare all 20 000.
	compares := 0
	tr.Diff(tr.Patch(rebound, nil), func(a, b int) bool { compares++; return a == b }, func(ServiceKey) {})
	if compares > 2*leafMax {
		t.Fatalf("diff of a one-key change compared %d pairs: it walks shared subtrees", compares)
	}

	eq := func(a, b int) bool { return a == b }
	visits := 0
	if allocs := testing.AllocsPerRun(10, func() { tr.Diff(tr, eq, func(ServiceKey) { visits++ }) }); allocs != 0 || visits != 0 {
		t.Fatalf("self-diff: %v allocs, %d visits, want none", allocs, visits)
	}
}

// TestTreeSeek: Seek lands on the first entry strictly after the probe,
// including probes between entries, before the first, at the last and past
// the end.
func TestTreeSeek(t *testing.T) {
	key := func(i int) ServiceKey {
		return ServiceKey{Addr: netaddr.V4(0x0a100000 + i/8), Proto: packet.ProtoTCP, Port: uint16(1000 + i%8)}
	}
	ents := make([]TreeEntry[ServiceKey, struct{}], 1000)
	for i := range ents {
		ents[i].Key = key(i * 2) // even positions only
	}
	tr := BuildTree(ents)
	c := tr.Seek(nil)
	if e, ok := c.Next(); !ok || e.Key != key(0) {
		t.Fatalf("Seek(nil) = %v, want the first entry", e.Key)
	}
	for _, idx := range []int{0, 1, 17, 500, 998, 999} {
		after := key(idx * 2)
		c := tr.Seek(&after)
		e, ok := c.Next()
		if idx == len(ents)-1 {
			if ok {
				t.Fatalf("Seek after the last entry returned %v", e.Key)
			}
			continue
		}
		if !ok || e.Key != key(idx*2+2) {
			t.Fatalf("Seek(after=%v) = %v, want %v", after, e.Key, key(idx*2+2))
		}
	}
	for _, odd := range []int{-1, 35, 1999} { // between entries, and past the end
		after := key(odd)
		if odd < 0 {
			after = ServiceKey{}
		}
		c := tr.Seek(&after)
		e, ok := c.Next()
		if want := odd + 1; want < 2000 && (!ok || e.Key != key(want)) || want >= 2000 && ok {
			t.Fatalf("Seek(after=%v) = (%v, %v)", after, e.Key, ok)
		}
	}
}

// TestTreeDrainAndRefill: removing every key returns the empty tree, and
// patching the empty tree works.
func TestTreeDrainAndRefill(t *testing.T) {
	ref := map[ServiceKey]int{}
	r := rand.New(rand.NewSource(3))
	for len(ref) < 500 {
		ref[treeTestKey(r, 4096)] = len(ref)
	}
	tr := BuildTree(sortedEntries(ref))
	drain := map[ServiceKey]*int{}
	for k := range ref {
		drain[k] = nil
	}
	drained := applyEdits(t, tr, maps.Clone(ref), drain)
	if drained.Len() != 0 || drained.root != nil {
		t.Fatalf("drained tree not empty: Len=%d", drained.Len())
	}
	checkAgainst(t, "source after the drain", tr, ref)
	refill := map[ServiceKey]int{}
	drained = applyEdits(t, drained, refill, map[ServiceKey]*int{treeTestKey(r, 4096): set(1), treeTestKey(r, 4096): set(2)})
	checkAgainst(t, "refilled", drained, refill)
}
