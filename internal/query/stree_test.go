package query

import (
	"math/rand"
	"sort"
	"testing"

	"servdisc/internal/core"
	"servdisc/internal/netaddr"
	"servdisc/internal/packet"
)

func tkey(i int) core.ServiceKey {
	return core.ServiceKey{
		Addr:  netaddr.V4(0x0a100000 + uint32(i/8)),
		Proto: packet.ProtoTCP,
		Port:  uint16(1000 + i%8),
	}
}

// refModel is the sorted-slice reference the tree is checked against.
type refModel map[core.ServiceKey]keyEntry

func (m refModel) sortedKeys() []core.ServiceKey {
	keys := make([]core.ServiceKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Before(keys[j]) })
	return keys
}

func treeKeys(t stree[keyEntry]) []core.ServiceKey {
	var out []core.ServiceKey
	t.each(func(e keyEntry) bool {
		out = append(out, e.skey())
		return true
	})
	return out
}

func checkTree(t *testing.T, tr stree[keyEntry], model refModel) {
	t.Helper()
	want := model.sortedKeys()
	got := treeKeys(tr)
	if len(got) != len(want) {
		t.Fatalf("tree has %d elements, model %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("iteration order diverges at %d: got %v want %v", i, got[i], want[i])
		}
	}
	if tr.len() != len(want) {
		t.Fatalf("len() = %d, want %d", tr.len(), len(want))
	}
	checkInvariants(t, tr.root)
}

func checkInvariants(t *testing.T, nd *snode[keyEntry]) (int, core.ServiceKey) {
	t.Helper()
	if nd == nil {
		return 0, core.ServiceKey{}
	}
	if nd.kids == nil {
		if len(nd.elems) == 0 || len(nd.elems) > leafMax {
			t.Fatalf("leaf arity %d out of bounds", len(nd.elems))
		}
		for i := 1; i < len(nd.elems); i++ {
			if !nd.elems[i-1].skey().Before(nd.elems[i].skey()) {
				t.Fatalf("leaf unsorted at %d", i)
			}
		}
		max := nd.elems[len(nd.elems)-1].skey()
		if nd.max != max || nd.n != len(nd.elems) {
			t.Fatalf("leaf metadata wrong: max=%v n=%d", nd.max, nd.n)
		}
		return nd.n, max
	}
	if len(nd.kids) == 0 || len(nd.kids) > innerMax {
		t.Fatalf("inner arity %d out of bounds", len(nd.kids))
	}
	n := 0
	var last core.ServiceKey
	for i, kid := range nd.kids {
		kn, kmax := checkInvariants(t, kid)
		n += kn
		if i > 0 && !last.Before(kmax) {
			t.Fatalf("kid max keys unsorted")
		}
		if kid.max != kmax {
			t.Fatalf("kid max mismatch")
		}
		last = kmax
	}
	if nd.n != n || nd.max != last {
		t.Fatalf("inner metadata wrong: n=%d (sum %d)", nd.n, n)
	}
	return n, last
}

// Random batched upserts and deletes against a map reference: iteration
// order, membership, counts and structural invariants all hold at every
// step, and earlier tree values are unaffected by later patches.
func TestStreeModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	model := refModel{}
	tr := stree[keyEntry]{}
	type gen struct {
		tr   stree[keyEntry]
		keys []core.ServiceKey
	}
	var history []gen
	const universe = 4000
	for step := 0; step < 60; step++ {
		nAdd, nDel := rng.Intn(300), rng.Intn(200)
		addSet := map[core.ServiceKey]keyEntry{}
		for i := 0; i < nAdd; i++ {
			k := tkey(rng.Intn(universe))
			addSet[k] = keyEntry(k)
		}
		delSet := map[core.ServiceKey]bool{}
		for i := 0; i < nDel; i++ {
			k := tkey(rng.Intn(universe))
			if _, adding := addSet[k]; !adding {
				delSet[k] = true
			}
		}
		adds := make([]keyEntry, 0, len(addSet))
		for _, e := range addSet {
			adds = append(adds, e)
		}
		sort.Slice(adds, func(i, j int) bool { return adds[i].skey().Before(adds[j].skey()) })
		dels := make([]core.ServiceKey, 0, len(delSet))
		for k := range delSet {
			dels = append(dels, k)
		}
		sort.Slice(dels, func(i, j int) bool { return dels[i].Before(dels[j]) })

		tr = tr.patch(adds, dels)
		for k, e := range addSet {
			model[k] = e
		}
		for k := range delSet {
			delete(model, k)
		}
		checkTree(t, tr, model)
		for _, k := range model.sortedKeys() {
			if _, ok := tr.get(k); !ok {
				t.Fatalf("get(%v) missing", k)
			}
		}
		if _, ok := tr.get(tkey(universe + 1)); ok {
			t.Fatal("get of absent key succeeded")
		}
		history = append(history, gen{tr: tr, keys: model.sortedKeys()})
	}
	// Persistence: every historical tree still iterates its own key set.
	for i, g := range history {
		got := treeKeys(g.tr)
		if len(got) != len(g.keys) {
			t.Fatalf("generation %d mutated: %d keys, want %d", i, len(got), len(g.keys))
		}
		for j := range got {
			if got[j] != g.keys[j] {
				t.Fatalf("generation %d mutated at %d", i, j)
			}
		}
	}
}

// seek must land on the first element strictly after the probe, including
// probes between elements, before the first, at the last, and past the end.
func TestStreeSeek(t *testing.T) {
	tr := stree[keyEntry]{}
	var adds []keyEntry
	for i := 0; i < 1000; i++ {
		adds = append(adds, keyEntry(tkey(i*2))) // even positions only
	}
	sort.Slice(adds, func(i, j int) bool { return adds[i].skey().Before(adds[j].skey()) })
	tr = tr.patch(adds, nil)
	all := treeKeys(tr)

	c := tr.seek(nil)
	if e, ok := c.next(); !ok || e.skey() != all[0] {
		t.Fatalf("seek(nil) = %v, want first element", e)
	}
	for _, idx := range []int{0, 1, 17, 500, 998, 999} {
		after := all[idx]
		c := tr.seek(&after)
		e, ok := c.next()
		if idx == len(all)-1 {
			if ok {
				t.Fatalf("seek after last returned %v", e)
			}
			continue
		}
		if !ok || e.skey() != all[idx+1] {
			t.Fatalf("seek(after=%v) = %v, want %v", after, e.skey(), all[idx+1])
		}
	}
	// Probe between elements: any odd key sits between two stored evens.
	between := tkey(2*17 + 1)
	c = tr.seek(&between)
	e, ok := c.next()
	if !ok {
		t.Fatal("seek between elements hit end")
	}
	if !between.Before(e.skey()) {
		t.Fatalf("seek landed at %v, not after %v", e.skey(), between)
	}
}

// A full drain via patch(nil, allKeys) must return the empty tree, and
// patching the empty tree works.
func TestStreeDrainAndRefill(t *testing.T) {
	var adds []keyEntry
	for i := 0; i < 500; i++ {
		adds = append(adds, keyEntry(tkey(i)))
	}
	sort.Slice(adds, func(i, j int) bool { return adds[i].skey().Before(adds[j].skey()) })
	tr := stree[keyEntry]{}.patch(adds, nil)
	keys := treeKeys(tr)
	tr2 := tr.patch(nil, keys)
	if tr2.len() != 0 || tr2.root != nil {
		t.Fatalf("drained tree not empty: len=%d", tr2.len())
	}
	if tr.len() != 500 {
		t.Fatal("drain mutated the source tree")
	}
	tr3 := tr2.patch(adds[:10], nil)
	if tr3.len() != 10 {
		t.Fatalf("refill len = %d", tr3.len())
	}
}

// each visits every element in key order until f returns false.
func (t stree[E]) each(f func(E) bool) {
	c := t.seek(nil)
	for {
		e, ok := c.next()
		if !ok || !f(e) {
			return
		}
	}
}
