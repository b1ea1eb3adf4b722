package query

import (
	"slices"

	"servdisc/internal/core"
)

// docTree is a test's frozen doc store: a tree of docs, fed to a catalog
// through Advance as the aggregator feeds its cell tree.
type docTree struct {
	core.Tree[core.ServiceKey, Doc]
}

func (t docTree) Doc(k core.ServiceKey) (Doc, bool) { return t.Get(k) }

func (t docTree) Docs(after *core.ServiceKey, f func(Doc) bool) {
	t.Walk(after, func(_ core.ServiceKey, d Doc) bool { return f(d) })
}

// patch returns t with upserts written and removes (disjoint from them)
// deleted, and advances cat over the result with exactly those keys.
func (t docTree) patch(cat *Catalog, upserts []Doc, removes []core.ServiceKey) docTree {
	edits := make([]core.TreeEdit[core.ServiceKey, Doc], 0, len(upserts)+len(removes))
	keys := make([]core.ServiceKey, 0, cap(edits))
	for _, d := range upserts {
		edits = append(edits, core.TreeEdit[core.ServiceKey, Doc]{Key: d.Key, Val: d})
		keys = append(keys, d.Key)
	}
	for _, k := range removes {
		edits = append(edits, core.TreeEdit[core.ServiceKey, Doc]{Key: k, Del: true})
		keys = append(keys, k)
	}
	slices.SortFunc(edits, func(x, y core.TreeEdit[core.ServiceKey, Doc]) int { return x.Key.Compare(y.Key) })
	next := docTree{t.Patch(edits, nil)}
	cat.Advance(next, keys)
	return next
}
