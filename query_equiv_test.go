package servdisc

// The query layer's ground truth is the canonical full dump: every query
// answer must equal brute-force filtering of the same snapshot's
// inventory, in the same canonical key order, for every predicate shape
// and every pagination size — at shard counts 1, 2 and 8, and while a
// full-speed producer races the queries. The index epoch advances only at
// Snapshot, so after the test freezes an inventory the current epoch
// answers for exactly that inventory no matter how much the producer has
// ingested since; that is the property that makes the racing comparison
// well-defined.

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"servdisc/internal/core"
	"servdisc/internal/netaddr"
	"servdisc/internal/query"
)

// bruteMatch reimplements the query predicate set independently of the
// index, so index bugs cannot hide in a shared helper.
func bruteMatch(q query.Query, d query.Doc) bool {
	if q.Port != 0 && d.Key.Port != q.Port {
		return false
	}
	if q.Proto != 0 && d.Key.Proto != q.Proto {
		return false
	}
	if q.Category != query.CatAny && query.CategoryOf(d.Key) != q.Category {
		return false
	}
	if q.Prefix.Bits() != 0 && !q.Prefix.Contains(d.Key.Addr) {
		return false
	}
	if q.HasProvenance && d.Prov != q.Provenance {
		return false
	}
	if !q.MinFreshness.IsZero() && d.Last.Before(q.MinFreshness) {
		return false
	}
	return true
}

// bruteDocs filters the canonical full dump: every inventory key in
// canonical order, materialized as a doc, kept if the predicates hold.
func bruteDocs(inv *Inventory, q query.Query) []query.Doc {
	var out []query.Doc
	for _, k := range inv.Keys() {
		d, _ := query.DocFromInventory(inv, k)
		if bruteMatch(q, d) {
			out = append(out, d)
		}
	}
	return out
}

// drainQuery pages through the pipeline's answer for one predicate set.
func drainQuery(t *testing.T, pl *Pipeline, q query.Query) []query.Doc {
	t.Helper()
	var out []query.Doc
	for {
		res, err := pl.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, res.Hits...)
		if res.NextPageToken == "" {
			return out
		}
		q.PageToken = res.NextPageToken
	}
}

func sameDocs(got, want []query.Doc) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d hits, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Key != w.Key {
			return fmt.Errorf("hit %d: key %s, want %s", i, g.Key, w.Key)
		}
		if g.Prov != w.Prov || g.Flows != w.Flows || g.Clients != w.Clients ||
			!g.First.Equal(w.First) || !g.Last.Equal(w.Last) {
			return fmt.Errorf("hit %d (%s): doc %+v, want %+v", i, g.Key, g, w)
		}
	}
	return nil
}

// equivShapes builds the predicate shapes to check against one frozen
// inventory: every index dimension, the unindexed full scan, a compound
// query, and a point lookup — with a pagination size that forces several
// pages whenever the answer is non-trivial.
func equivShapes(t *testing.T, inv *Inventory) []query.Query {
	t.Helper()
	keys := inv.Keys()
	shapes := []query.Query{
		{},                       // full dump
		{Port: 443},              // port dimension
		{Category: query.CatWeb}, // category dimension
		{Category: query.CatSSH}, // sparser category
		{Provenance: core.PassiveOnly, HasProvenance: true}, // provenance dimension
	}
	if len(keys) > 0 {
		mid := keys[len(keys)/2]
		narrow := func(bits uint8) netaddr.Prefix {
			p, err := netaddr.NewPrefix(mid.Addr, int(bits))
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		shapes = append(shapes,
			query.Query{Prefix: narrow(24)}, // a /24 or narrower: chosen before port
			query.Query{Prefix: narrow(20)}, // a wider run of the doc tree: after category
			// Point lookup (the key= shape) and a compound query mixing an
			// indexed dimension with residual filters.
			query.Query{Prefix: narrow(32), Port: mid.Port, Proto: mid.Proto},
			query.Query{Port: mid.Port, Prefix: narrow(20), Provenance: core.PassiveOnly, HasProvenance: true},
		)
		if d, _ := query.DocFromInventory(inv, mid); !d.Last.IsZero() {
			shapes = append(shapes, query.Query{MinFreshness: d.Last}) // freshness dimension
		}
	}
	return shapes
}

func checkQueryEquiv(t *testing.T, pl *Pipeline, inv *Inventory, ctx string) {
	t.Helper()
	for si, q := range equivShapes(t, inv) {
		want := bruteDocs(inv, q)
		// One-shot at the default limit, then paged small enough to force
		// pagination on any non-trivial answer.
		q.Limit = query.MaxLimit
		if err := sameDocs(drainQuery(t, pl, q), want); err != nil {
			t.Fatalf("%s, shape %d (%+v): one-shot: %v", ctx, si, q, err)
		}
		q.Limit = 7
		if err := sameDocs(drainQuery(t, pl, q), want); err != nil {
			t.Fatalf("%s, shape %d (%+v): paged: %v", ctx, si, q, err)
		}
	}
}

func TestQueryMatchesCanonicalDump(t *testing.T) {
	buf, pfx := recordTrace(t, 1.5)
	raw := buf.Bytes()

	var finals [][]query.Doc
	for _, shards := range []int{1, 2, 8} {
		pl, err := NewPipeline(Config{Campus: pfx.String(), Shards: shards, QueryIndex: true})
		if err != nil {
			t.Fatal(err)
		}
		pl.Run(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := pl.Replay(context.Background(), bytes.NewReader(raw))
			done <- err
		}()

		// Race the full-speed producer: freeze, then require the epoch to
		// answer for exactly the frozen inventory while ingest continues.
		running := true
		for round := 0; running; round++ {
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
				running = false
			default:
			}
			inv := pl.Snapshot()
			checkQueryEquiv(t, pl, inv, fmt.Sprintf("shards=%d, racing round %d", shards, round))
		}

		pl.Close()
		inv := pl.Snapshot()
		if inv.Len() == 0 {
			t.Fatalf("shards=%d: replay produced an empty inventory", shards)
		}
		checkQueryEquiv(t, pl, inv, fmt.Sprintf("shards=%d, final", shards))
		n, ok := pl.QueryIndexLen()
		if !ok || n != inv.Len() {
			t.Fatalf("shards=%d: index holds %d services (ok=%v), inventory %d", shards, n, ok, inv.Len())
		}
		finals = append(finals, drainQuery(t, pl, query.Query{Limit: query.MaxLimit}))
	}

	// Determinism across shard counts: the same trace must yield the same
	// query answers whichever way the engine was sharded.
	for i := 1; i < len(finals); i++ {
		if err := sameDocs(finals[i], finals[0]); err != nil {
			t.Fatalf("shard-count run %d disagrees with run 0: %v", i, err)
		}
	}
}

// A query against a pipeline built without Config.QueryIndex must fail
// loudly, not answer from a stale or empty index.
func TestQueryRequiresIndexConfig(t *testing.T) {
	pl, err := NewPipeline(Config{Campus: "10.16.0.0/16", Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	if _, err := pl.Query(Query{}); err == nil {
		t.Fatal("Query succeeded without Config.QueryIndex")
	}
	if _, ok := pl.QueryIndexLen(); ok {
		t.Fatal("QueryIndexLen reported an index without Config.QueryIndex")
	}
}
