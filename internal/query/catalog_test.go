package query

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

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

func qdoc(i int, prov core.Provenance, last time.Time) Doc {
	k := tkey(i)
	return Doc{Key: k, Prov: prov, First: last.Add(-time.Hour), Last: last, Flows: i, Clients: 1}
}

// bruteQuery filters a doc set the obvious way: sort by key, apply every
// predicate, slice out the page.
func bruteQuery(docs map[core.ServiceKey]Doc, q Query) []Doc {
	keys := make([]core.ServiceKey, 0, len(docs))
	for k := range docs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Before(keys[j]) })
	var after *core.ServiceKey
	if q.PageToken != "" {
		k, err := ParseKey(q.PageToken)
		if err != nil {
			panic(err)
		}
		after = &k
	}
	var out []Doc
	for _, k := range keys {
		if after != nil && !(*after).Before(k) {
			continue
		}
		d := docs[k]
		if !q.matchesKey(d.Key) || !q.matchesDoc(d) {
			continue
		}
		out = append(out, d)
		if len(out) == q.limit() {
			break
		}
	}
	return out
}

func sameHits(t *testing.T, got, want []Doc, ctx string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d hits, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		if pack(got[i]) != pack(want[i]) {
			t.Fatalf("%s: hit %d = %+v, want %+v", ctx, i, got[i], want[i])
		}
	}
}

// Random patches against a map model, with every dimension queried and
// checked after each epoch — including provenance flips and freshness
// moves of existing docs, the bucket-migration paths.
func TestCatalogPatchQueryModel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	t0 := time.Date(2006, 9, 19, 10, 0, 0, 0, time.UTC)
	cat := NewCatalog(time.Hour)
	model := map[core.ServiceKey]Doc{}
	const universe = 3000

	queries := func() []Query {
		return []Query{
			{},
			{Port: 1000 + uint16(rng.Intn(8))},
			{Prefix: netaddr.MustParsePrefix("10.16.0.0/24")},
			{Prefix: netaddr.MustParsePrefix("10.16.0.0/22")},
			{Prefix: netaddr.MustParsePrefix("10.16.1.64/26")}, // a run from mid-tree
			{Prefix: netaddr.MustParsePrefix("0.0.0.0/4")},     // no address below it
			{Prefix: mustPrefix32(tkey(rng.Intn(universe)).Addr), Port: 1000 + uint16(rng.Intn(8))},
			{Provenance: core.ActiveOnly, HasProvenance: true},
			{Provenance: core.PassiveOnly, HasProvenance: true},
			{MinFreshness: t0.Add(time.Duration(rng.Intn(72)) * time.Hour)},
			{Port: 1001, MinFreshness: t0.Add(24 * time.Hour)},
			{Category: CatOther},
			{Limit: 7},
		}
	}

	for step := 0; step < 40; step++ {
		ups := map[core.ServiceKey]Doc{}
		for i, n := 0, rng.Intn(200); i < n; i++ {
			idx := rng.Intn(universe)
			last := t0.Add(time.Duration(rng.Intn(96)) * time.Hour)
			d := qdoc(idx, core.Provenance(rng.Intn(4)), last)
			ups[d.Key] = d
		}
		var removes []core.ServiceKey
		seen := map[core.ServiceKey]bool{}
		for i, n := 0, rng.Intn(100); i < n; i++ {
			k := tkey(rng.Intn(universe))
			if _, upserting := ups[k]; !upserting && !seen[k] {
				seen[k] = true
				removes = append(removes, k)
			}
		}
		upserts := make([]Doc, 0, len(ups))
		for _, d := range ups {
			upserts = append(upserts, d)
		}
		sort.Slice(upserts, func(i, j int) bool { return upserts[i].Key.Before(upserts[j].Key) })
		sort.Slice(removes, func(i, j int) bool { return removes[i].Before(removes[j]) })

		cat.Patch(upserts, removes)
		for _, d := range upserts {
			model[d.Key] = d
		}
		for _, k := range removes {
			delete(model, k)
		}

		ep := cat.Epoch()
		if ep.Len() != len(model) {
			t.Fatalf("step %d: epoch has %d docs, model %d", step, ep.Len(), len(model))
		}
		for qi, q := range queries() {
			q.Limit = 1 + rng.Intn(50)
			res, err := ep.Query(q)
			if err != nil {
				t.Fatalf("step %d query %d: %v", step, qi, err)
			}
			sameHits(t, res.Hits, bruteQuery(model, q), fmt.Sprintf("step %d query %d", step, qi))
		}
	}
}

func mustPrefix32(a netaddr.V4) netaddr.Prefix {
	p, err := netaddr.NewPrefix(a, 32)
	if err != nil {
		panic(err)
	}
	return p
}

// Pagination must be deterministic and lossless: walking any query in
// small pages yields exactly the single-shot result, in order.
func TestCatalogPagination(t *testing.T) {
	t0 := time.Date(2006, 9, 19, 10, 0, 0, 0, time.UTC)
	cat := NewCatalog(0)
	var docs []Doc
	for i := 0; i < 1000; i++ {
		docs = append(docs, qdoc(i, core.PassiveOnly, t0))
	}
	sort.Slice(docs, func(i, j int) bool { return docs[i].Key.Before(docs[j].Key) })
	cat.Rebuild(docs)
	ep := cat.Epoch()

	for _, q := range []Query{{}, {Port: 1003}, {Prefix: netaddr.MustParsePrefix("10.16.0.0/25")}} {
		want, err := ep.Query(Query{Port: q.Port, Prefix: q.Prefix, Limit: MaxLimit})
		if err != nil {
			t.Fatal(err)
		}
		var paged []Doc
		q.Limit = 7
		for {
			res, err := ep.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			paged = append(paged, res.Hits...)
			if res.NextPageToken == "" {
				break
			}
			q.PageToken = res.NextPageToken
			if len(paged) > len(want.Hits)+7 {
				t.Fatal("pagination does not terminate")
			}
		}
		sameHits(t, paged, want.Hits, "paged walk")
	}
}

// An epoch answers identically forever: queries against a retained epoch
// are unaffected by later patches, while the catalog's current epoch
// moves on.
func TestCatalogEpochImmutability(t *testing.T) {
	t0 := time.Date(2006, 9, 19, 10, 0, 0, 0, time.UTC)
	cat := NewCatalog(0)
	var docs []Doc
	for i := 0; i < 500; i++ {
		docs = append(docs, qdoc(i, core.PassiveOnly, t0))
	}
	sort.Slice(docs, func(i, j int) bool { return docs[i].Key.Before(docs[j].Key) })
	cat.Rebuild(docs)
	old := cat.Epoch()
	before, _ := old.Query(Query{Limit: MaxLimit})

	cat.Patch(nil, []core.ServiceKey{docs[0].Key, docs[1].Key})
	cat.Patch([]Doc{qdoc(2000, core.ActiveOnly, t0)}, nil)

	after, _ := old.Query(Query{Limit: MaxLimit})
	sameHits(t, after.Hits, before.Hits, "retained epoch")
	if cur := cat.Epoch(); cur.Len() != 499 {
		t.Fatalf("current epoch has %d docs, want 499", cur.Len())
	}
	if old.Gen() == cat.Epoch().Gen() {
		t.Fatal("generation did not advance")
	}
}

// engineDocs derives the expected doc set from a frozen inventory.
func engineDocs(inv *core.Inventory) map[core.ServiceKey]Doc {
	out := make(map[core.ServiceKey]Doc, inv.Len())
	for _, k := range inv.Keys() {
		out[k], _ = DocFromInventory(inv, k)
	}
	return out
}

// The index, maintained purely from OnSnapshot deltas, must track the
// engine's inventory exactly through discovery, re-observation, expiry
// and rebirth — at 1, 2 and 8 shards.
func TestCatalogFollowsEngineDeltas(t *testing.T) {
	for _, shards := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			pfx := netaddr.MustParsePrefix("10.20.0.0/16")
			t0 := time.Date(2006, 9, 19, 10, 0, 0, 0, time.UTC)
			sp := core.NewShardedPassive(pfx, nil, shards)
			defer sp.Close()
			sp.SetRetention(core.RetentionPolicy{PassiveTTL: 30 * time.Minute})
			sp.Run(context.Background())

			cat := NewCatalog(10 * time.Minute)
			var deltas, fulls int
			sp.OnSnapshot(func(prev, inv *core.Inventory, d core.SnapshotDelta) {
				if d.Full {
					fulls++
				} else {
					deltas++
				}
				cat.ApplyDelta(inv, d)
			})

			bld := packet.NewBuilder(0)
			client := packet.Endpoint{Addr: netaddr.MustParseV4("64.9.0.1"), Port: 33000}
			rng := rand.New(rand.NewSource(int64(shards)))
			endpoint := func(i int) packet.Endpoint {
				return packet.Endpoint{Addr: pfx.Base() + netaddr.V4(1+i/4), Port: uint16(2000 + i%4)}
			}

			now := t0
			var kept *Epoch // the previous round's epoch, retained across a patch
			var keptHits []Doc
			for round := 0; round < 30; round++ {
				var batch []packet.Packet
				for i, n := 0, 50+rng.Intn(100); i < n; i++ {
					// Mix of new services and re-observations; advancing
					// time expires untouched records via the TTL.
					idx := rng.Intn(400)
					batch = append(batch, *bld.SynAck(now, endpoint(idx), client, 1, 1))
					now = now.Add(time.Second)
				}
				now = now.Add(5 * time.Minute)
				sp.HandleBatch(batch)
				sp.Flush()
				inv := sp.Snapshot()

				want := engineDocs(inv)
				ep := cat.Epoch()
				if ep.Len() != len(want) {
					t.Fatalf("round %d: index has %d docs, inventory %d", round, ep.Len(), len(want))
				}
				res, err := ep.Query(Query{Limit: MaxLimit})
				if err != nil {
					t.Fatal(err)
				}
				sameHits(t, res.Hits, bruteQuery(want, Query{Limit: MaxLimit}), fmt.Sprintf("round %d", round))
				for _, q := range []Query{
					{Port: 2001, Limit: MaxLimit},
					{Prefix: netaddr.MustParsePrefix("10.20.0.0/26"), Limit: MaxLimit},
					{Prefix: netaddr.MustParsePrefix("10.20.0.32/27"), Port: 2002, Limit: 5},
					{MinFreshness: now.Add(-20 * time.Minute), Limit: MaxLimit},
					{Provenance: core.PassiveOnly, HasProvenance: true, Limit: 9, PageToken: "10.20.0.51:2000/tcp"},
				} {
					got, err := ep.Query(q)
					if err != nil {
						t.Fatal(err)
					}
					sameHits(t, got.Hits, bruteQuery(want, q), fmt.Sprintf("round %d %+v", round, q))
				}

				// An epoch reads the inventory it pinned, so one retained across
				// a patch answers as it did.
				if kept != nil {
					again, _ := kept.Query(Query{Limit: MaxLimit})
					sameHits(t, again.Hits, keptHits, fmt.Sprintf("round %d, retained epoch", round))
				}
				kept, keptHits = ep, res.Hits
			}
			if deltas == 0 {
				t.Error("no delta-path snapshots observed — the O(churn) path never ran")
			}
			t.Logf("shards=%d: %d delta snapshots, %d full rebuilds", shards, deltas, fulls)
		})
	}
}

// ParseKey inverts ServiceKey.String for valid inputs and rejects junk.
func TestParseKeyRoundTrip(t *testing.T) {
	for _, k := range []core.ServiceKey{
		{Addr: netaddr.MustParseV4("10.16.0.9"), Proto: packet.ProtoTCP, Port: 443},
		{Addr: netaddr.MustParseV4("0.0.0.0"), Proto: packet.ProtoUDP, Port: 0},
		{Addr: netaddr.MustParseV4("255.255.255.255"), Proto: packet.ProtoTCP, Port: 65535},
	} {
		got, err := ParseKey(k.String())
		if err != nil || got != k {
			t.Errorf("round trip %v → %v, %v", k, got, err)
		}
	}
	for _, s := range []string{"", "10.0.0.1", "10.0.0.1:80", "10.0.0.1/tcp", "10.0.0.1:x/tcp", "10.0.0.1:80/bogus", ":80/tcp"} {
		if _, err := ParseKey(s); err == nil {
			t.Errorf("ParseKey(%q) accepted", s)
		}
	}
}
