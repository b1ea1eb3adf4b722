package query

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"servdisc/internal/core"
	"servdisc/internal/netaddr"
	"servdisc/internal/packet"
	"servdisc/internal/probe"
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
		if got[i] != want[i] {
			t.Fatalf("%s: hit %d = %+v, want %+v", ctx, i, got[i], want[i])
		}
	}
}

// samePages pages q through got and want and holds them to the same hits
// and the same page tokens, page by page, to the end of the walk.
func samePages(t *testing.T, got, want *Epoch, q Query, ctx string) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d docs indexed, want %d", ctx, got.Len(), want.Len())
	}
	for page := 0; ; page++ {
		g, err := got.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		w, err := want.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		sameHits(t, g.Hits, w.Hits, fmt.Sprintf("%s, page %d", ctx, page))
		if g.NextPageToken != w.NextPageToken {
			t.Fatalf("%s, page %d: next page token %q, want %q", ctx, page, g.NextPageToken, w.NextPageToken)
		}
		if g.NextPageToken == "" {
			return
		}
		q.PageToken = g.NextPageToken
	}
}

// Random patches against a map model, with every dimension queried and
// checked after each epoch — including provenance flips and freshness
// moves of existing docs, the bucket-migration paths.
func TestCatalogPatchQueryModel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	t0 := time.Date(2006, 9, 19, 10, 0, 0, 0, time.UTC)
	cat := NewCatalog(time.Hour)
	var src docTree
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

		src = src.patch(cat, upserts, removes)
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
	docTree{}.patch(cat, docs, nil)
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
	src := docTree{}.patch(cat, docs, nil)
	old := cat.Epoch()
	before, _ := old.Query(Query{Limit: MaxLimit})

	src = src.patch(cat, nil, []core.ServiceKey{docs[0].Key, docs[1].Key})
	src.patch(cat, []Doc{qdoc(2000, core.ActiveOnly, t0)}, nil)

	after, _ := old.Query(Query{Limit: MaxLimit})
	sameHits(t, after.Hits, before.Hits, "retained epoch")
	if cur := cat.Epoch(); cur.Len() != 499 {
		t.Fatalf("current epoch has %d docs, want 499", cur.Len())
	}
	if old.Gen() == cat.Epoch().Gen() {
		t.Fatal("generation did not advance")
	}
}

// TestFreshBucketRange: every time has a defined freshness bucket. "No
// last evidence" gets one of its own below all others, the Unix epoch is
// an ordinary bucket 0, and times beyond the int64-nanosecond range clamp
// to its ends — buckets never step back as time moves forward.
func TestFreshBucketRange(t *testing.T) {
	e := NewCatalog(time.Hour).Epoch()
	lo, hi := time.Unix(0, math.MinInt64), time.Unix(0, math.MaxInt64)
	cases := []struct {
		name string
		in   time.Time
		want int64
	}{
		{"zero", time.Time{}, math.MinInt64},
		{"one ns before the range", lo.Add(-1), math.MinInt64/int64(time.Hour) - 1},
		{"first UnixNano", lo, math.MinInt64/int64(time.Hour) - 1},
		{"one ns before the epoch", time.Unix(0, -1), -1},
		{"Unix epoch exactly", time.Unix(0, 0), 0},
		{"an hour in, non-UTC", time.Unix(3600, 0).In(time.FixedZone("UTC-8", -8*3600)), 1},
		{"last UnixNano", hi, math.MaxInt64 / int64(time.Hour)},
		{"one ns past the range", hi.Add(1), math.MaxInt64 / int64(time.Hour)},
		{"year 9999", time.Date(9999, 1, 1, 0, 0, 0, 0, time.UTC), math.MaxInt64 / int64(time.Hour)},
	}
	prev := int64(math.MinInt64)
	for _, c := range cases {
		got := e.freshBucket(c.in)
		if got != c.want {
			t.Errorf("%s: bucket %d, want %d", c.name, got, c.want)
		}
		if got < prev {
			t.Errorf("%s: bucket %d steps back from %d", c.name, got, prev)
		}
		prev = got
	}

	// An index holding such docs answers freshness queries for them.
	cat := NewCatalog(time.Hour)
	docTree{}.patch(cat, []Doc{
		{Key: tkey(0)},
		{Key: tkey(1), Last: lo.Add(-time.Hour)},
		{Key: tkey(2), Last: time.Unix(0, 0)},
		{Key: tkey(3), Last: hi.Add(time.Hour)},
	}, nil)
	for since, want := range map[time.Time]int{lo.Add(-2 * time.Hour): 3, time.Unix(0, 0): 2, time.Unix(0, 1): 1} {
		res, err := cat.Epoch().Query(Query{MinFreshness: since})
		if err != nil || len(res.Hits) != want {
			t.Errorf("since %v: %d hits (err %v), want %d", since, len(res.Hits), err, want)
		}
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

// deltaEngine is what TestCatalogFollowsEngineDeltas drives: a
// ShardedPassive or a Hybrid.
type deltaEngine interface {
	HandleBatch([]packet.Packet)
	Flush()
	Snapshot() *core.Inventory
	OnSnapshot(func(prev, inv *core.Inventory, d core.SnapshotDelta))
	SetRetention(core.RetentionPolicy)
	ExportDelta(*core.CheckpointCursor) (*core.EngineDelta, core.CheckpointCursor)
	ImportDelta(*core.EngineDelta) error
	Run(context.Context)
	Close()
}

// The index, maintained purely from OnSnapshot deltas, must track the
// engine's inventory exactly through discovery, re-observation, expiry
// and rebirth — at 1, 2 and 8 shards, on a passive engine and on a hybrid
// one that takes a sweep report every round. Half-way the engine is
// exported, restored into a fresh one at another shard count, and the run
// goes on there. Only the first snapshot and the first after the restore
// may be Full, and every round's inventory is the 1-shard run's.
func TestCatalogFollowsEngineDeltas(t *testing.T) {
	for _, hybrid := range []bool{false, true} {
		var refDumps [][]byte // the 1-shard run's, round by round
		for _, shards := range []int{1, 2, 8} {
			name := fmt.Sprintf("shards=%d", shards)
			if hybrid {
				name = "hybrid," + name
			}
			t.Run(name, func(t *testing.T) {
				followEngineDeltas(t, hybrid, shards, &refDumps)
			})
		}
	}
}

func followEngineDeltas(t *testing.T, hybrid bool, shards int, refDumps *[][]byte) {
	pfx := netaddr.MustParsePrefix("10.20.0.0/16")
	t0 := time.Date(2006, 9, 19, 10, 0, 0, 0, time.UTC)
	policy := core.RetentionPolicy{PassiveTTL: 30 * time.Minute}
	if hybrid {
		policy.ActiveTTL = 40 * time.Minute
	}
	cat := NewCatalog(10 * time.Minute)
	var deltas, fulls int
	start := func(n int, from *core.EngineDelta) deltaEngine {
		var eng deltaEngine = core.NewShardedPassive(pfx, nil, n)
		if hybrid {
			eng = core.NewHybrid(pfx, nil, n, nil)
		}
		eng.SetRetention(policy)
		if from != nil {
			if err := eng.ImportDelta(from); err != nil {
				t.Fatal(err)
			}
		}
		eng.OnSnapshot(func(prev, inv *core.Inventory, d core.SnapshotDelta) {
			if d.Full != (prev == nil) {
				t.Errorf("delta Full=%v with a predecessor %v", d.Full, prev != nil)
			}
			if d.Full {
				fulls++
			} else {
				deltas++
			}
			cat.ApplyDelta(inv, d)
		})
		eng.Run(context.Background())
		return eng
	}
	eng := start(shards, nil)
	defer func() { eng.Close() }()

	bld := packet.NewBuilder(0)
	client := packet.Endpoint{Addr: netaddr.MustParseV4("64.9.0.1"), Port: 33000}
	rng := rand.New(rand.NewSource(7))
	endpoint := func(i int) packet.Endpoint {
		return packet.Endpoint{Addr: pfx.Base() + netaddr.V4(1+i/4), Port: uint16(2000 + i%4)}
	}
	// Sweeps probe endpoints 200-599: half of them passive traffic sees
	// too, sooner or later, and half only a probe finds. Every third sweep
	// is stamped before the one ahead of it and re-probes its endpoints, so
	// their first answers move earlier.
	// seen names the hybrid cases the run reached.
	seen := map[string]bool{}
	var lastProbed []int
	var lastSweep time.Time
	everProbed := map[int]bool{}
	sweep := func(round int, now time.Time) *probe.ScanReport {
		at, probed := now, make([]int, 0, 24)
		if round%3 == 2 {
			at, probed = lastSweep.Add(-10*time.Minute), append(probed, lastProbed...)
		}
		for len(probed) < cap(probed) {
			probed = append(probed, 200+rng.Intn(400))
		}
		rep := &probe.ScanReport{ID: round + 1, Started: at, Finished: at}
		for _, i := range probed {
			seen["re-answer"] = seen["re-answer"] || everProbed[i]
			everProbed[i] = true
			ep := endpoint(i)
			rep.TCP = append(rep.TCP, probe.TCPResult{Time: at, Addr: ep.Addr, Port: ep.Port, State: probe.StateOpen})
		}
		lastProbed, lastSweep = probed[:8], at
		return rep
	}
	firstOpen := map[core.ServiceKey]time.Time{}

	now := t0
	var kept *Epoch // the previous round's epoch, retained across a patch
	var keptHits []Doc
	for round := 0; round < 30; round++ {
		if round == 15 {
			ed, _ := eng.ExportDelta(nil)
			eng.Close()
			eng = start(map[int]int{1: 8, 2: 1, 8: 2}[shards], ed)
		}
		var batch []packet.Packet
		for i, n := 0, 50+rng.Intn(100); i < n; i++ {
			// Mix of new services and re-observations; advancing
			// time expires untouched records via the TTL.
			idx := rng.Intn(400)
			batch = append(batch, *bld.SynAck(now, endpoint(idx), client, 1, 1))
			now = now.Add(time.Second)
		}
		now = now.Add(5 * time.Minute)
		eng.HandleBatch(batch)
		if h, ok := eng.(*core.Hybrid); ok {
			h.AddReport(sweep(round, now))
		}
		eng.Flush()
		inv := eng.Snapshot()
		if dump := inv.Dump(); shards == 1 {
			*refDumps = append(*refDumps, dump)
		} else if !bytes.Equal(dump, (*refDumps)[round]) {
			t.Fatalf("round %d: the inventory differs from the 1-shard run's", round)
		}
		if hybrid {
			inv.EachTombstone(func(k core.ServiceKey, _ time.Time, prov core.Provenance) bool {
				p, _ := inv.Provenance(k)
				seen["probe expired"] = seen["probe expired"] || prov == core.ActiveOnly
				seen["passive expired under a probe"] = seen["passive expired under a probe"] || prov == core.PassiveOnly && p == core.ActiveOnly
				return true
			})
			inv.EachService(func(k core.ServiceKey, _ *core.PassiveRecord, prov core.Provenance, _, activeAt time.Time) bool {
				seen["probe only"] = seen["probe only"] || prov == core.ActiveOnly && k.Addr > endpoint(399).Addr
				seen["passive later"] = seen["passive later"] || prov == core.ActiveFirst
				if was, ok := firstOpen[k]; ok && activeAt.Before(was) {
					seen["earlier answer"] = true
				}
				if prov != core.PassiveOnly {
					firstOpen[k] = activeAt
				}
				return true
			})
		}

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
			{Provenance: core.ActiveOnly, HasProvenance: true, Limit: MaxLimit},
		} {
			got, err := ep.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			sameHits(t, got.Hits, bruteQuery(want, q), fmt.Sprintf("round %d %+v", round, q))
		}

		// A catalog built afresh over this round's inventory, bottom up,
		// answers every shape page by page as the followed one does.
		fresh := NewCatalog(10 * time.Minute)
		fresh.RebuildFromInventory(inv)
		for _, q := range []Query{
			{},
			{Port: 2001},
			{Proto: packet.ProtoTCP},
			{Category: CatOther},
			{Prefix: netaddr.MustParsePrefix("10.20.0.0/24")},
			{Prefix: netaddr.MustParsePrefix("10.20.0.0/26")},
			{Prefix: netaddr.MustParsePrefix("10.20.0.32/27"), Port: 2002},
			{Prefix: netaddr.MustParsePrefix("10.20.0.7/32"), Port: 2003, Proto: packet.ProtoTCP},
			{MinFreshness: now.Add(-20 * time.Minute)},
			{Provenance: core.PassiveOnly, HasProvenance: true},
			{Provenance: core.ActiveOnly, HasProvenance: true},
			{Provenance: core.ActiveFirst, HasProvenance: true, MinFreshness: now.Add(-time.Hour)},
		} {
			q.Limit = 7
			samePages(t, ep, fresh.Epoch(), q, fmt.Sprintf("round %d, fresh build, %+v", round, q))
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
	if fulls != 2 {
		t.Errorf("%d Full snapshots, want the first and the first after the restore", fulls)
	}
	if hybrid && len(seen) != 6 {
		t.Errorf("the run reached only %v of the six hybrid cases", seen)
	}
	t.Logf("shards=%d: %d delta snapshots, %d full rebuilds", shards, deltas, fulls)
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
