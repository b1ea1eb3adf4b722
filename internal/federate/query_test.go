package federate

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"servdisc/internal/core"
	"servdisc/internal/netaddr"
	"servdisc/internal/packet"
	"servdisc/internal/query"
)

// queryAll drains the aggregator's full index in canonical order.
func queryAll(t *testing.T, agg *Aggregator) []query.Doc {
	t.Helper()
	var out []query.Doc
	q := query.Query{Limit: query.MaxLimit}
	for {
		res, err := agg.Query(q)
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

// pagesMatch pages through q on one held epoch and reports whether the
// pages concatenate to the epoch's single-shot answer.
func pagesMatch(ep *query.Epoch, q query.Query) (bool, error) {
	one, err := ep.Query(query.Query{Port: q.Port, Limit: query.MaxLimit})
	if err != nil {
		return false, err
	}
	var paged []query.Doc
	for {
		res, err := ep.Query(q)
		if err != nil {
			return false, err
		}
		paged = append(paged, res.Hits...)
		if res.NextPageToken == "" {
			return slices.Equal(paged, one.Hits), nil
		}
		q.PageToken = res.NextPageToken
	}
}

// The aggregator's flushed index must track the service table exactly
// under a random mix of snapshot, event and seal frames (the seals
// retracting) from several sites — checked every round against the canonical Services() roll-up.
// Meanwhile readers hold epochs and page through them while frames apply:
// each paged walk must equal its epoch's single-shot answer.
func TestAggregatorQueryFollowsFrames(t *testing.T) {
	base := time.Date(2006, 12, 16, 10, 0, 0, 0, time.UTC)
	agg := NewAggregator()
	rng := rand.New(rand.NewSource(11))
	sites := []SiteID{"east", "west"}
	seq := map[SiteID]uint64{}
	key := func(i int) core.ServiceKey {
		return testKey(0x807D0100+uint32(i/3), 6, uint16(80+i%3))
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			q := query.Query{Limit: 1 + r} // full scans and port scans, small pages
			if r%2 == 1 {
				q.Port = 80 + uint16(r/2)
			}
			for n := 0; ; n++ {
				select {
				case <-stop:
					if n > 0 {
						return
					}
				default:
				}
				ep := agg.QueryEpoch()
				if ok, err := pagesMatch(ep, q); err != nil || !ok {
					t.Errorf("reader %d, epoch %d: paged walk differs from the single-shot answer (err %v)", r, ep.Gen(), err)
					return
				}
			}
		}()
	}
	defer func() {
		close(stop)
		readers.Wait()
	}()

	for round := 0; round < 25; round++ {
		site := sites[rng.Intn(len(sites))]
		seq[site]++
		switch rng.Intn(3) {
		case 0: // live discovery event
			ev := core.Event{
				Kind: core.EventServiceDiscovered, Key: key(rng.Intn(30)),
				Provenance: core.PassiveOnly,
				Time:       base.Add(time.Duration(round) * time.Minute),
			}
			if err := agg.Apply(&Frame{V: WireVersion, Type: FrameEvent, Site: site,
				Seq: seq[site], Event: &ev}); err != nil {
				t.Fatal(err)
			}
		case 1: // bootstrap snapshot with a handful of services
			var svcs []SnapshotService
			for i, n := 0, 2+rng.Intn(4); i < n; i++ {
				svcs = append(svcs, SnapshotService{
					Key: key(rng.Intn(30)), Provenance: core.PassiveOnly,
					PassiveAt: base.Add(time.Duration(rng.Intn(60)) * time.Minute),
					Flows:     1 + rng.Intn(50), Clients: 1 + rng.Intn(5),
				})
			}
			if err := agg.Apply(&Frame{V: WireVersion, Type: FrameSnapshot, Site: site,
				Seq: seq[site], Snapshot: &Snapshot{Services: svcs}}); err != nil {
				t.Fatal(err)
			}
		default: // retraction far in the future: clears that site's evidence
			if err := agg.Apply(&Frame{V: WireVersion, Type: FrameSeal, Site: site,
				Seq: seq[site], Snapshot: &Snapshot{Retractions: []Retraction{{
					Key: key(rng.Intn(30)), Prov: core.PassiveOnly,
					At: base.Add(24 * time.Hour),
				}}}}); err != nil {
				t.Fatal(err)
			}
		}

		want := agg.Services()
		got := queryAll(t, agg)
		if len(got) != len(want) {
			t.Fatalf("round %d: index has %d services, roll-up %d", round, len(got), len(want))
		}
		for i := range got {
			ctx := fmt.Sprintf("round %d, hit %d (%s)", round, i, want[i].Key)
			if got[i].Key != want[i].Key {
				t.Fatalf("%s: index key %s out of order", ctx, got[i].Key)
			}
			if !got[i].First.Equal(want[i].FirstAt) {
				t.Errorf("%s: First = %v, want %v", ctx, got[i].First, want[i].FirstAt)
			}
			var flows int
			for _, sr := range want[i].Sites {
				flows += sr.Flows
			}
			if got[i].Flows != flows {
				t.Errorf("%s: Flows = %d, want summed %d", ctx, got[i].Flows, flows)
			}
		}
	}
	if agg.View().Gen() == 0 {
		t.Fatal("mutations never advanced the generation")
	}

	// A second aggregator bootstraps both sites into an empty index, so its
	// first flush builds the epoch bottom up. Every query shape, paged,
	// must answer as a brute filter over the docs of its roll-up does.
	boot := NewAggregator()
	for i, site := range sites {
		var svcs []SnapshotService
		for j := i; j < 30; j += 1 + rng.Intn(2) {
			s := SnapshotService{Key: key(j), Flows: 1 + rng.Intn(50), Clients: 1 + rng.Intn(5)}
			passive, active := base.Add(time.Duration(rng.Intn(90))*time.Minute), base.Add(time.Duration(rng.Intn(90))*time.Minute)
			switch s.Provenance = core.Provenance(rng.Intn(4)); s.Provenance {
			case core.PassiveOnly:
				s.PassiveAt = passive
			case core.ActiveOnly:
				s.ActiveAt, s.Flows, s.Clients = active, 0, 0
			default:
				s.PassiveAt, s.ActiveAt = passive, active
			}
			svcs = append(svcs, s)
		}
		if err := boot.Apply(&Frame{V: WireVersion, Type: FrameSnapshot, Site: site,
			Seq: 1, Snapshot: &Snapshot{Services: svcs}}); err != nil {
			t.Fatal(err)
		}
	}
	if boot.qcat.Len() != 0 {
		t.Fatal("the bootstrap flushed before both sites were in")
	}
	ep := boot.QueryEpoch()
	var docs []query.Doc
	for _, g := range boot.Services() {
		if d, ok := ep.Doc(g.Key); ok {
			docs = append(docs, d)
		}
	}
	if len(docs) == 0 || ep.Len() != len(docs) {
		t.Fatalf("bootstrap indexed %d services, its roll-up has %d", ep.Len(), len(docs))
	}
	for _, q := range []query.Query{
		{},
		{Port: 81},
		{Category: query.CatWeb},
		{Prefix: netaddr.MustParsePrefix("128.125.1.0/24")},
		{Prefix: netaddr.MustParsePrefix("128.125.1.4/30"), Port: 82},
		{Provenance: core.PassiveOnly, HasProvenance: true},
		{Provenance: core.ActiveOnly, HasProvenance: true},
		{Provenance: core.ActiveFirst, HasProvenance: true},
		{MinFreshness: base.Add(45 * time.Minute)},
	} {
		var want, got []query.Doc
		for _, d := range docs {
			if bruteMatch(q, d) {
				want = append(want, d)
			}
		}
		for q.Limit = 4; ; {
			res, err := ep.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, res.Hits...)
			if res.NextPageToken == "" {
				break
			}
			q.PageToken = res.NextPageToken
		}
		if !slices.Equal(got, want) {
			t.Errorf("bootstrap epoch, %+v: %d hits, the brute filter %d", q, len(got), len(want))
		}
	}
}

// bruteMatch is the query predicate set written out apart from the query
// package's own.
func bruteMatch(q query.Query, d query.Doc) bool {
	k := d.Key
	return (q.Port == 0 || k.Port == q.Port) && (q.Proto == 0 || k.Proto == q.Proto) &&
		(q.Category == query.CatAny || query.CategoryOf(k) == q.Category) &&
		(q.Prefix.Bits() == 0 || q.Prefix.Contains(k.Addr)) &&
		(!q.HasProvenance || d.Prov == q.Provenance) &&
		(q.MinFreshness.IsZero() || !d.Last.Before(q.MinFreshness))
}

// Filtered aggregator queries must answer from the same merged state as
// the full scan, and pagination must compose to the one-shot answer.
func TestAggregatorQueryFiltersAndPaginates(t *testing.T) {
	base := time.Date(2006, 12, 16, 10, 0, 0, 0, time.UTC)
	agg := NewAggregator()
	var svcs []SnapshotService
	for i := 0; i < 40; i++ {
		svcs = append(svcs, SnapshotService{
			Key:        testKey(0x807D0200+uint32(i), 6, uint16(22+(i%2)*58)), // ports 22 / 80
			Provenance: core.PassiveOnly,
			PassiveAt:  base.Add(time.Duration(i) * time.Minute),
			Flows:      1, Clients: 1,
		})
	}
	if err := agg.Apply(&Frame{V: WireVersion, Type: FrameSnapshot, Site: "east", Seq: 1,
		Snapshot: &Snapshot{Services: svcs}}); err != nil {
		t.Fatal(err)
	}

	res, err := agg.Query(query.Query{Port: 80, Limit: query.MaxLimit})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != 20 {
		t.Fatalf("port query returned %d hits, want 20", len(res.Hits))
	}
	for _, d := range res.Hits {
		if d.Key.Port != 80 || d.Key.Proto != packet.ProtoTCP {
			t.Fatalf("port query leaked %s", d.Key)
		}
	}

	var paged []query.Doc
	q := query.Query{Port: 80, Limit: 7}
	for {
		r, err := agg.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		paged = append(paged, r.Hits...)
		if r.NextPageToken == "" {
			break
		}
		q.PageToken = r.NextPageToken
	}
	if len(paged) != len(res.Hits) {
		t.Fatalf("pagination yielded %d hits, one-shot %d", len(paged), len(res.Hits))
	}
	for i := range paged {
		if paged[i].Key != res.Hits[i].Key {
			t.Fatalf("page hit %d = %s, one-shot %s", i, paged[i].Key, res.Hits[i].Key)
		}
	}
}
