package query

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"servdisc/internal/core"
	"servdisc/internal/netaddr"
	"servdisc/internal/packet"
)

// TestPackedDocRoundTrip: a doc survives the tree form exactly — every
// provenance class, zero and non-zero times, flow counts up to 2^62 —
// except that times come back in UTC and a client count past 2^32
// saturates instead of wrapping.
func TestPackedDocRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	base := time.Date(2006, 9, 19, 10, 0, 0, 0, time.UTC)
	stamp := func() time.Time {
		if rng.Intn(4) == 0 {
			return time.Time{}
		}
		return base.Add(time.Duration(rng.Int63n(int64(400 * 24 * time.Hour))))
	}
	for i := 0; i < 20_000; i++ {
		d := Doc{
			Key:     tkey(rng.Intn(1 << 20)),
			Prov:    core.Provenance(i % 4),
			First:   stamp(),
			Last:    stamp(),
			Flows:   int(rng.Int63n(1<<62 + 1)),
			Clients: int(rng.Int63n(math.MaxUint32 + 1)),
		}
		if got := pack(d).doc(); !reflect.DeepEqual(got, d) {
			t.Fatalf("pack(%+v).doc() = %+v", d, got)
		}
	}

	d := Doc{Key: tkey(1), Clients: math.MaxUint32 + 7}
	if got := pack(d).doc().Clients; got != math.MaxUint32 {
		t.Errorf("clients %d packs to %d, want saturation at %d", d.Clients, got, uint32(math.MaxUint32))
	}
	there := base.In(time.FixedZone("UTC-8", -8*3600))
	if got := pack(Doc{First: there}).doc().First; !got.Equal(base) || got.Location() != time.UTC {
		t.Errorf("%v packs to %v, want the same instant in UTC", there, got)
	}
	if pack(Doc{Last: time.Unix(0, 0)}) == pack(Doc{}) {
		t.Error("a doc last seen at the Unix epoch packs like one never seen")
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
		got := e.freshBucket(packTime(c.in))
		if got != c.want {
			t.Errorf("%s: bucket %d, want %d", c.name, got, c.want)
		}
		if got < prev {
			t.Errorf("%s: bucket %d steps back from %d", c.name, got, prev)
		}
		prev = got
		if ns, ok := packTime(c.in); ok == c.in.IsZero() || (c.in.After(lo) && c.in.Before(hi) && !unpackTime(ns, ok).Equal(c.in)) {
			t.Errorf("%s: packs to (%d, %v)", c.name, ns, ok)
		}
	}

	// An index holding such docs answers freshness queries for them.
	cat := NewCatalog(time.Hour)
	cat.Rebuild([]Doc{
		{Key: tkey(0)},
		{Key: tkey(1), Last: lo.Add(-time.Hour)},
		{Key: tkey(2), Last: time.Unix(0, 0)},
		{Key: tkey(3), Last: hi.Add(time.Hour)},
	})
	for since, want := range map[time.Time]int{lo.Add(-2 * time.Hour): 3, time.Unix(0, 0): 2, time.Unix(0, 1): 1} {
		res, err := cat.Epoch().Query(Query{MinFreshness: since})
		if err != nil || len(res.Hits) != want {
			t.Errorf("since %v: %d hits (err %v), want %d", since, len(res.Hits), err, want)
		}
	}
}

// liveHeap reads the heap after two collections, as the repo benchmark
// measures heap_bytes_per_service.
func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestResidentBytesPerDoc is the doc-fed (aggregator) index's memory gate:
// live-heap growth per doc across a Rebuild. The budget is ≈1.1× the 80 B
// measured with 40-byte packed docs and four posting trees of 8-byte keys
// (plus tree spines), each bucket trimmed to its length. Untrimmed buckets
// read 86 B and fail; so do a fifth, /24 posting tree (97 B) and the
// 80-byte time.Time-carrying Doc (137 B).
func TestResidentBytesPerDoc(t *testing.T) {
	const (
		n      = 100_000
		budget = 88
	)
	base := time.Date(2006, 9, 19, 10, 0, 0, 0, time.UTC)
	cat := NewCatalog(time.Hour)
	before := liveHeap()
	func() {
		docs := make([]Doc, n)
		for i := range docs {
			docs[i] = qdoc(i, core.Provenance(i%4), base.Add(time.Duration(i)*time.Second))
		}
		cat.Rebuild(docs)
	}()
	perDoc := (float64(liveHeap()) - float64(before)) / n
	runtime.KeepAlive(cat)
	t.Logf("indexed doc: %.0f B (budget %d)", perDoc, budget)
	if perDoc > budget {
		t.Errorf("an indexed doc holds %.0f B of live heap, budget %d", perDoc, budget)
	}
	if cat.Len() != n {
		t.Fatalf("indexed %d docs, want %d", cat.Len(), n)
	}
}

// TestResidentBytesPerIndexedService is the engine index's memory gate,
// measured as the repo benchmark measures heap_bytes_per_service: live-heap
// growth per service when a catalog indexes a frozen inventory that is
// already resident. An engine epoch resolves docs through the inventory,
// so all it adds is four posting trees of 8-byte keys and their spines:
// 38 B measured, budget ≈1.1× that. A packed doc tree beside the postings
// read 84 B and fails.
func TestResidentBytesPerIndexedService(t *testing.T) {
	const (
		n      = 100_000
		budget = 42
	)
	pfx := netaddr.MustParsePrefix("10.16.0.0/12")
	d := core.NewPassiveDiscoverer(pfx, nil)
	bld := packet.NewBuilder(0)
	client := packet.Endpoint{Addr: netaddr.MustParseV4("64.9.0.1"), Port: 33000}
	t0 := time.Date(2006, 9, 19, 10, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		srv := packet.Endpoint{Addr: pfx.Base() + netaddr.V4(1+i/4), Port: uint16(2000 + i%4)}
		d.HandlePacket(bld.SynAck(t0.Add(time.Duration(i)*time.Second), srv, client, 1, 1))
	}
	inv := core.NewInventory(d)
	if inv.Len() != n {
		t.Fatalf("inventory holds %d services, want %d", inv.Len(), n)
	}

	cat := NewCatalog(time.Hour)
	before := liveHeap()
	cat.RebuildFromInventory(inv)
	perService := (float64(liveHeap()) - float64(before)) / n
	runtime.KeepAlive(cat)
	runtime.KeepAlive(inv)
	runtime.KeepAlive(d)
	t.Logf("indexed service: %.1f B (budget %d)", perService, budget)
	if perService > budget {
		t.Errorf("indexing a service holds %.1f B of live heap, budget %d", perService, budget)
	}
	if cat.Len() != n {
		t.Fatalf("indexed %d services, want %d", cat.Len(), n)
	}
}
