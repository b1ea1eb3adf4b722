package obs

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a counter")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	if again := r.Counter("test_total", "a counter"); again != c {
		t.Fatal("re-registering the same counter returned a different instance")
	}
	g := r.Gauge("test_gauge", "a gauge")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestNilReceiversAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var rec *Recorder
	c.Add(1)
	c.Inc()
	g.Set(1)
	h.Observe(time.Second)
	rec.Record(TraceSnapshotSealed, "", 1, 2)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || rec.Events() != nil {
		t.Fatal("nil receivers mutated state")
	}
}

func TestRegistrySchemaConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "x")
	for _, fn := range []func(){
		func() { r.Gauge("x_total", "x") },
		func() { r.CounterVec("x_total", "x", "site") },
		func() { r.Counter("0bad", "x") },
		func() { r.CounterVec("y_total", "y", "le") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("schema violation did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestVecSeries(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("site_events_total", "events per site", "site")
	v.With("campus-a").Add(3)
	v.With("campus-b").Add(5)
	if v.With("campus-a") != v.With("campus-a") {
		t.Fatal("With not stable")
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`site_events_total{site="campus-a"} 3`,
		`site_events_total{site="campus-b"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestBucketIdxMapping(t *testing.T) {
	cases := []struct {
		ns   uint64
		want int
	}{
		{0, 0},
		{255, 0},
		{256, 1}, // start of first octave
		{319, 1}, // 256 + 63
		{320, 2}, // second sub-bucket
		{511, 4}, // top of first octave
		{512, 5}, // next octave
		{1 << 37, numBuckets - 5},
		{1<<38 - 1, numBuckets - 2},
		{1 << 38, numBuckets - 1}, // overflow
		{math.MaxUint64, numBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketIdx(c.ns); got != c.want {
			t.Errorf("bucketIdx(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
	// Every representable value maps into range, bounds are monotone,
	// and each value is <= its bucket's upper bound and > the previous
	// bucket's bound.
	prev := uint64(0)
	for i := 0; i < numBuckets-1; i++ {
		b := bucketBoundNanos(i)
		if b <= prev {
			t.Fatalf("bucket bound %d (%d) not above previous (%d)", i, b, prev)
		}
		if got := bucketIdx(b); got != i {
			t.Errorf("upper bound %d maps to bucket %d, want %d (inclusive)", b, got, i)
		}
		if got := bucketIdx(b + 1); got != i+1 {
			t.Errorf("bound+1 %d maps to bucket %d, want %d", b+1, got, i+1)
		}
		prev = b
	}
	_ = bits.Len64 // anchor the import used by the implementation
}

func TestHistogramObserveAndSnapshot(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency")
	durations := []time.Duration{
		100 * time.Nanosecond,
		time.Microsecond,
		time.Millisecond,
		time.Second,
		5 * time.Minute, // overflow bucket
		-time.Second,    // clamped to 0
	}
	for _, d := range durations {
		h.Observe(d)
	}
	if got := h.Count(); got != uint64(len(durations)) {
		t.Fatalf("count = %d, want %d", got, len(durations))
	}
	wantSum := 100*time.Nanosecond + time.Microsecond + time.Millisecond + time.Second + 5*time.Minute
	if got := h.Sum(); got != wantSum {
		t.Fatalf("sum = %v, want %v", got, wantSum)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `lat_seconds_bucket{le="+Inf"} 6`) {
		t.Errorf("missing +Inf bucket:\n%s", out)
	}
	if !strings.Contains(out, "lat_seconds_count 6") {
		t.Errorf("missing _count:\n%s", out)
	}
	if err := Lint(strings.NewReader(out)); err != nil {
		t.Errorf("exposition fails lint: %v\n%s", err, out)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := newHistogram()
	const goroutines, per = 8, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != goroutines*per {
		t.Fatalf("count = %d, want %d", got, goroutines*per)
	}
}

func TestScrapeHooksAndFuncs(t *testing.T) {
	r := NewRegistry()
	var src uint64
	r.CounterFunc("mirrored_total", "mirror", func() float64 { return float64(src) })
	hooked := r.Gauge("hooked", "set by hook")
	r.OnScrape(func() { hooked.Set(7) })
	src = 99
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "mirrored_total 99") {
		t.Errorf("CounterFunc not read at scrape:\n%s", out)
	}
	if !strings.Contains(out, "hooked 7") {
		t.Errorf("OnScrape hook not run:\n%s", out)
	}
}

// TestScrapeHookMintsSeries: a scrape hook may mint a labelled series
// (federated's site mirror does, for a site seen first), the series shows
// in the same exposition, and concurrent scrapes running the hook at once
// all finish. A hook run under the registry lock deadlocks on the mint,
// hence the timeout.
func TestScrapeHookMintsSeries(t *testing.T) {
	r := NewRegistry()
	sites := r.GaugeVec("site_services", "Services per site.", "site")
	var minted atomic.Int64
	r.OnScrape(func() {
		n := minted.Add(1)
		sites.With(fmt.Sprintf("s%d", n)).Set(float64(n))
	})
	scrapes := func(n int) []string {
		done := make(chan string, n)
		for range n {
			go func() {
				var sb strings.Builder
				_ = r.WritePrometheus(&sb)
				done <- sb.String()
			}()
		}
		outs := make([]string, 0, n)
		timeout := time.After(5 * time.Second)
		for range n {
			select {
			case out := <-done:
				outs = append(outs, out)
			case <-timeout:
				t.Fatalf("%d of %d scrapes finished within 5s", len(outs), n)
			}
		}
		return outs
	}
	if out := scrapes(1)[0]; !strings.Contains(out, `site_services{site="s1"} 1`+"\n") {
		t.Fatalf("series minted by the hook missing from its exposition:\n%s", out)
	}
	scrapes(2)
	final := scrapes(1)[0]
	for i := 1; i <= 4; i++ {
		if want := fmt.Sprintf(`site_services{site="s%d"} %d`+"\n", i, i); !strings.Contains(final, want) {
			t.Errorf("missing %q:\n%s", want, final)
		}
	}
}

func TestEscapeLabelValue(t *testing.T) {
	cases := map[string]string{
		"plain":         "plain",
		`back\slash`:    `back\\slash`,
		`qu"ote`:        `qu\"ote`,
		"new\nline":     `new\nline`,
		`all\"三` + "\n": `all\\\"三\n`,
	}
	for in, want := range cases {
		if got := EscapeLabelValue(in); got != want {
			t.Errorf("EscapeLabelValue(%q) = %q, want %q", in, got, want)
		}
	}
}

// The hot-path operations must not allocate: they run per batch, per
// probe, per frame inside paths whose allocation budgets are CI-gated.
func TestZeroAllocHotPath(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hot_total", "hot counter")
	g := r.Gauge("hot_gauge", "hot gauge")
	h := r.Histogram("hot_seconds", "hot histogram")
	rec := r.Flight()

	if n := testing.AllocsPerRun(1000, func() { c.Add(1) }); n != 0 {
		t.Errorf("Counter.Add allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Set(1.5) }); n != 0 {
		t.Errorf("Gauge.Set allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(time.Microsecond) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %v/op, want 0", n)
	}
	tag := "feed-1"
	if n := testing.AllocsPerRun(1000, func() { rec.Record(TraceFeedConnected, tag, 1, 0) }); n != 0 {
		t.Errorf("Recorder.Record allocates %v/op, want 0", n)
	}
}

func TestFlightRecorder(t *testing.T) {
	rec := NewRecorder(4)
	for i := int64(0); i < 100; i++ {
		rec.Record(TraceBatchDispatched, "", i, i*2)
	}
	rec.Record(TraceFeedConnected, "site-a:9444", 3, 0)
	events := rec.Events()
	if len(events) == 0 {
		t.Fatal("no events recorded")
	}
	total := 4 * len(rec.stripes)
	if len(events) > total {
		t.Fatalf("ring leaked: %d events > capacity %d", len(events), total)
	}
	for i := 1; i < len(events); i++ {
		if events[i].At.Before(events[i-1].At) {
			t.Fatal("events not time-sorted")
		}
	}
	var sb strings.Builder
	if err := rec.Dump(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "feed-connected tag=site-a:9444") {
		t.Errorf("dump missing tagged event:\n%s", sb.String())
	}
}

func TestWritePrometheusDeterministic(t *testing.T) {
	r := NewRegistry()
	v := r.GaugeVec("z_metric", "z", "shard")
	v.With("9").Set(9)
	v.With("1").Set(1)
	r.Counter("a_total", "a").Inc()
	var first strings.Builder
	if err := r.WritePrometheus(&first); err != nil {
		t.Fatal(err)
	}
	var second strings.Builder
	if err := r.WritePrometheus(&second); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Fatal("exposition not deterministic")
	}
	if !strings.Contains(first.String(), "# TYPE a_total counter") {
		t.Errorf("missing TYPE line:\n%s", first.String())
	}
	ai := strings.Index(first.String(), "a_total")
	zi := strings.Index(first.String(), "z_metric")
	if ai < 0 || zi < 0 || ai > zi {
		t.Errorf("families not name-sorted:\n%s", first.String())
	}
}
