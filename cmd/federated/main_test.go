package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"servdisc/internal/core"
	"servdisc/internal/federate"
	"servdisc/internal/netaddr"
	"servdisc/internal/obs"
	"servdisc/internal/packet"
	"servdisc/internal/query"
)

// newTestServer assembles the aggregator's HTTP surface exactly as run()
// does — registry, frame-latency histograms, daemon series, site mirror —
// over an aggregator fed two sites' worth of frames, so the scrape
// assertions see populated per-site series.
func newTestServer(t *testing.T) (*httptest.Server, []*feedHealth, *federate.Aggregator) {
	t.Helper()
	agg := federate.NewAggregator()
	reg := obs.NewRegistry()
	agg.SetMetrics(&federate.AggregatorMetrics{
		Decode: reg.Histogram("federated_frame_decode_seconds", "Feed frame decode latency."),
		Apply:  reg.Histogram("federated_frame_apply_seconds", "Feed frame merge latency."),
	})

	base := time.Date(2006, 12, 16, 10, 0, 0, 0, time.UTC)
	for i, site := range []federate.SiteID{"east", "west"} {
		key := core.ServiceKey{
			Addr:  netaddr.MustParseV4("128.125.1.1") + netaddr.V4(i),
			Proto: packet.ProtoTCP,
			Port:  80,
		}
		ev := core.Event{
			Kind: core.EventServiceDiscovered,
			// Staggered watermarks make the staleness gauge nonzero for one
			// of the two sites.
			Time:       base.Add(time.Duration(i) * time.Minute),
			Key:        key,
			Provenance: core.PassiveOnly,
		}
		if err := agg.Apply(&federate.Frame{
			V: federate.WireVersion, Type: federate.FrameEvent,
			Site: site, Epoch: 1, Seq: 1, Event: &ev,
		}); err != nil {
			t.Fatal(err)
		}
	}

	health := []*feedHealth{
		newFeedHealth(options{}, agg, "127.0.0.1:9101", reg.Flight()),
		newFeedHealth(options{}, agg, "127.0.0.1:9102", reg.Flight()),
	}
	var stateWrites, stateWriteFails atomic.Int64
	registerDaemonSeries(reg, agg, &stateWrites, &stateWriteFails)
	mirrorSites(reg, agg, health)
	srv := httptest.NewServer(newMux(agg, health, reg))
	t.Cleanup(srv.Close)
	return srv, health, agg
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestMetricsExposition scrapes the aggregator mux and checks the body
// against the strict exposition grammar plus the aggregate, per-site, and
// per-feed series the registry must now serve.
func TestMetricsExposition(t *testing.T) {
	srv, _, _ := newTestServer(t)
	code, body := get(t, srv.URL+"/metrics")
	if code != 200 {
		t.Fatalf("GET /metrics: status %d", code)
	}
	if err := obs.Lint(strings.NewReader(body)); err != nil {
		t.Fatalf("exposition fails strict lint: %v\nbody:\n%s", err, body)
	}
	for _, want := range []string{
		"federated_sites 2",
		"federated_services 2",
		"federated_global_events_published_total ",
		"federated_state_writes_total ",
		"federated_frame_decode_seconds_bucket",
		"federated_frame_apply_seconds_bucket",
		`federated_site_events_total{site="east"} 1`,
		`federated_site_events_total{site="west"} 1`,
		`federated_site_services{site="east"} 1`,
		`federated_site_last_seq{site="west"} 1`,
		// The tentpole gauge: global watermark minus this site's watermark.
		// East's event is one minute older than west's.
		`federated_feed_staleness_seconds{site="east"} 60`,
		`federated_feed_staleness_seconds{site="west"} 0`,
		`federated_feed_connects_total{feed="127.0.0.1:9101"}`,
		`federated_feed_disconnects_total{feed="127.0.0.1:9102"}`,
		// The resilience series: resume-vs-snapshot split, rate-cap
		// stalls, and the backoff-state gauge (2 = the default base, no
		// failures yet).
		`federated_feed_resume_hits_total{feed="127.0.0.1:9101"}`,
		`federated_feed_snapshot_fallbacks_total{feed="127.0.0.1:9102"}`,
		`federated_feed_throttle_stalls_total{feed="127.0.0.1:9101"}`,
		`federated_feed_backoff_seconds{feed="127.0.0.1:9101"} 2`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

// TestHealthzDegraded pins the three-state liveness/usefulness split:
// every feed down is 503 + "degraded", a partial partition (some feeds
// down) is 200 + "partial" with per-feed detail naming the culprits, and
// every feed up is 200 + "ok" — walked in both directions so recovery
// and re-partition transitions are both covered.
func TestHealthzDegraded(t *testing.T) {
	srv, health, _ := newTestServer(t)

	code, body := get(t, srv.URL+"/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("all feeds down: /healthz status %d, want 503", code)
	}
	if !strings.Contains(body, `"status":"degraded"`) {
		t.Errorf("degraded body = %q, want status degraded", body)
	}
	if !strings.Contains(body, `"addr":"127.0.0.1:9101"`) || !strings.Contains(body, `"connected":false`) {
		t.Errorf("degraded body lacks per-feed detail: %q", body)
	}
	if !strings.Contains(body, `"backoff_seconds":`) {
		t.Errorf("degraded body lacks backoff state: %q", body)
	}

	// One of two feeds recovers: useful but partially partitioned.
	health[0].connected.Store(true)
	code, body = get(t, srv.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("one feed up: /healthz status %d, want 200", code)
	}
	if !strings.Contains(body, `"status":"partial"`) {
		t.Errorf("partial body = %q, want status partial", body)
	}
	if !strings.Contains(body, `"connected":true`) || !strings.Contains(body, `"connected":false`) {
		t.Errorf("partial body should name both the live and the dead feed: %q", body)
	}

	// Full recovery.
	health[1].connected.Store(true)
	code, body = get(t, srv.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("all feeds up: /healthz status %d, want 200", code)
	}
	if !strings.Contains(body, `"status":"ok"`) {
		t.Errorf("healthy body = %q, want status ok", body)
	}

	// Re-partition: one feed drops again.
	health[0].connected.Store(false)
	if code, body = get(t, srv.URL+"/healthz"); code != http.StatusOK || !strings.Contains(body, `"status":"partial"`) {
		t.Errorf("re-partition: status %d body %q, want 200 partial", code, body)
	}
}

// TestStalenessGaugeMidResync watches the staleness gauge while a
// lagging site catches up: east starts one minute behind the global
// watermark, then replays events that close the gap — each scrape shows
// the gauge shrinking monotonically to zero without touching west's.
func TestStalenessGaugeMidResync(t *testing.T) {
	srv, _, agg := newTestServer(t)

	_, body := get(t, srv.URL+"/metrics")
	if !strings.Contains(body, `federated_feed_staleness_seconds{site="east"} 60`) {
		t.Fatalf("east not 60s stale before resync:\n%s", body)
	}

	// East replays its backlog in two steps (30s behind, then level with
	// the global watermark) — the mid-resync scrapes must track it.
	base := time.Date(2006, 12, 16, 10, 0, 0, 0, time.UTC)
	step := func(seq uint64, at time.Time) {
		ev := core.Event{
			Kind: core.EventServiceDiscovered, Time: at,
			Key: core.ServiceKey{
				Addr:  netaddr.MustParseV4("128.125.2.2") + netaddr.V4(seq),
				Proto: packet.ProtoTCP, Port: 443,
			},
			Provenance: core.PassiveOnly,
		}
		if err := agg.Apply(&federate.Frame{
			V: federate.WireVersion, Type: federate.FrameEvent,
			Site: "east", Epoch: 1, Seq: seq, Event: &ev,
		}); err != nil {
			t.Fatal(err)
		}
	}

	step(2, base.Add(30*time.Second))
	_, body = get(t, srv.URL+"/metrics")
	if !strings.Contains(body, `federated_feed_staleness_seconds{site="east"} 30`) {
		t.Fatalf("east gauge did not shrink to 30s mid-resync:\n%s", body)
	}

	step(3, base.Add(time.Minute))
	_, body = get(t, srv.URL+"/metrics")
	if !strings.Contains(body, `federated_feed_staleness_seconds{site="east"} 0`) {
		t.Fatalf("east gauge not zero after catching up:\n%s", body)
	}
	if !strings.Contains(body, `federated_feed_staleness_seconds{site="west"} 0`) {
		t.Fatalf("west gauge perturbed by east's resync:\n%s", body)
	}
}

// TestFlightEndpoint keeps /debug/flight mounted on the public mux.
func TestFlightEndpoint(t *testing.T) {
	srv, _, _ := newTestServer(t)
	if code, _ := get(t, srv.URL+"/debug/flight"); code != 200 {
		t.Fatalf("GET /debug/flight: status %d", code)
	}
}

// TestServicesAndQueryThroughMux drives the shared surface through the
// daemon's own source adapter: the dump, a two-page walk and a /query
// answer are the aggregator's, and an unchanged poll is a 304.
func TestServicesAndQueryThroughMux(t *testing.T) {
	srv, _, agg := newTestServer(t)
	resp, err := http.Get(srv.URL + "/services")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	want, _ := json.Marshal(agg.Services())
	etag := fmt.Sprintf("\"agg-%d\"", agg.View().Gen())
	if string(body) != string(want) || resp.Header.Get("ETag") != etag {
		t.Errorf("/services = %s (ETag %s), want %s (ETag %s)", body, resp.Header.Get("ETag"), want, etag)
	}
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/services", nil)
	req.Header.Set("If-None-Match", etag)
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusNotModified {
		t.Errorf("conditional /services = %v, %v; want 304", resp, err)
	}

	svcs := agg.Services()
	row0, _ := json.Marshal(svcs[0])
	row1, _ := json.Marshal(svcs[1])
	if _, got := get(t, srv.URL+"/services?limit=1"); got != fmt.Sprintf(`{"next_page_token":%q,"services":[%s]}`+"\n", svcs[0].Key, row0) {
		t.Errorf("first page = %s", got)
	}
	if _, got := get(t, srv.URL+"/services?limit=1&page="+url.QueryEscape(svcs[0].Key.String())); got != fmt.Sprintf(`{"next_page_token":"","services":[%s]}`+"\n", row1) {
		t.Errorf("second page = %s", got)
	}

	res, err := agg.Query(query.Query{Port: 80})
	if err != nil {
		t.Fatal(err)
	}
	wantQ, _ := json.Marshal(res)
	if _, got := get(t, srv.URL+"/query?port=80"); got != string(wantQ)+"\n" || len(res.Hits) != 2 {
		t.Errorf("/query?port=80 = %s, want %s", got, wantQ)
	}
}

// TestServicesETagFollowsCells: a frame that changes only one site's cell
// of a key — a second site reporting it between the first site's earliest
// and newest evidence, so the global query doc stays as it was — still
// changes the /services ETag and body.
func TestServicesETagFollowsCells(t *testing.T) {
	srv, _, agg := newTestServer(t)
	base := time.Date(2006, 12, 16, 10, 0, 0, 0, time.UTC)
	key := core.ServiceKey{Addr: netaddr.MustParseV4("128.125.1.1"), Proto: packet.ProtoTCP, Port: 80}
	apply := func(site federate.SiteID, seq uint64, at time.Time) {
		t.Helper()
		ev := core.Event{Kind: core.EventServiceDiscovered, Time: at, Key: key, Provenance: core.PassiveOnly}
		if err := agg.Apply(&federate.Frame{V: federate.WireVersion, Type: federate.FrameEvent,
			Site: site, Epoch: 1, Seq: seq, Event: &ev}); err != nil {
			t.Fatal(err)
		}
	}
	services := func() (etag, body string) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/services")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.Header.Get("ETag"), string(b)
	}
	doc := func() string {
		_, body := get(t, srv.URL+"/query?key="+url.QueryEscape(key.String()))
		var res query.Result
		if err := json.Unmarshal([]byte(body), &res); err != nil || len(res.Hits) != 1 {
			t.Fatalf("/query for %s = %s (%v)", key, body, err)
		}
		hit, _ := json.Marshal(res.Hits[0])
		return string(hit)
	}

	apply("east", 2, base.Add(10*time.Minute)) // east's newest evidence
	tag0, body0 := services()
	doc0 := doc()
	apply("west", 2, base.Add(5*time.Minute)) // between east's first and newest
	tag1, body1 := services()
	if doc1 := doc(); doc1 != doc0 {
		t.Fatalf("global doc moved: %s → %s; the frame should change one cell only", doc0, doc1)
	}
	if tag1 == tag0 || body1 == body0 {
		t.Errorf("west's cell changed but /services did not: ETag %s → %s", tag0, tag1)
	}
	if !strings.Contains(body1, `"site":"west","prov":"passive-only","passive_at":"2006-12-16T10:05:00Z"`) {
		t.Errorf("/services lacks west's cell: %s", body1)
	}
}

// TestTombstoneGCWithinOneTick: -tombstone-gc checks on a fixed wall tick
// shorter than its horizon, not once per horizon. A tombstone 100 h behind
// the newest watermark, past a 72 h horizon, goes at the first tick; an
// aggregator restarted more often than every 72 h used to keep it forever.
func TestTombstoneGCWithinOneTick(t *testing.T) {
	const horizon = 72 * time.Hour
	if tombGCTick >= horizon {
		t.Fatalf("tombstone GC tick %s is not shorter than the %s horizon", tombGCTick, horizon)
	}
	base := time.Date(2006, 12, 16, 10, 0, 0, 0, time.UTC)
	live := core.ServiceKey{Addr: netaddr.MustParseV4("128.125.1.1"), Proto: packet.ProtoTCP, Port: 80}
	gone := core.ServiceKey{Addr: netaddr.MustParseV4("128.125.1.2"), Proto: packet.ProtoTCP, Port: 80}
	agg := federate.NewAggregator()
	if err := agg.Apply(&federate.Frame{V: federate.WireVersion, Type: federate.FrameSnapshot, Site: "east", Seq: 1,
		Snapshot: &federate.Snapshot{
			Services:    []federate.SnapshotService{{Key: live, Provenance: core.PassiveOnly, PassiveAt: base.Add(100 * time.Hour)}},
			Retractions: []federate.Retraction{{Key: gone, At: base, Prov: core.PassiveOnly}},
		}}); err != nil {
		t.Fatal(err)
	}
	cells := func() int {
		n := 0
		for _, svc := range agg.ExportState().Services {
			n += len(svc.Sites)
		}
		return n
	}
	if n := cells(); n != 2 {
		t.Fatalf("%d cells before the tick, want the live one and the tombstone", n)
	}
	agg.CollapseTombstones(horizon) // what run does at each tick
	if n := cells(); n != 1 {
		t.Fatalf("%d cells after one tick, want the tombstone collected", n)
	}
}

// TestGlobalLogOverload: the global event log's answer to a reader that
// stops reading is drop and count. With its subscription stalled, applying
// 10 000 new services does not block, the 1 808 events past the buffer are
// counted on the subscription and on the aggregator's stream, and the
// buffer is the memory ceiling: cap × the event's size, gated at today's
// 224-byte event.
func TestGlobalLogOverload(t *testing.T) {
	const services, ceiling = 10000, 8192 * 224
	agg := federate.NewAggregator()
	sub := agg.Subscribe(globalLogBuffer)
	defer sub.Cancel()
	base := time.Date(2006, 12, 16, 10, 0, 0, 0, time.UTC)
	done := make(chan error, 1)
	go func() {
		for i := range services {
			ev := core.Event{Kind: core.EventServiceDiscovered, Time: base, Provenance: core.PassiveOnly,
				Key: core.ServiceKey{Addr: netaddr.MustParseV4("128.125.0.0") + netaddr.V4(i), Proto: packet.ProtoTCP, Port: 80}}
			f := federate.Frame{V: federate.WireVersion, Type: federate.FrameEvent, Site: "east", Epoch: 1, Seq: uint64(i + 1), Event: &ev}
			if err := agg.Apply(&f); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Apply blocked behind a stalled log subscriber")
	}
	if got, want := sub.Dropped(), services-globalLogBuffer; got != want {
		t.Errorf("the subscription dropped %d events, want %d", got, want)
	}
	if got, want := agg.EventCounters().Dropped(), services-globalLogBuffer; got != want {
		t.Errorf("the aggregator's stream counts %d drops, want %d", got, want)
	}
	held := cap(sub.Events()) * int(unsafe.Sizeof(federate.GlobalEvent{}))
	if held > ceiling {
		t.Errorf("the stalled log holds up to %d bytes, over the %d-byte ceiling", held, ceiling)
	}
	t.Logf("a stalled log holds up to %d bytes", held)
}
