package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"servdisc"
	"servdisc/internal/netaddr"
	"servdisc/internal/obs"
	"servdisc/internal/packet"
)

// newTestServer assembles the daemon's HTTP surface over a small live
// pipeline: a few packets ingested, one checkpoint cut, one query served
// — enough traffic that every instrument has observations when the
// scrape-shape assertions run.
func newTestServer(t *testing.T) (*httptest.Server, *servdisc.Pipeline) {
	t.Helper()
	cfg := servdisc.Config{
		Campus:     "128.125.0.0/16",
		QueryIndex: true,
		Checkpoint: &servdisc.CheckpointOptions{Dir: t.TempDir()},
	}
	pl, err := servdisc.NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pl.Close)

	bld := packet.NewBuilder(0)
	client := packet.Endpoint{Addr: netaddr.MustParseV4("64.9.0.1"), Port: 40000}
	at := time.Date(2006, 9, 19, 10, 0, 0, 0, time.UTC)
	var batch []packet.Packet
	for i := 0; i < 16; i++ {
		server := packet.Endpoint{Addr: netaddr.MustParseV4("128.125.1.1") + netaddr.V4(i), Port: 80}
		batch = append(batch, *bld.SynAck(at.Add(time.Duration(i)*time.Second), server, client, 1, 1))
	}
	pl.HandleBatch(batch)
	if _, err := pl.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}

	var latest atomic.Pointer[servdisc.Inventory]
	latest.Store(pl.Snapshot())
	if _, err := pl.Query(servdisc.Query{Port: 80}); err != nil {
		t.Fatal(err)
	}

	reg := pl.Metrics()
	subs := newSubRegistry(reg)
	sub := pl.Subscribe(16)
	subs.add("test", sub.Dropped)
	registerDaemonSeries(reg, &latest, pl)
	srv := httptest.NewServer(newMux(&latest, pl, subs))
	t.Cleanup(srv.Close)
	return srv, pl
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

// TestMetricsExposition scrapes the live daemon mux and checks the body
// against the strict exposition grammar plus the presence of every series
// family the pre-registry emitter served and the new latency histograms.
func TestMetricsExposition(t *testing.T) {
	srv, _ := newTestServer(t)
	code, body := get(t, srv.URL+"/metrics")
	if code != 200 {
		t.Fatalf("GET /metrics: status %d", code)
	}
	if err := obs.Lint(strings.NewReader(body)); err != nil {
		t.Fatalf("exposition fails strict lint: %v\nbody:\n%s", err, body)
	}
	for _, want := range []string{
		// flow counters and inventory gauges (pre-registry names, kept)
		"servdisc_packets_total ",
		"servdisc_packets_dispatched_total ",
		"servdisc_packets_dropped_total ",
		"servdisc_services ",
		"servdisc_scanners ",
		"servdisc_events_published_total ",
		"servdisc_events_delivered_total ",
		"servdisc_events_dropped_total ",
		"servdisc_query_index_services ",
		"servdisc_checkpoints_total ",
		"servdisc_checkpoint_baselines_total ",
		"servdisc_checkpoint_failures_total ",
		"servdisc_checkpoint_bytes_written_total ",
		"servdisc_checkpoint_chunks_skipped_total ",
		"servdisc_checkpoint_last_bytes ",
		"servdisc_checkpoint_last_duration_seconds ",
		`servdisc_subscriber_dropped_total{subscriber="departed"}`,
		`servdisc_subscriber_dropped_total{subscriber="test"}`,
		// latency histograms from the pipeline's own instrumentation
		"servdisc_ingest_batch_seconds_bucket",
		"servdisc_ingest_dispatch_seconds_bucket",
		"servdisc_snapshot_merge_seconds_bucket",
		"servdisc_checkpoint_write_seconds_bucket",
		`servdisc_query_seconds_bucket{dim="port"`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

// TestFlightEndpoint checks the /debug/flight dump carries the trace
// events the pipeline recorded (a sealed snapshot and a checkpoint cut at
// minimum).
func TestFlightEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	code, body := get(t, srv.URL+"/debug/flight")
	if code != 200 {
		t.Fatalf("GET /debug/flight: status %d", code)
	}
	for _, want := range []string{"snapshot-sealed", "checkpoint-cut"} {
		if !strings.Contains(body, want) {
			t.Errorf("flight dump missing %q event:\n%s", want, body)
		}
	}
}

// TestHealthz keeps the liveness probe answering 200 with the packet
// position.
func TestHealthz(t *testing.T) {
	srv, _ := newTestServer(t)
	code, body := get(t, srv.URL+"/healthz")
	if code != 200 {
		t.Fatalf("GET /healthz: status %d", code)
	}
	if !strings.Contains(body, `"status":"ok"`) {
		t.Errorf("healthz body = %q, want status ok", body)
	}
}

// discover feeds n never-seen services into the (inline) pipeline: n
// discovery events published synchronously, faster than any /events
// handler drains them.
func discover(pl *servdisc.Pipeline, first, n int) {
	bld := packet.NewBuilder(0)
	client := packet.Endpoint{Addr: netaddr.MustParseV4("64.9.0.2"), Port: 40000}
	at := time.Date(2006, 9, 19, 11, 0, 0, 0, time.UTC)
	batch := make([]packet.Packet, 0, n)
	for i := first; i < first+n; i++ {
		server := packet.Endpoint{Addr: netaddr.MustParseV4("128.125.16.0") + netaddr.V4(i), Port: 443}
		batch = append(batch, *bld.SynAck(at, server, client, 1, 1))
	}
	pl.HandleBatch(batch)
}

// subscriberDrops scrapes the servdisc_subscriber_dropped_total family:
// its series count, per-subscriber values, and their sum.
func subscriberDrops(t *testing.T, url string) (series int, by map[string]int, sum int) {
	t.Helper()
	_, body := get(t, url+"/metrics")
	by = make(map[string]int)
	for _, line := range strings.Split(body, "\n") {
		rest, ok := strings.CutPrefix(line, `servdisc_subscriber_dropped_total{subscriber="`)
		if !ok {
			continue
		}
		name, val, _ := strings.Cut(rest, `"} `)
		n, err := strconv.Atoi(val)
		if err != nil {
			t.Fatalf("unparseable sample %q", line)
		}
		series++
		by[name] = n
		sum += n
	}
	return series, by, sum
}

// stuckWriter is an /events client that never reads: its first Write
// reports in and then blocks until released (failing, as a closed
// connection would), so the subscriber behind it fills and overflows
// deterministically.
type stuckWriter struct {
	hdr     http.Header
	arrived chan<- struct{}
	once    sync.Once
	release <-chan struct{}
}

func (w *stuckWriter) Header() http.Header { return w.hdr }
func (w *stuckWriter) WriteHeader(int)     {}
func (w *stuckWriter) Write([]byte) (int, error) {
	w.once.Do(func() { w.arrived <- struct{}{} })
	<-w.release
	return 0, io.ErrClosedPipe
}

// TestEventsConnectionsShareOneSeries opens 50 /events streams that stop
// reading, floods them past their buffers, and closes them. The drop
// family must not grow a series per connection (registry series never
// unregister: a client reconnecting every second would add 86k a day):
// live connections report under "events", ended ones under "departed",
// and the family always sums to the drops the hub counted.
func TestEventsConnectionsShareOneSeries(t *testing.T) {
	srv, pl := newTestServer(t)
	before, _, _ := subscriberDrops(t, srv.URL)

	const streams = 50
	arrived, release := make(chan struct{}, streams), make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &stuckWriter{hdr: make(http.Header), arrived: arrived, release: release}
			srv.Config.Handler.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/events", nil))
		}()
	}
	// A stream shows up at its writer with its first event: trickle
	// discoveries until every connection has subscribed and got one.
	next := 0
	for n := 0; n < streams; {
		select {
		case <-arrived:
			n++
		default:
			discover(pl, next, 1)
			next++
			time.Sleep(time.Millisecond)
		}
	}
	// One event is stuck in each Write and 4096 fit each buffer; this
	// many more cost every stream at least 100 drops.
	discover(pl, next, 4096+101)

	hub := pl.EventCounters().Dropped()
	series, live, sum := subscriberDrops(t, srv.URL)
	if series != before {
		t.Errorf("%d live /events streams grew the family from %d to %d series", streams, before, series)
	}
	if live["events"] < streams*100 || sum != hub {
		t.Errorf("live: events=%d departed=%d test=%d sum %d, hub counted %d drops",
			live["events"], live["departed"], live["test"], sum, hub)
	}

	close(release)
	wg.Wait()
	series, ended, sum := subscriberDrops(t, srv.URL)
	if series != before || ended["events"] != 0 || ended["departed"] != live["events"] || sum != hub {
		t.Errorf("closed: %d series (want %d), events=%d departed=%d (want 0 and %d), sum %d, hub counted %d drops",
			series, before, ended["events"], ended["departed"], live["events"], sum, hub)
	}
}

// TestServicesAndQueryThroughMux drives the shared surface through the
// daemon's own source adapter: the dump is busiest-first rows under the
// inv-N ETag, pages walk the inventory's canonical keys, a new snapshot
// is a new ETag, and /query answers as the pipeline does.
func TestServicesAndQueryThroughMux(t *testing.T) {
	cfg := servdisc.Config{Campus: "128.125.0.0/16", QueryIndex: true}
	pl, err := servdisc.NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pl.Close)
	discover(pl, 0, 3)
	discover(pl, 1, 1) // a second flow makes service 1 the busiest
	var latest atomic.Pointer[servdisc.Inventory]
	latest.Store(pl.Snapshot())
	srv := httptest.NewServer(newMux(&latest, pl, newSubRegistry(pl.Metrics())))
	t.Cleanup(srv.Close)

	inv := latest.Load()
	want, _ := json.Marshal(serviceRows(inv))
	resp, err := http.Get(srv.URL + "/services")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != string(want) || resp.Header.Get("ETag") != `"inv-1"` {
		t.Errorf("/services = %s (ETag %s), want %s (ETag \"inv-1\")", body, resp.Header.Get("ETag"), want)
	}
	if !strings.HasPrefix(string(body), `[{"service":"128.125.16.1:443/tcp"`) {
		t.Errorf("dump is not busiest-first: %s", body)
	}
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/services", nil)
	req.Header.Set("If-None-Match", `"inv-1"`)
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusNotModified {
		t.Errorf("conditional /services = %v, %v; want 304", resp, err)
	}

	keys := inv.Keys()
	row := func(i int) string {
		rec, _ := inv.Record(keys[i])
		b, _ := json.Marshal(newRow(keys[i], rec))
		return string(b)
	}
	if _, got := get(t, srv.URL+"/services?limit=2"); got != fmt.Sprintf(`{"next_page_token":%q,"services":[%s,%s]}`+"\n", keys[1], row(0), row(1)) {
		t.Errorf("first page = %s", got)
	}
	if _, got := get(t, srv.URL+"/services?limit=2&page="+url.QueryEscape(keys[1].String())); got != fmt.Sprintf(`{"next_page_token":"","services":[%s]}`+"\n", row(2)) {
		t.Errorf("second page = %s", got)
	}

	res, err := pl.Query(servdisc.Query{Port: 443})
	if err != nil {
		t.Fatal(err)
	}
	wantQ, _ := json.Marshal(res)
	if _, got := get(t, srv.URL+"/query?port=443"); got != string(wantQ)+"\n" || len(res.Hits) != 3 {
		t.Errorf("/query?port=443 = %s, want %s", got, wantQ)
	}

	discover(pl, 3, 1)
	latest.Store(pl.Snapshot())
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != 200 || resp.Header.Get("ETag") != `"inv-2"` {
		t.Errorf("after a new snapshot: %v, %v; want 200 with ETag \"inv-2\"", resp, err)
	}
}

// TestLogSubscriptionOverload: the daemon's event log subscription, stalled,
// holds its 4 096-event buffer and drops the rest, counted by the
// subscription and by the engine; ingest runs on.
func TestLogSubscriptionOverload(t *testing.T) {
	const services, ceiling = 6000, 4096 * 208
	pl, err := servdisc.NewPipeline(servdisc.Config{Campus: "128.125.0.0/16", Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	sub := pl.Subscribe(logBuffer)
	pl.Run(context.Background())
	bld := packet.NewBuilder(0)
	at := time.Date(2006, 9, 19, 10, 0, 0, 0, time.UTC)
	cli := packet.Endpoint{Addr: netaddr.MustParseV4("64.9.0.1"), Port: 40000}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var batch []packet.Packet
		for i := range services {
			srv := packet.Endpoint{Addr: netaddr.MustParseV4("128.125.0.0") + netaddr.V4(i), Port: 80}
			batch = append(batch, *bld.SynAck(at, srv, cli, 1, 1))
			if len(batch) == 256 || i == services-1 {
				pl.HandleBatch(batch)
				batch = batch[:0]
			}
		}
		pl.Flush()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("ingest blocked behind a stalled log")
	}
	if got, want := sub.Dropped(), services-logBuffer; got != want {
		t.Errorf("the log subscription dropped %d events, want %d", got, want)
	}
	if got, want := pl.EventCounters().Dropped(), services-logBuffer; got != want {
		t.Errorf("the engine counts %d drops, want %d", got, want)
	}
	held := cap(sub.Events()) * int(unsafe.Sizeof(servdisc.Event{}))
	if held > ceiling {
		t.Errorf("a stalled log holds up to %d bytes, over the %d-byte ceiling", held, ceiling)
	}
	t.Logf("a stalled log holds up to %d bytes", held)
}
