package httpapi_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"testing"
	"time"

	"servdisc"
	"servdisc/internal/core"
	"servdisc/internal/federate"
	"servdisc/internal/httpapi"
	"servdisc/internal/netaddr"
	"servdisc/internal/obs"
	"servdisc/internal/packet"
	"servdisc/internal/query"
)

var (
	tRef   = time.Date(2006, 9, 19, 10, 0, 0, 0, time.UTC)
	campus = netaddr.MustParsePrefix("128.125.0.0/16")
)

// testKey is the i-th service of the fixture: distinct addresses across a
// few ports, so canonical key order is not insertion order.
func testKey(i int) core.ServiceKey {
	return core.ServiceKey{
		Addr:  campus.Base() + netaddr.V4(1000-37*i),
		Proto: packet.ProtoTCP,
		Port:  []uint16{80, 443, 22}[i%3],
	}
}

// fixture is one daemon shape behind the surface: a Source, a way to grow
// its state by one service, and the direct query path the HTTP answers
// must equal.
type fixture struct {
	src   httpapi.Source
	dumps *int // Dump() calls, i.e. full-body marshals
	add   func(i int)
	query func(q query.Query) (query.Result, error)
}

// passivedShaped serves a servdisc.Pipeline's latest snapshot the way
// cmd/passived does: dump busiest-first, ETag per published snapshot.
type passivedShaped struct {
	pl    *servdisc.Pipeline
	inv   *servdisc.Inventory
	gen   int
	dumps int
}

type passivedView struct {
	s   *passivedShaped
	inv *servdisc.Inventory
	gen int
}

func (s *passivedShaped) View() httpapi.View { return passivedView{s, s.inv, s.gen} }
func (s *passivedShaped) Query(q query.Query) (query.Result, error) {
	return s.pl.Query(q)
}
func (v passivedView) ETag() string { return fmt.Sprintf("\"inv-%d\"", v.gen) }
func (v passivedView) Walk(after *core.ServiceKey, f func(core.ServiceKey, any) bool) {
	v.inv.EachServiceAfter(after, func(k core.ServiceKey, rec *core.PassiveRecord, _ core.Provenance, _, _ time.Time) bool {
		return f(k, map[string]any{"service": k.String(), "flows": rec.Flows})
	})
}
func (v passivedView) Dump() any {
	v.s.dumps++
	_, rows := walkAll(v)
	slices.Reverse(rows) // any order but the canonical one
	return rows
}

func newPassivedShaped(t *testing.T, n int) fixture {
	pl, err := servdisc.NewPipeline(servdisc.Config{Campus: campus.String(), Shards: 2, QueryIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pl.Close)
	s := &passivedShaped{pl: pl}
	bld := packet.NewBuilder(0)
	add := func(i int) {
		k := testKey(i)
		pl.HandleBatch([]packet.Packet{*bld.SynAck(tRef.Add(time.Duration(i)*time.Second),
			packet.Endpoint{Addr: k.Addr, Port: k.Port},
			packet.Endpoint{Addr: netaddr.MustParseV4("64.9.0.1"), Port: 40000}, 1, 1)})
		s.inv, s.gen = pl.Snapshot(), s.gen+1
	}
	for i := 0; i < n; i++ {
		add(i)
	}
	return fixture{src: s, dumps: &s.dumps, add: add, query: pl.Query}
}

// aggregatorShaped serves a federate.Aggregator the way cmd/federated
// does: dump in canonical order, ETag from the mutation generation.
type aggregatorShaped struct {
	agg   *federate.Aggregator
	dumps int
}

type aggregatorView struct {
	s    *aggregatorShaped
	gen  uint64
	svcs []federate.GlobalService
}

func (s *aggregatorShaped) View() httpapi.View {
	return aggregatorView{s, s.agg.Gen(), s.agg.Services()}
}
func (s *aggregatorShaped) Query(q query.Query) (query.Result, error) {
	return s.agg.Query(q)
}
func (v aggregatorView) ETag() string { return fmt.Sprintf("\"agg-%d\"", v.gen) }
func (v aggregatorView) Walk(after *core.ServiceKey, f func(core.ServiceKey, any) bool) {
	for _, s := range v.svcs {
		if (after == nil || after.Before(s.Key)) && !f(s.Key, s) {
			return
		}
	}
}
func (v aggregatorView) Dump() any {
	v.s.dumps++
	return v.svcs
}

func newAggregatorShaped(t *testing.T, n int) fixture {
	s := &aggregatorShaped{agg: federate.NewAggregator()}
	add := func(i int) {
		ev := core.Event{Kind: core.EventServiceDiscovered, Time: tRef.Add(time.Duration(i) * time.Second),
			Key: testKey(i), Provenance: core.PassiveOnly}
		site := federate.SiteID([]string{"east", "west"}[i%2])
		err := s.agg.Apply(&federate.Frame{V: federate.WireVersion, Type: federate.FrameEvent,
			Site: site, Epoch: 1, Seq: uint64(i + 1), Event: &ev})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		add(i)
	}
	return fixture{src: s, dumps: &s.dumps, add: add, query: s.agg.Query}
}

// walkAll lists a view's services whole, in its Walk order.
func walkAll(v httpapi.View) (keys []core.ServiceKey, rows []any) {
	v.Walk(nil, func(k core.ServiceKey, row any) bool {
		keys, rows = append(keys, k), append(rows, row)
		return true
	})
	return keys, rows
}

// pageBody is one decoded paginated /services response.
type pageBody struct {
	Services []json.RawMessage `json:"services"`
	Next     string            `json:"next_page_token"`
}

func getPage(t *testing.T, url string) pageBody {
	t.Helper()
	_, body := get(t, url)
	var p pageBody
	if err := json.Unmarshal([]byte(body), &p); err != nil {
		t.Fatalf("GET %s: %v in %s", url, err, body)
	}
	return p
}

func get(t *testing.T, url string, hdr ...string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

// TestSharedSurface runs the one HTTP contract over both daemon shapes.
func TestSharedSurface(t *testing.T) {
	const services = 7
	for name, build := range map[string]func(*testing.T, int) fixture{
		"passived":  newPassivedShaped,
		"federated": newAggregatorShaped,
	} {
		t.Run(name, func(t *testing.T) {
			fx := build(t, services)
			reg := obs.NewRegistry()
			srv := httptest.NewServer(httpapi.NewMux(fx.src, reg, reg.Handler()))
			defer srv.Close()

			t.Run("full dump is cached behind its ETag", func(t *testing.T) {
				resp, body := get(t, srv.URL+"/services")
				etag := resp.Header.Get("ETag")
				if resp.StatusCode != 200 || etag == "" || resp.Header.Get("Content-Type") != "application/json" {
					t.Fatalf("GET /services = %d, ETag %q, Content-Type %q", resp.StatusCode, etag, resp.Header.Get("Content-Type"))
				}
				want, _ := json.Marshal(fx.src.View().Dump())
				*fx.dumps = 0
				if body != string(want) {
					t.Fatalf("body is not the view's dump:\n got %s\nwant %s", body, want)
				}
				if resp, again := get(t, srv.URL+"/services"); again != body || resp.Header.Get("ETag") != etag {
					t.Error("unchanged state served a different body or ETag")
				}
				resp, empty := get(t, srv.URL+"/services", "If-None-Match", etag)
				if resp.StatusCode != http.StatusNotModified || empty != "" || resp.Header.Get("ETag") != etag {
					t.Errorf("conditional GET = %d with %d body bytes, ETag %q", resp.StatusCode, len(empty), resp.Header.Get("ETag"))
				}
				if *fx.dumps != 0 {
					t.Errorf("unchanged polls marshalled the dump %d more times", *fx.dumps)
				}

				fx.add(services) // state change
				resp, changed := get(t, srv.URL+"/services", "If-None-Match", etag)
				if resp.StatusCode != 200 || resp.Header.Get("ETag") == etag || changed == body {
					t.Errorf("after a change: %d, ETag %q (was %q), body changed=%v",
						resp.StatusCode, resp.Header.Get("ETag"), etag, changed != body)
				}
				if !strings.Contains(changed, testKey(services).Addr.String()) {
					t.Error("new body lacks the new service")
				}
			})

			t.Run("pages walk every key once in canonical order", func(t *testing.T) {
				keys, rows := walkAll(fx.src.View())
				n := len(keys)
				for i := 1; i < n; i++ {
					if !keys[i-1].Before(keys[i]) {
						t.Fatalf("fixture keys not canonical at %d", i)
					}
				}
				// n/2 divides the fixture's 8 services and n-1 does not: a
				// walk that ends with exactly limit rows left, and one that
				// ends short. n and n+1 fit everything in one page.
				for _, limit := range []int{1, 2, n / 2, n - 1, n, n + 1} {
					served, pages, token := 0, 0, ""
					for {
						u := fmt.Sprintf("%s/services?limit=%d", srv.URL, limit)
						if token != "" {
							u += "&page=" + url.QueryEscape(token)
						}
						resp, body := get(t, u)
						if resp.StatusCode != 200 || resp.Header.Get("Content-Type") != "application/json" || resp.Header.Get("ETag") != "" {
							t.Fatalf("limit=%d page %q: %d %q ETag %q", limit, token, resp.StatusCode,
								resp.Header.Get("Content-Type"), resp.Header.Get("ETag"))
						}
						var page struct {
							Services []json.RawMessage `json:"services"`
							Next     string            `json:"next_page_token"`
						}
						if err := json.Unmarshal([]byte(body), &page); err != nil {
							t.Fatalf("limit=%d: %v in %s", limit, err, body)
						}
						if page.Services == nil {
							t.Fatalf("limit=%d: services is null, want an array: %s", limit, body)
						}
						if served+len(page.Services) > n {
							t.Fatalf("limit=%d: served %d rows of %d", limit, served+len(page.Services), n)
						}
						// Row i of the walk is service i of the view: nothing
						// skipped, nothing repeated, canonical order.
						for _, raw := range page.Services {
							if want, _ := json.Marshal(rows[served]); string(raw) != string(want) {
								t.Fatalf("limit=%d: row %d is %s, want %s", limit, served, raw, want)
							}
							served++
						}
						pages++
						if page.Next == "" {
							break
						}
						if len(page.Services) != limit || page.Next != keys[served-1].String() {
							t.Fatalf("limit=%d: %d rows then token %q; want a full page and its last key",
								limit, len(page.Services), page.Next)
						}
						token = page.Next
					}
					if served != n {
						t.Errorf("limit=%d walked %d of %d services", limit, served, n)
					}
					if want := (n + limit - 1) / limit; pages != want {
						t.Errorf("limit=%d took %d pages, want %d (no trailing empty page)", limit, pages, want)
					}
				}
				// A token need not be a key that is still there.
				all := getPage(t, srv.URL+"/services?page="+url.QueryEscape("0.0.0.1:1/tcp"))
				if len(all.Services) != n || all.Next != "" {
					t.Errorf("page-only request from before the first key: %d rows, next %q", len(all.Services), all.Next)
				}

				// Following the token one row at a time, over HTTP alone,
				// reproduces that unpaged walk row for row.
				var chain []json.RawMessage
				for p := getPage(t, srv.URL+"/services?limit=1"); ; {
					chain = append(chain, p.Services...)
					if p.Next == "" {
						break
					}
					p = getPage(t, srv.URL+"/services?limit=1&page="+url.QueryEscape(p.Next))
				}
				if !slices.EqualFunc(chain, all.Services, func(a, b json.RawMessage) bool { return string(a) == string(b) }) {
					t.Errorf("limit=1 token chain served\n%s\nwant the unpaged walk\n%s", chain, all.Services)
				}
			})

			t.Run("bad parameters are 400s with the current text", func(t *testing.T) {
				for path, msg := range map[string]string{
					"/services?limit=0":   `bad limit "0"`,
					"/services?limit=x":   `bad limit "x"`,
					"/services?limit=-3":  `bad limit "-3"`,
					"/services?page=nope": `bad page token "nope"`,
					"/query?port=0":       `bad port "0"`,
					"/query?port=http":    `bad port "http"`,
				} {
					resp, body := get(t, srv.URL+path)
					if resp.StatusCode != http.StatusBadRequest || body != msg+"\n" {
						t.Errorf("GET %s = %d %q, want 400 %q", path, resp.StatusCode, body, msg)
					}
				}
			})

			t.Run("query answers equal the direct call", func(t *testing.T) {
				for path, q := range map[string]query.Query{
					"/query?port=80":                   {Port: 80},
					"/query?port=443&limit=1":          {Port: 443, Limit: 1},
					"/query?prefix=128.125.3.0/24":     {Prefix: netaddr.MustParsePrefix("128.125.3.0/24")},
					"/query?prov=passive-only&limit=3": {Provenance: core.PassiveOnly, HasProvenance: true, Limit: 3},
				} {
					want, err := fx.query(q)
					if err != nil {
						t.Fatal(err)
					}
					wantBody, _ := json.Marshal(want)
					resp, body := get(t, srv.URL+path)
					if resp.StatusCode != 200 || resp.Header.Get("Content-Type") != "application/json" {
						t.Errorf("GET %s = %d %q", path, resp.StatusCode, resp.Header.Get("Content-Type"))
					}
					if strings.TrimSpace(body) != string(wantBody) {
						t.Errorf("GET %s:\n got %s\nwant %s", path, body, wantBody)
					}
				}
				if want, _ := fx.query(query.Query{Port: 80}); len(want.Hits) == 0 {
					t.Error("fixture has no port-80 hits: the comparison is vacuous")
				}
			})

			t.Run("metrics and flight are mounted", func(t *testing.T) {
				for _, path := range []string{"/metrics", "/debug/flight"} {
					if resp, _ := get(t, srv.URL+path); resp.StatusCode != 200 {
						t.Errorf("GET %s = %d", path, resp.StatusCode)
					}
				}
			})
		})
	}
}
