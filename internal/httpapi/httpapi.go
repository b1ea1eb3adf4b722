// Package httpapi is the HTTP surface cmd/passived and cmd/federated
// share, written once over a small inventory-source interface: the
// /services dump (encoded once per inventory state, ETag/If-None-Match
// answering unchanged polls with a 304) and its canonical-key-order
// pagination, the typed /query endpoint, the /metrics and /debug/flight
// mounts, the -debug-addr listener, and server start/drain. A daemon's
// main adds the endpoints that really are its own to the mux NewMux
// returns.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"servdisc/internal/core"
	"servdisc/internal/obs"
	"servdisc/internal/query"
)

// Source is the inventory a daemon serves.
type Source interface {
	// View pins the current inventory state for one request.
	View() View
	// Query answers a typed query from the daemon's index.
	Query(q query.Query) (query.Result, error)
}

// View is one inventory state.
type View interface {
	// ETag is a strong validator: views with equal ETags encode the same
	// Dump.
	ETag() string
	// Dump returns the rows of the unpaged /services body, in the
	// daemon's own order.
	Dump() any
	// Walk visits the services ordered after *after (every service when
	// after is nil), each with its JSON-ready row, in canonical key order
	// (core.ServiceKey.Before) — the only order a page cursor can resume
	// deterministically across states — until f returns false.
	Walk(after *core.ServiceKey, f func(key core.ServiceKey, row any) bool)
}

// defaultPageLimit is the /services page size when only page= is given.
const defaultPageLimit = 1000

// NewMux mounts the shared endpoints: /services and /query over src,
// reg's exposition at /metrics, and reg's flight recorder at
// /debug/flight (the full pprof surface is ServeDebug's).
func NewMux(src Source, reg *obs.Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/services", servicesHandler(src))
	mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) {
		q, err := query.ParseHTTP(r.URL.Query())
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		res, err := src.Query(q)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(res)
	})
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/debug/flight", reg.Flight().Handler())
	return mux
}

// servicesHandler serves the full dump from a body encoded once per
// inventory state, so any number of full-dump pollers cost one marshal
// per change and an unchanged poll costs a 304 and no marshal at all;
// ?limit= and/or ?page= switch to pagination.
func servicesHandler(src Source) http.HandlerFunc {
	var (
		mu   sync.Mutex
		etag string
		body []byte
	)
	return func(w http.ResponseWriter, r *http.Request) {
		v := src.View()
		params := r.URL.Query()
		w.Header().Set("Content-Type", "application/json")
		if params.Get("limit") != "" || params.Get("page") != "" {
			rows, next, err := page(v, params.Get("limit"), params.Get("page"))
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			_ = json.NewEncoder(w).Encode(map[string]any{
				"services":        rows,
				"next_page_token": next,
			})
			return
		}
		tag := v.ETag()
		w.Header().Set("ETag", tag)
		if r.Header.Get("If-None-Match") == tag {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		mu.Lock()
		if tag != etag {
			etag = tag
			body, _ = json.Marshal(v.Dump())
		}
		b := body
		mu.Unlock()
		_, _ = w.Write(b)
	}
}

// page returns up to limit rows after the page token (the last key of the
// previous page) and the next token, empty once the walk is complete.
func page(v View, limitStr, token string) (rows []any, next string, err error) {
	limit := defaultPageLimit
	if limitStr != "" {
		if limit, err = strconv.Atoi(limitStr); err != nil || limit <= 0 {
			return nil, "", fmt.Errorf("bad limit %q", limitStr)
		}
	}
	var after *core.ServiceKey
	if token != "" {
		k, err := query.ParseKey(token)
		if err != nil {
			return nil, "", fmt.Errorf("bad page token %q", token)
		}
		after = &k
	}
	rows = []any{}
	var last core.ServiceKey
	v.Walk(after, func(k core.ServiceKey, row any) bool {
		if len(rows) == limit { // a row beyond the page: the walk goes on
			next = last.String()
			return false
		}
		rows, last = append(rows, row), k
		return true
	})
	return rows, next, nil
}

// Server is a daemon's API listener. The nil Server (a daemon started
// without an API address) never fails and drains at once.
type Server struct {
	srv *http.Server
	err chan error
}

// Serve starts serving h on addr in the background.
func Serve(addr string, h http.Handler) *Server {
	s := &Server{srv: &http.Server{Addr: addr, Handler: h}, err: make(chan error, 1)}
	go func() {
		if err := s.srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			s.err <- err
		}
	}()
	return s
}

// Err delivers the listener's failure, should it ever stop other than by
// Drain.
func (s *Server) Err() <-chan error {
	if s == nil {
		return nil
	}
	return s.err
}

// Drain stops accepting and gives in-flight requests (streams included,
// which end when their clients notice the close) a short grace.
func (s *Server) Drain() {
	if s == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx)
}

// ServeDebug starts the debug surface — pprof profiles, the flight dump
// and a second /metrics — on its own listener, so it can stay unexposed
// while the API address is public. daemon prefixes the failure diagnostic.
func ServeDebug(daemon, addr string, reg *obs.Registry) {
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/", reg.DebugHandler())
	go func() {
		if err := http.ListenAndServe(addr, mux); err != nil {
			fmt.Fprintf(os.Stderr, "%s: debug server: %v\n", daemon, err)
		}
	}()
	fmt.Printf("serving debug surface on %s (/debug/pprof, /debug/flight, /metrics)\n", addr)
}
