package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// maxRawSpans bounds the raw-span sample written per workload; the
// aggregates cover every span regardless.
const maxRawSpans = 10000

// rawSpan is one recorded call into a module, as written to
// bench/out/trace_<workload>.json. Times are nanoseconds since the tracer
// was created; Parent indexes the raw sample (-1 for a root or a parent
// beyond the sample bound).
type rawSpan struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Pass   int    `json:"pass"`
}

// spanAgg is the in-memory aggregate for one span name. Self is the
// duration minus the part covered by child spans.
type spanAgg struct {
	Count int           `json:"count"`
	Total time.Duration `json:"total_ns"`
	Self  time.Duration `json:"self_ns"`
}

type openSpan struct {
	name     string
	start    time.Time
	children time.Duration
	raw      int
}

// tracer records harness-side spans around calls into the modules. A nil
// *tracer is the untraced run: begin and end are no-ops, so traced and
// untraced passes share one code path. A tracer belongs to one goroutine;
// concurrent stages fork one each and merge them afterwards.
type tracer struct {
	t0    time.Time
	pass  int
	stack []openSpan
	agg   map[string]*spanAgg
	raw   []rawSpan
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), agg: make(map[string]*spanAgg)}
}

// fork returns a tracer for another goroutine sharing this one's clock
// origin; fold it back with merge once that goroutine has stopped.
func (t *tracer) fork() *tracer {
	if t == nil {
		return nil
	}
	return &tracer{t0: t.t0, pass: t.pass, agg: make(map[string]*spanAgg)}
}

func (t *tracer) setPass(n int) {
	if t != nil {
		t.pass = n
	}
}

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	raw := -1
	if len(t.raw) < maxRawSpans {
		parent := -1
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].raw
		}
		raw = len(t.raw)
		t.raw = append(t.raw, rawSpan{Name: name, Parent: parent, Pass: t.pass})
	}
	t.stack = append(t.stack, openSpan{name: name, raw: raw, start: time.Now()})
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	now := time.Now()
	n := len(t.stack) - 1
	sp := t.stack[n]
	t.stack = t.stack[:n]
	dur := now.Sub(sp.start)
	a := t.agg[sp.name]
	if a == nil {
		a = &spanAgg{}
		t.agg[sp.name] = a
	}
	a.Count++
	a.Total += dur
	a.Self += dur - sp.children
	if n > 0 {
		t.stack[n-1].children += dur
	}
	if sp.raw >= 0 {
		t.raw[sp.raw].Start = int64(sp.start.Sub(t.t0))
		t.raw[sp.raw].End = int64(now.Sub(t.t0))
	}
}

// merge folds a forked tracer's aggregates and raw sample into t.
func (t *tracer) merge(o *tracer) {
	if t == nil || o == nil {
		return
	}
	for name, a := range o.agg {
		dst := t.agg[name]
		if dst == nil {
			dst = &spanAgg{}
			t.agg[name] = dst
		}
		dst.Count += a.Count
		dst.Total += a.Total
		dst.Self += a.Self
	}
	base := len(t.raw)
	for _, r := range o.raw {
		if len(t.raw) >= maxRawSpans {
			break
		}
		if r.Parent >= 0 {
			r.Parent += base
		}
		t.raw = append(t.raw, r)
	}
}

func (t *tracer) get(name string) spanAgg {
	if t == nil {
		return spanAgg{}
	}
	if a := t.agg[name]; a != nil {
		return *a
	}
	return spanAgg{}
}

// selfTotal sums the self times of every span: the part of the traced
// window the harness can attribute to a module.
func (t *tracer) selfTotal() time.Duration {
	var sum time.Duration
	for _, a := range t.agg {
		sum += a.Self
	}
	return sum
}

// write dumps the aggregates and the bounded raw sample as JSON.
func (t *tracer) write(dir, workload string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace_"+workload+".json")
	body, err := json.Marshal(struct {
		Workload string              `json:"workload"`
		Seed     uint64              `json:"seed"`
		Spans    map[string]*spanAgg `json:"spans"`
		Raw      []rawSpan           `json:"raw"`
	}{workload, seed, t.agg, t.raw})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, body, 0o644)
}
