// Package obs is the dependency-free telemetry subsystem: a typed
// metrics registry (atomic counters, gauges, log-linear histograms with
// a lock-free striped hot path), a Prometheus text-exposition writer, a
// strict exposition linter, and an always-on flight recorder of recent
// trace events.
//
// Design constraints, in order:
//
//  1. The hot path is free. Counter.Add, Gauge.Set, Histogram.Observe
//     and Recorder.Record allocate nothing and take no registry lock —
//     they touch only pre-registered atomics (or, for the recorder, a
//     striped ring under a per-stripe mutex). Instrumented code paths
//     are CI-gated at zero allocations.
//  2. Scrapes see a coherent-enough view. Exposition walks the registry
//     under its mutex and reads every atomic once; histograms sum their
//     stripes at scrape time. Per-series values are exact; cross-series
//     skew is bounded by one scrape.
//  3. Nil receivers are no-ops. A subsystem holding an optional metrics
//     bundle can call h.Observe(d) on a nil *Histogram without guards,
//     so instrumentation never forks the logic it measures.
//
// Metric and label names are validated at registration time (panic on
// violation — registration is programmer-controlled, like http.Handle).
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is the exposition type of a metric family.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Registry holds metric families and the flight recorder. One registry
// per process is the normal shape; the facade creates one per Pipeline
// (servdisc.Pipeline.Metrics) and the daemons register their own series
// on it.
type Registry struct {
	mu       sync.Mutex
	fams     map[string]*family
	order    []string // registration order; exposition sorts
	onScrape []func() // hooks run (outside mu) before each exposition
	flight   *Recorder
}

// family is one metric name: HELP/TYPE plus its series (one per label
// vector; a single unlabeled series for plain metrics).
type family struct {
	name   string
	help   string
	kind   Kind
	labels []string // label names, fixed at registration
	series map[string]*series
	keys   []string // series keys, sorted lazily at scrape
	dirty  bool     // keys need re-sorting
}

// series is one sample stream: exactly one of the value fields is set.
type series struct {
	labelVals []string
	c         *Counter
	g         *Gauge
	h         *Histogram
	fn        func() float64 // CounterFunc / GaugeFunc
}

// NewRegistry returns an empty registry with an attached flight
// recorder.
func NewRegistry() *Registry {
	return &Registry{
		fams:   make(map[string]*family),
		flight: NewRecorder(flightDefaultPerStripe),
	}
}

// Flight returns the registry's flight recorder.
func (r *Registry) Flight() *Recorder {
	if r == nil {
		return nil
	}
	return r.flight
}

// OnScrape registers fn to run at the start of every exposition, before
// any family is written — the hook point for mirroring externally
// maintained tallies (stage counters, per-site statistics) into registry
// series. Hooks run outside the registry lock, so they may mint series
// (a Vec's With) that then show in the same exposition; concurrent
// scrapes run them concurrently, so they must be safe for that.
func (r *Registry) OnScrape(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onScrape = append(r.onScrape, fn)
}

// register creates or fetches the family, enforcing one (kind, labels)
// schema per name.
func (r *Registry) register(name, help string, kind Kind, labels []string) *family {
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validLabelName(l) {
			panic(fmt.Sprintf("obs: metric %q: invalid label name %q", name, l))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{
			name:   name,
			help:   help,
			kind:   kind,
			labels: append([]string(nil), labels...),
			series: make(map[string]*series),
		}
		r.fams[name] = f
		r.order = append(r.order, name)
		return f
	}
	if f.kind != kind || len(f.labels) != len(labels) {
		panic(fmt.Sprintf("obs: metric %q re-registered with different schema", name))
	}
	for i := range labels {
		if f.labels[i] != labels[i] {
			panic(fmt.Sprintf("obs: metric %q re-registered with different labels", name))
		}
	}
	return f
}

// seriesKey joins label values unambiguously (values may contain any
// bytes; 0xff never starts a UTF-8 rune so collisions need a crafted
// pair, and even then the exposition would merely merge two series).
func seriesKey(vals []string) string {
	return strings.Join(vals, "\xff")
}

// getOrAdd returns the series for vals, creating it via mk on first use.
func (f *family) getOrAdd(vals []string, mk func() *series) *series {
	if len(vals) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q: got %d label values, want %d", f.name, len(vals), len(f.labels)))
	}
	k := seriesKey(vals)
	s, ok := f.series[k]
	if !ok {
		s = mk()
		s.labelVals = append([]string(nil), vals...)
		f.series[k] = s
		f.keys = append(f.keys, k)
		f.dirty = true
	}
	return s
}

// sortedKeys returns series keys in sorted order for deterministic
// exposition.
func (f *family) sortedKeys() []string {
	if f.dirty {
		sort.Strings(f.keys)
		f.dirty = false
	}
	return f.keys
}

// Counter is a monotonically increasing uint64. The zero value is
// usable but unregistered; obtain registered counters from a Registry.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Set forces the counter to v — for mirroring a tally that some other
// subsystem already maintains monotonically (stage counters, checkpoint
// stats). Calling Set with a smaller value breaks counter semantics;
// the mirrored source must itself be monotonic.
func (c *Counter) Set(v uint64) {
	if c == nil {
		return
	}
	c.v.Store(v)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds delta (not atomic against concurrent Add; use for
// single-writer gauges or prefer Set).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Counter registers (or fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, KindCounter, nil)
	r.mu.Lock()
	defer r.mu.Unlock()
	s := f.getOrAdd(nil, func() *series { return &series{c: new(Counter)} })
	return s.c
}

// Gauge registers (or fetches) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, KindGauge, nil)
	r.mu.Lock()
	defer r.mu.Unlock()
	s := f.getOrAdd(nil, func() *series { return &series{g: new(Gauge)} })
	return s.g
}

// Histogram registers (or fetches) an unlabeled log-linear latency
// histogram.
func (r *Registry) Histogram(name, help string) *Histogram {
	f := r.register(name, help, KindHistogram, nil)
	r.mu.Lock()
	defer r.mu.Unlock()
	s := f.getOrAdd(nil, func() *series { return &series{h: newHistogram()} })
	return s.h
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — for tallies another subsystem already maintains. fn must be
// monotonic and safe to call concurrently.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.register(name, help, KindCounter, nil)
	r.mu.Lock()
	defer r.mu.Unlock()
	f.getOrAdd(nil, func() *series { return &series{fn: fn} })
}

// GaugeFunc registers a gauge read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, KindGauge, nil)
	r.mu.Lock()
	defer r.mu.Unlock()
	f.getOrAdd(nil, func() *series { return &series{fn: fn} })
}

// CounterVec is a counter family with a fixed label schema.
type CounterVec struct {
	r *Registry
	f *family
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if len(labels) == 0 {
		panic(fmt.Sprintf("obs: CounterVec %q needs at least one label", name))
	}
	return &CounterVec{r: r, f: r.register(name, help, KindCounter, labels)}
}

// With returns the counter for the given label values, creating the
// series on first use. The returned pointer is stable — cache it on hot
// paths rather than calling With per event.
func (v *CounterVec) With(labelVals ...string) *Counter {
	v.r.mu.Lock()
	defer v.r.mu.Unlock()
	s := v.f.getOrAdd(labelVals, func() *series { return &series{c: new(Counter)} })
	return s.c
}

// GaugeVec is a gauge family with a fixed label schema.
type GaugeVec struct {
	r *Registry
	f *family
}

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if len(labels) == 0 {
		panic(fmt.Sprintf("obs: GaugeVec %q needs at least one label", name))
	}
	return &GaugeVec{r: r, f: r.register(name, help, KindGauge, labels)}
}

// With returns the gauge for the given label values.
func (v *GaugeVec) With(labelVals ...string) *Gauge {
	v.r.mu.Lock()
	defer v.r.mu.Unlock()
	s := v.f.getOrAdd(labelVals, func() *series { return &series{g: new(Gauge)} })
	return s.g
}

// HistogramVec is a histogram family with a fixed label schema.
type HistogramVec struct {
	r *Registry
	f *family
}

// HistogramVec registers a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, labels ...string) *HistogramVec {
	if len(labels) == 0 {
		panic(fmt.Sprintf("obs: HistogramVec %q needs at least one label", name))
	}
	return &HistogramVec{r: r, f: r.register(name, help, KindHistogram, labels)}
}

// With returns the histogram for the given label values. The pointer is
// stable; hot paths should cache it per label vector.
func (v *HistogramVec) With(labelVals ...string) *Histogram {
	v.r.mu.Lock()
	defer v.r.mu.Unlock()
	s := v.f.getOrAdd(labelVals, func() *series { return &series{h: newHistogram()} })
	return s.h
}

// validMetricName checks [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// validLabelName checks [a-zA-Z_][a-zA-Z0-9_]* and rejects the reserved
// __ prefix and the histogram-internal "le".
func validLabelName(s string) bool {
	if s == "" || strings.HasPrefix(s, "__") || s == "le" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
