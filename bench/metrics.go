package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// metricDef names one reported metric. BENCHMARK.json at the repository
// root lists the same names, units and bounds; the smoke test keeps the
// two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: allowed worsening, as a share of the baseline median
}

// endToEnd are the gating metrics: BENCHMARK.json's end_to_end list, the
// numbers a change is accepted or rejected on. Every workload drives the
// whole chain, so every workload reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"visibility_p50_ms", "ms", "lower", 0.25},
	{"wire_bytes_per_service", "bytes", "lower", 0.02},
	{"heap_bytes_per_service", "bytes", "lower", 0.20},
}

// demoted are end-to-end numbers too — measured untraced, printed by every
// run, compared by -repeat — but they do not gate: on the shared two-core
// host this benchmark was built on, identical code moved them by more than
// any bound the contract allows (see README.md, "Measured spread"). They
// ride in BENCHMARK.json's per_layer list, which carries no bounds.
var demoted = []metricDef{
	{Name: "ingest_pkts_per_s", Unit: "packets/s", Better: "higher"},
	{Name: "fleet_services_per_s", Unit: "services/s", Better: "higher"},
	{Name: "bootstrap_services_per_s", Unit: "services/s", Better: "higher"},
	{Name: "query_mix_per_s", Unit: "queries/s", Better: "higher"},
	{Name: "epoch_advance_p50_ms", Unit: "ms", Better: "lower"},
}

// layers are the per-module numbers of the traced run. They explain a
// movement; they do not gate one.
var layers = []metricDef{
	{Name: "trace.read_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "packet.decode_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "packet.decode_failed", Unit: "count", Better: "lower"},
	{Name: "capture.route_filter_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "capture.kept_share", Unit: "share", Better: "higher"},
	{Name: "capture.unmonitored_dropped", Unit: "count", Better: "lower"},
	{Name: "filter.match_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "core.dispatch_apply_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "core.seal_merge_ms_per_snapshot", Unit: "ms", Better: "lower"},
	{Name: "core.hybrid_report_ms", Unit: "ms", Better: "lower"},
	{Name: "core.allocs_per_pkt", Unit: "count", Better: "lower"},
	{Name: "core.snapshots", Unit: "count", Better: "higher"},
	{Name: "core.scanners_detected", Unit: "count", Better: "higher"},
	{Name: "core.events_published", Unit: "count", Better: "higher"},
	{Name: "pipeline.event_hub_dropped", Unit: "count", Better: "lower"},
	{Name: "pipeline.frame_hub_dropped", Unit: "count", Better: "lower"},
	{Name: "query.apply_delta_ms_per_epoch", Unit: "ms", Better: "lower"},
	{Name: "query.apply_delta_us_per_churned", Unit: "us", Better: "lower"},
	{Name: "query.point_ns", Unit: "ns", Better: "lower"},
	{Name: "query.port_page_us", Unit: "us", Better: "lower"},
	{Name: "query.prefix24_page_us", Unit: "us", Better: "lower"},
	{Name: "query.provenance_page_us", Unit: "us", Better: "lower"},
	{Name: "query.epochs", Unit: "count", Better: "higher"},
	{Name: "federate.build_snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "federate.encode_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "federate.decode_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "federate.apply_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "federate.frame_bytes_mean", Unit: "bytes", Better: "lower"},
	{Name: "federate.snapshot_frame_bytes", Unit: "bytes", Better: "lower"},
	{Name: "federate.query_refresh_ms", Unit: "ms", Better: "lower"},
	{Name: "federate.first_query_ms", Unit: "ms", Better: "lower"},
	{Name: "federate.pump_dropped", Unit: "count", Better: "lower"},
	{Name: "federate.resume_hits", Unit: "count", Better: "higher"},
	{Name: "federate.snapshot_fallbacks", Unit: "count", Better: "lower"},
	{Name: "federate.visibility_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "federate.visibility_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "federate.generator_late_max_ms", Unit: "ms", Better: "lower"},
	{Name: "servdisc.ingest_batch_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "obs.dispatch_sum_s", Unit: "s", Better: "lower"},
	{Name: "obs.apply_sum_s", Unit: "s", Better: "lower"},
	{Name: "obs.snapshot_merge_sum_s", Unit: "s", Better: "lower"},
	{Name: "go_runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "go_runtime.gc_pause_total_ms", Unit: "ms", Better: "lower"},
	{Name: "go_runtime.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "bench.trace_overhead_share", Unit: "share", Better: "lower"},
	{Name: "bench.span_coverage_share", Unit: "share", Better: "higher"},
}

// perLayer is BENCHMARK.json's per_layer list.
var perLayer = append(append([]metricDef(nil), demoted...), layers...)

// report is the outcome of one workload run.
type report struct {
	workload  string
	seed      uint64
	traced    bool
	correct   bool
	attempted int
	failed    int
	problems  []string
	values    map[string]float64 // the nine end-to-end numbers, always from untraced stages
	layers    map[string]float64 // BENCHMARK.json's per_layer metrics (traced runs only)
	notes     []string           // sample counts, tail percentiles, cross-checks
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// print writes the metrics by name with their units.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "== %s  seed=%d\n", r.workload, r.seed)
	for _, m := range endToEnd {
		fmt.Fprintf(w, "   %-34s %14.4f %-10s (gates, bound %.0f%%)\n", m.Name, r.values[m.Name], m.Unit, 100*m.Bound)
	}
	for _, m := range demoted {
		fmt.Fprintf(w, "   %-34s %14.4f %-10s (reported, does not gate)\n", m.Name, r.values[m.Name], m.Unit)
	}
	if r.traced {
		fmt.Fprintln(w, "   -- per layer (traced run)")
		for _, m := range layers {
			fmt.Fprintf(w, "   %-34s %14.4f %s\n", m.Name, r.layers[m.Name], m.Unit)
		}
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
	fmt.Fprintf(w, "   operations: attempted=%d failed=%d\n", r.attempted, r.failed)
	if r.correct {
		fmt.Fprintln(w, "   gates: all passed")
	} else {
		fmt.Fprintf(w, "   gates: FAILED\n      %s\n", strings.Join(r.problems, "\n      "))
	}
}

// resultLine is the machine-readable last line of a single-workload run:
// BENCHMARK.json's end_to_end metrics for an untraced run, its per_layer
// metrics for a traced one.
func (r *report) resultLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, vals := endToEnd, r.values
	if r.traced {
		defs, vals = perLayer, r.layers
	}
	metrics := make(map[string]value, len(defs))
	for _, m := range defs {
		metrics[m.Name] = value{vals[m.Name], m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings cannot fail to marshal
	}
	return string(line)
}

// worsening returns how much worse now is than base for the metric, as a
// share of base (negative when it improved).
func (m metricDef) worsening(base, now float64) float64 {
	if base == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (base - now) / base
	}
	return (now - base) / base
}
