package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// TestSmoke runs every workload end to end, traced, on small inputs and a
// one-second window per half. It asserts the correctness gates and that
// every metric is reported — never a timing.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	for _, w := range workloads {
		rep, err := w.run(options{seed: defaultSeed, window: 2 * time.Second, traced: true, outDir: out, sizes: smokeSizes})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !rep.correct {
			t.Errorf("%s: correctness gates failed: %v", w.name, rep.problems)
		}
		if rep.failed != 0 || rep.attempted == 0 {
			t.Errorf("%s: %d of %d operations failed", w.name, rep.failed, rep.attempted)
		}
		for _, m := range endToEnd {
			if _, ok := rep.values[m.Name]; !ok {
				t.Errorf("%s: end-to-end metric %s not reported", w.name, m.Name)
			}
		}
		for _, m := range perLayer {
			if _, ok := rep.layers[m.Name]; !ok {
				t.Errorf("%s: per-layer metric %s not reported", w.name, m.Name)
			}
		}
		if _, err := os.Stat(filepath.Join(out, "trace_"+w.name+".json")); err != nil {
			t.Errorf("%s: no span dump: %v", w.name, err)
		}
		var line struct {
			Correct   *bool                      `json:"correct"`
			Attempted *int                       `json:"attempted"`
			Failed    *int                       `json:"failed"`
			Metrics   map[string]json.RawMessage `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(rep.resultLine()), &line); err != nil || line.Correct == nil ||
			line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(perLayer) {
			t.Errorf("%s: malformed result line (%v): %s", w.name, err, rep.resultLine())
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the harness's own tables in
// step: same workloads, same metrics, same units and bounds.
func TestBenchmarkJSON(t *testing.T) {
	body, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(body, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the harness defaults to %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)",
				i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the limit is 200", w.name, len(w.why))
		}
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json    %+v\n harness %+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json    %+v\n harness %+v", spec.PerLayer, perLayer)
	}
}
