package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// tinySizes keep a smoke run of each workload to a few seconds.
var tinySizes = sizes{review: 60, evolve: 40, onboardMin: 20, onboardSpan: 20}

// TestSmoke runs every workload of BENCHMARK.json at tiny size, untraced
// and traced, and requires each run to print exactly the metrics the
// file declares, with their units, and to pass every output check.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, wl := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			res, err := run(options{
				workload: wl.Name, seed: 1, seconds: 1, trace: traced,
				size: tinySizes, dataRoot: t.TempDir(),
			}, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", wl.Name, traced, err, out.String())
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Fatalf("%s trace=%v: correct %v, %d failed of %d\n%s", wl.Name, traced, res.Correct, res.Failed, res.Attempted, out.String())
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Fatalf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", wl.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Fatalf("%s trace=%v: metric %s = %+v (present %v), want unit %s", wl.Name, traced, m.Name, got, ok, m.Unit)
				}
			}
			if !traced && (res.Metrics["setup_s"].Value <= 0 || res.Metrics["cpu_ms_per_op"].Value <= 0) {
				t.Fatalf("%s: zero timings\n%s", wl.Name, out.String())
			}
			if !traced && !bytes.Contains(out.Bytes(), []byte("ops_per_s")) {
				t.Fatalf("%s: the text report lacks ops_per_s\n%s", wl.Name, out.String())
			}
		}
	}
}
