package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
)

// benchmarkFile is BENCHMARK.json's metric catalogue: the names a run
// must emit.
type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// brief runs a workload for one round or pass with a single set-up.
func brief(t *testing.T, workload string, seed int64, trace, corrupt bool) *outcome {
	t.Helper()
	opt := options{workload: workload, seed: seed, seconds: 0.001, trace: trace,
		setups: 1, dir: t.TempDir(), corrupt: corrupt}
	out, err := workloads[workload](opt)
	if err != nil {
		t.Fatalf("%s seed %d trace %v: %v", workload, seed, trace, err)
	}
	return out
}

// deterministic are the metrics that must repeat exactly for one seed.
var deterministic = map[bool][]string{
	false: {"design_latency_cycles", "design_area"},
	true: {"rtlsim.sim_cycles", "pass.runs", "explore.computed.frontend", "explore.computed.midend",
		"explore.computed.backend", "explore.computed.point"},
}

// TestMetricsAndDeterminism runs every workload briefly, untraced and
// traced, twice on each of two seeds. Every run must pass the
// correctness gate and emit every metric BENCHMARK.json names with its
// unit, and the deterministic counts must repeat exactly for one seed.
func TestMetricsAndDeterminism(t *testing.T) {
	bf := readBenchmarkFile(t)
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range bf.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		want[true][m.Name] = m.Unit
	}
	for w := range workloads {
		for _, seed := range []int64{1, 2} {
			for _, trace := range []bool{false, true} {
				a := brief(t, w, seed, trace, false)
				b := brief(t, w, seed, trace, false)
				for _, out := range []*outcome{a, b} {
					if out.failed != 0 || out.attempted == 0 {
						t.Errorf("%s seed %d trace %v: %d of %d units failed: %v", w, seed, trace, out.failed, out.attempted, out.failures)
					}
				}
				got := a.metrics.m
				if len(got) != len(want[trace]) {
					t.Errorf("%s trace %v: %d metrics, BENCHMARK.json names %d", w, trace, len(got), len(want[trace]))
				}
				for name, unit := range want[trace] {
					if m, ok := got[name]; !ok || m.Unit != unit {
						t.Errorf("%s trace %v: metric %s = %+v, want unit %q", w, trace, name, m, unit)
					}
				}
				for _, name := range deterministic[trace] {
					if x, y := a.metrics.m[name].Value, b.metrics.m[name].Value; x != y {
						t.Errorf("%s seed %d: %s = %v then %v", w, seed, name, x, y)
					}
				}
			}
		}
	}
}

// TestGateTrips injects an output mismatch into each workload's
// reference and checks that the correctness gate fails the run.
func TestGateTrips(t *testing.T) {
	for w := range workloads {
		out := brief(t, w, 1, false, true)
		if out.failed == 0 {
			t.Errorf("%s: injected mismatch not caught (%d units attempted)", w, out.attempted)
		}
		if code := report(io.Discard, options{workload: w}, out); code == 0 {
			t.Errorf("%s: exit code 0 with a failed gate", w)
		}
	}
}
