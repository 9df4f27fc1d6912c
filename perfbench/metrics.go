package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet keeps metrics in insertion order for the human-readable
// report; the JSON result carries the map.
type metricSet struct {
	order []string
	m     map[string]metric
}

func newMetricSet() *metricSet { return &metricSet{m: map[string]metric{}} }

func (s *metricSet) set(name string, v float64, unit string) {
	if _, ok := s.m[name]; !ok {
		s.order = append(s.order, name)
	}
	s.m[name] = metric{Value: v, Unit: unit}
}

// sizes is synth-scale's scale curve; the per-size layer metrics carry
// the suffix ".n<size>".
var sizes = []int{32, 64, 128}

// perSizeLayers are the synth-scale layer metrics also reported per size.
var perSizeLayers = []struct{ name, unit string }{
	{"core.frontend_ms", "ms"}, {"core.midend_ms", "ms"}, {"core.backend_ms", "ms"},
	{"htg.lower_ms", "ms"}, {"htg.ops", "count"},
	{"dfa.build_ms", "ms"}, {"dfa.edges", "count"},
	{"sched.schedule_ms", "ms"}, {"sched.list_ms", "ms"}, {"sched.states", "count"},
	{"wire.encode_ms.frontend", "ms"}, {"wire.encode_ms.midend", "ms"}, {"wire.encode_ms.backend", "ms"},
}

// passNames are the frontend passes whose time pass.<name>_ms reports.
var passNames = []string{"inline", "drop-uncalled", "speculate", "unroll", "constprop",
	"constfold", "copyprop", "cse", "dce"}

var artifactKinds = []string{"frontend", "midend", "backend"}

// layerCatalog lists every per-layer metric a traced run reports, in
// report order. A workload that does not measure a layer reports 0 for
// it (PREDICTIONS.md lists which workload measures which layer).
func layerCatalog() []struct{ name, unit string } {
	type nu = struct{ name, unit string }
	c := []nu{{"parser.parse_ms", "ms"},
		{"core.frontend_ms", "ms"}, {"core.midend_ms", "ms"}, {"core.backend_ms", "ms"}}
	for _, p := range passNames {
		c = append(c, nu{"pass." + p + "_ms", "ms"})
	}
	c = append(c, nu{"pass.rounds", "count"}, nu{"pass.runs", "count"},
		nu{"pass.useful_ratio", "ratio"}, nu{"pass.ir_ops_out", "count"},
		nu{"htg.lower_ms", "ms"}, nu{"htg.ops", "count"},
		nu{"dfa.build_ms", "ms"}, nu{"dfa.edges", "count"},
		nu{"sched.schedule_ms", "ms"}, nu{"sched.list_ms", "ms"}, nu{"sched.states", "count"},
		nu{"rtl.build_ms", "ms"}, nu{"rtl.gates", "count"})
	for _, k := range artifactKinds {
		c = append(c, nu{"wire.encode_ms." + k, "ms"})
	}
	for _, k := range artifactKinds {
		c = append(c, nu{"wire.decode_ms." + k, "ms"})
	}
	for _, k := range artifactKinds {
		c = append(c, nu{"wire.bytes." + k, "bytes"})
	}
	for _, k := range artifactKinds {
		c = append(c, nu{"wire.decode_allocs." + k, "count"})
	}
	c = append(c, nu{"cache.get_ms", "ms"}, nu{"cache.put_ms", "ms"},
		nu{"blob.mem_hits", "count"}, nu{"blob.disk_hits", "count"},
		nu{"blob.backfills", "count"}, nu{"blob.errors", "count"},
		nu{"rtlsim.compile_ms", "ms"}, nu{"rtlsim.run_ms", "ms"},
		nu{"rtlsim.ns_per_lane_cycle", "ns"}, nu{"rtlsim.sim_cycles", "count"},
		nu{"rtlsim.insns", "count"}, nu{"rtlsim.packed_frac", "ratio"},
		nu{"explore.eval_ms", "ms"}, nu{"explore.point_hit_ratio", "ratio"},
		nu{"explore.frontend_reuse_ratio", "ratio"})
	for _, k := range []string{"frontend", "midend", "backend", "point"} {
		c = append(c, nu{"explore.computed." + k, "count"})
	}
	c = append(c, nu{"explore.search_revisit_ratio", "ratio"}, nu{"explore.unattributed_ms", "ms"},
		nu{"service.queue_wait_ms", "ms"}, nu{"service.run_ms", "ms"},
		nu{"service.client_overhead_ms", "ms"}, nu{"service.coalesced_ratio", "ratio"},
		nu{"service.repeat_job_ms", "ms"},
		nu{"trace.overhead_frac", "ratio"})
	for _, n := range sizes {
		for _, l := range perSizeLayers {
			c = append(c, nu{fmt.Sprintf("%s.n%d", l.name, n), l.unit})
		}
	}
	return c
}

// newLayerSet returns a metric set holding every per-layer metric at 0.
func newLayerSet() *metricSet {
	s := newMetricSet()
	for _, l := range layerCatalog() {
		s.set(l.name, 0, l.unit)
	}
	return s
}

// e2e collects one untraced run's samples and derives the end-to-end
// metrics every workload reports.
type e2e struct {
	setup     []time.Duration // one per repeated set-up
	latencies []time.Duration // one per unit of work
	timed     time.Duration   // total time of the timed phase
	// completed is the number of units done, when only some of them
	// are latency samples (0: every unit is one).
	completed int
	// designs are the produced designs' (simulated cycles per
	// activation, area), one entry per distinct design.
	designs [][2]float64
}

// metrics renders the end-to-end metric set. ok_frac is the complement
// of failed_frac: the fraction of attempted units that passed the gate.
func (e *e2e) metrics(out *outcome) *metricSet {
	s := newMetricSet()
	s.set("setup_s", median(seconds(e.setup)), "s")
	lat := millis(e.latencies)
	p, tail := tailPercentile(lat)
	s.set("latency_p50_ms", median(lat), "ms")
	s.set("latency_tail_ms", tail, "ms")
	out.note("latency tail is p%.1f over %d samples (p50 %.3f ms)", p, len(lat), median(lat))
	done := e.completed
	if done == 0 {
		done = len(e.latencies)
	}
	s.set("throughput_per_s", float64(done)/e.timed.Seconds(), "1/s")
	ok := 0.0
	if out.attempted > 0 {
		ok = float64(out.attempted-out.failed) / float64(out.attempted)
	}
	s.set("ok_frac", ok, "ratio")
	s.set("peak_rss_mb", peakRSSMB(), "MB")
	var cyc, area []float64
	for _, d := range e.designs {
		cyc = append(cyc, d[0])
		area = append(area, d[1])
	}
	s.set("design_latency_cycles", geomean(cyc), "cycles")
	s.set("design_area", geomean(area), "area")
	return s
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	return out
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// tailPercentile returns the highest percentile that still has at least
// ten samples above it, and the sample at that rank: with k samples the
// rank is the (k-11)th of the sorted values (0-based), i.e. percentile
// 100*(k-10)/k. Fewer than eleven samples report the maximum.
func tailPercentile(xs []float64) (pct, v float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) < 11 {
		return 100, s[len(s)-1]
	}
	i := len(s) - 11
	return 100 * float64(len(s)-10) / float64(len(s)), s[i]
}

// geomean returns the geometric mean of positive values (0 when empty).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// beginTimedPhase is called between set-up and the timed phase. It
// collects set-up's garbage, returns the freed pages to the kernel, and
// resets the process's resident-set high-water mark (writing 5 to
// /proc/self/clear_refs), so peak_rss_mb is the timed phase's peak and
// not set-up's.
func beginTimedPhase() {
	runtime.GC()
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: reset peak RSS: %v\n", err)
	}
}

// peakRSSMB reads the process's peak resident set size (VmHWM) since
// beginTimedPhase reset it.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
