// Command perfbench is sparkgo's benchmark: one command that runs one
// workload, checks its outputs against references independent of the
// compiler, and prints every metric by name with its unit.
//
//	perfbench --workload synth-scale --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the run measures the end-to-end metrics with tracing
// off. With --trace 1 it records spans around calls into each module's
// public functions (plus the engine's own obs-bus events) and reports
// the per-layer metrics instead; the spans are written to
// .bench_build/perfbench/traces when the run ends.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 42, "failed": 0, "metrics": {...}}
//
// A failed correctness check makes the command exit 1. Workloads,
// metrics and the layer predictions are recorded in BENCHMARK.json and
// perfbench/PREDICTIONS.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workDir holds everything a run writes: disk caches, trace files. It is
// relative to the checkout root the benchmark runs from.
const workDir = ".bench_build/perfbench"

// options is one run's parameters.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// setups is how many times an untraced run repeats its set-up;
	// setup_s is their median. Traced runs set up once.
	setups int
	// dir is this run's private scratch directory under workDir.
	dir string
	// corrupt, when set, flips one reference value before the
	// correctness gate runs; the self-check tests use it to prove the
	// gate trips.
	corrupt bool
}

// outcome is what a workload returns: the correctness tally and the
// metrics it measured.
type outcome struct {
	attempted int
	failed    int
	failures  []string
	metrics   *metricSet
	// notes are human-readable report lines printed before the result.
	notes []string
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(options) (*outcome, error){
	"synth-scale":    runSynthScale,
	"explore-revive": runExploreRevive,
	"daemon-mix":     runDaemonMix,
}

func main() {
	var opt options
	flag.StringVar(&opt.workload, "workload", "", "workload: synth-scale, explore-revive or daemon-mix")
	flag.Int64Var(&opt.seed, "seed", 1, "workload seed")
	flag.Float64Var(&opt.seconds, "seconds", 20, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()
	opt.trace = *trace == 1
	opt.setups = 3

	run, ok := workloads[opt.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", opt.workload)
		os.Exit(2)
	}
	if opt.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: --seconds must be positive\n")
		os.Exit(2)
	}
	dir, err := makeRunDir()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	opt.dir = dir
	out, err := run(opt)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", opt.workload, err)
		os.Exit(1)
	}
	if code := report(os.Stdout, opt, out); code != 0 {
		os.Exit(code)
	}
}

// makeRunDir creates this process's scratch directory.
func makeRunDir() (string, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(workDir, "run-")
}

// result is the JSON object the last line of output carries.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report prints the human-readable lines and the JSON result, and
// returns the exit code: 1 when the correctness gate failed.
func report(w io.Writer, opt options, out *outcome) int {
	mode := "untraced"
	if opt.trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "# %s seed=%d seconds=%g %s\n", opt.workload, opt.seed, opt.seconds, mode)
	for _, n := range out.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, f := range out.failures {
		fmt.Fprintf(w, "# FAIL %s\n", f)
	}
	if out.attempted > 0 {
		fmt.Fprintf(w, "# failed_frac %.6f (%d of %d units)\n",
			float64(out.failed)/float64(out.attempted), out.failed, out.attempted)
	}
	for _, name := range out.metrics.order {
		m := out.metrics.m[name]
		fmt.Fprintf(w, "# %-34s %14.6g %s\n", name, m.Value, m.Unit)
	}
	res := result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics.m,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintln(w, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// localWorkers bounds the benchmark's own parallelism to two threads.
func localWorkers() int { return min(2, runtime.GOMAXPROCS(0)) }

// setupReps is how many times a run repeats its set-up.
func setupReps(opt options) int {
	if opt.trace {
		return 1
	}
	return opt.setups
}

// deadline is the end of a timed phase that starts now.
func deadline(opt options) time.Time {
	return time.Now().Add(time.Duration(opt.seconds * float64(time.Second)))
}

// traceFile names where a traced run writes its spans.
func traceFile(opt options) string {
	return filepath.Join(workDir, "traces", fmt.Sprintf("%s-seed%d.json", opt.workload, opt.seed))
}
