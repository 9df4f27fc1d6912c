// Command explore drives the design-space exploration engine and
// regenerates every experiment table of the reproduction (DESIGN.md §4:
// E1–E17 and the A-series ablations). With no arguments it runs every
// experiment; pass experiment ids (e.g. "E12 A E15 E17") to select. An
// unknown id prints the valid ones and exits 2.
//
// The -sweep mode runs a standalone concurrent sweep over
// (preset × pass toggles × unroll bounds × buffer sizes) and prints the
// full point cloud, the latency/area Pareto frontier, and the engine's
// per-stage cache statistics (memory vs disk hits vs computed):
//
//	explore -sweep [-workers 8] [-sizes 4,8,16,32] [-sim 1] [-csv]
//	        [-cache-dir .explore-cache] [-remote-cache http://host:8341]
//	        [-src a.c,b.c]
//
// -src replaces the built-in ILD generator with arbitrary user programs
// parsed from files: the sweep batches every named source into one
// configuration space. -cache-dir persists stage artifacts and
// evaluated points on disk, so repeated sweeps — including across
// process restarts — reuse earlier synthesis work; -remote-cache chains
// a sparkd daemon's /v1/blobs API behind the local tiers, so a cold
// machine reuses the fleet's artifacts; -cache-max-bytes
// garbage-collects the cache directory afterwards (oldest artifacts
// first, including those under retired schema versions).
//
// The -search mode replaces the exhaustive grid with an adaptive search
// over the same axes (pass orderings × motion knockouts × unroll bounds
// × chaining) and prints its improvement trajectory, best design, and
// cache statistics:
//
//	explore -search [-strategy hill|genetic|anneal] [-budget 64] [-deadline 30s]
//	        [-objective latency|area|weighted] [-seed 1] [-n 16]
//	        [-search-json BENCH_search.json]
//
// The -bench-json mode measures the cache trajectory (cold sweep, warm
// in-memory re-sweep, disk-warm sweep in a fresh engine) and writes the
// results as machine-readable JSON for CI trend tracking:
//
//	explore -bench-json BENCH_explore.json [-workers 8] [-sizes 4,8]
//
// The -codec-bench-json mode measures the artifact wire codecs against
// the retired gob baseline (encode/decode ns, allocations, and the
// verify-vs-decode ratio of streaming-hash revival), asserts the
// regression floors in-binary, and writes the results as JSON:
//
//	explore -codec-bench-json BENCH_codec.json
//
// The local -sweep and -search modes accept -cpuprofile/-memprofile for
// pprof capture; profile remote runs with sparkd -pprof instead.
//
// Usage:
//
//	explore [-n 16] [-csv] [E1 E2 ... A E15 E16]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sparkgo/internal/experiments"
	"sparkgo/internal/explore"
	"sparkgo/internal/ir"
	"sparkgo/internal/parser"
	"sparkgo/internal/report"
	"sparkgo/internal/rtlsim"
)

func main() {
	n := flag.Int("n", 16, "ILD buffer size for the stage/ablation experiments")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	sweep := flag.Bool("sweep", false, "run a standalone design-space sweep and print its frontier")
	workers := flag.Int("workers", 0, "sweep worker-pool size (0 = one per CPU)")
	sizes := flag.String("sizes", "4,8,16,32", "comma-separated ILD buffer sizes for -sweep")
	sim := flag.Int("sim", 1, "per-config rtlsim latency trials for -sweep (0 = report FSM states)")
	cacheDir := flag.String("cache-dir", "", "disk-backed exploration cache directory (persists across runs)")
	cacheMaxBytes := flag.Int64("cache-max-bytes", 0, "garbage-collect the cache directory down to this many bytes after the run (0 = never)")
	remoteCache := flag.String("remote-cache", "", "base URL of a sparkd daemon whose /v1/blobs API backs the local cache (e.g. http://host:8341)")
	srcFiles := flag.String("src", "", "comma-separated source files to sweep instead of the ILD generator")
	benchJSON := flag.String("bench-json", "", "write cold/warm/disk-warm sweep benchmark results to this JSON file and exit")
	simBenchJSON := flag.String("sim-bench-json", "", "write scalar-vs-batched simulator benchmark results to this JSON file and exit")
	codecBenchJSON := flag.String("codec-bench-json", "", "write wire-vs-gob artifact codec benchmark results to this JSON file and exit")
	search := flag.Bool("search", false, "run an adaptive design-space search instead of an exhaustive sweep")
	strategy := flag.String("strategy", "hill", "search strategy: hill (steepest-ascent + restarts), genetic, or anneal (simulated annealing)")
	objective := flag.String("objective", "weighted", "search objective: latency, area, or weighted")
	budget := flag.Int("budget", 64, "search budget: max distinct configurations evaluated (0 = unbounded)")
	deadline := flag.Duration("deadline", 0, "search wall-clock budget (0 = unbounded)")
	seed := flag.Int64("seed", 1, "search RNG seed (same seed, same trajectory)")
	searchJSON := flag.String("search-json", "", "write the search summary to this JSON file (with -search)")
	remote := flag.String("remote", "", "ship -sweep/-search jobs to a sparkd daemon at this address instead of running locally")
	follow := flag.Bool("follow", false, "with -remote: subscribe to the job's live event stream (SSE) and print progress/trajectory lines")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the -sweep/-search run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at the end of the -sweep/-search run to this file")
	flag.Parse()

	printTable := func(t *report.Table) {
		if *csv {
			fmt.Println(t.CSV())
		} else {
			fmt.Println(t)
		}
	}

	// Mode flags that would silently lose to one another are conflicts:
	// -search runs the adaptive engine over the built-in generator at -n
	// only, so combining it with the sweep-only inputs must fail loudly
	// rather than search the wrong program.
	if *search {
		if *sweep {
			fmt.Fprintln(os.Stderr, "-search and -sweep are mutually exclusive")
			os.Exit(1)
		}
		if *benchJSON != "" {
			fmt.Fprintln(os.Stderr, "-search and -bench-json are mutually exclusive")
			os.Exit(1)
		}
		if *srcFiles != "" {
			fmt.Fprintln(os.Stderr, "-search does not support -src yet: the search space is the built-in ILD generator at -n")
			os.Exit(1)
		}
	}

	if *remote != "" && !*sweep && !*search {
		fmt.Fprintln(os.Stderr, "-remote requires -sweep or -search (experiments run locally)")
		os.Exit(1)
	}
	if *follow && *remote == "" {
		fmt.Fprintln(os.Stderr, "-follow streams a daemon job's events and requires -remote")
		os.Exit(1)
	}
	if *remote != "" && *searchJSON != "" {
		fmt.Fprintln(os.Stderr, "-search-json is not supported with -remote (the daemon's /v1/jobs/{id} JSON is the machine-readable result)")
		os.Exit(1)
	}

	// Profiling captures this process, so it pairs with the local sweep
	// and search modes only: under -remote the work runs in the daemon
	// (profile that with sparkd -pprof), and the experiment tables have
	// no profiling story worth a flag.
	if *cpuProfile != "" || *memProfile != "" {
		if !*sweep && !*search {
			fmt.Fprintln(os.Stderr, "-cpuprofile/-memprofile require -sweep or -search")
			os.Exit(1)
		}
		if *remote != "" {
			fmt.Fprintln(os.Stderr, "-cpuprofile/-memprofile profile this process; with -remote the work runs in sparkd (use its -pprof listener)")
			os.Exit(1)
		}
	}

	if *benchJSON != "" {
		if err := runBenchJSON(*benchJSON, *sizes, *workers, *sim); err != nil {
			fmt.Fprintf(os.Stderr, "bench-json FAILED: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *simBenchJSON != "" {
		if err := runSimBenchJSON(*simBenchJSON, rtlsim.MaxLanes); err != nil {
			fmt.Fprintf(os.Stderr, "sim-bench-json FAILED: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *codecBenchJSON != "" {
		if err := runCodecBenchJSON(*codecBenchJSON); err != nil {
			fmt.Fprintf(os.Stderr, "codec-bench-json FAILED: %v\n", err)
			os.Exit(1)
		}
		return
	}

	// Ctrl-C (and SIGTERM) cancel in-flight sweeps and searches at the
	// next evaluation-batch boundary instead of running to completion;
	// a second signal kills the process the default way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *search {
		var err error
		if *remote != "" {
			err = runRemoteSearch(ctx, *remote, *strategy, *objective, *n, *budget, *deadline, *seed, *follow, printTable)
		} else {
			stopProf, perr := startProfiles(*cpuProfile, *memProfile)
			if perr != nil {
				fmt.Fprintf(os.Stderr, "search FAILED: %v\n", perr)
				os.Exit(1)
			}
			err = runSearch(ctx, *strategy, *objective, *n, *budget, *deadline, *seed,
				*workers, *sim, *cacheDir, *remoteCache, *searchJSON, printTable)
			if err == nil {
				err = runCacheGC(*cacheDir, *cacheMaxBytes)
			}
			if perr := stopProf(); perr != nil && err == nil {
				err = perr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "search FAILED: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *sweep {
		var err error
		if *remote != "" {
			err = runRemoteSweep(ctx, *remote, *sizes, *srcFiles, *deadline, *follow, printTable)
		} else {
			stopProf, perr := startProfiles(*cpuProfile, *memProfile)
			if perr != nil {
				fmt.Fprintf(os.Stderr, "sweep FAILED: %v\n", perr)
				os.Exit(1)
			}
			err = runSweepLocal(ctx, *sizes, *srcFiles, *cacheDir, *remoteCache, *workers, *sim, *deadline, printTable)
			if err == nil {
				err = runCacheGC(*cacheDir, *cacheMaxBytes)
			}
			if perr := stopProf(); perr != nil && err == nil {
				err = perr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "sweep FAILED: %v\n", err)
			os.Exit(1)
		}
		return
	}

	all := []experiment{
		{"E1", experiments.E1Fig02Unroll},
		{"E2", experiments.E2Fig03ConstPropParallel},
		{"E3", experiments.E3Fig04Chaining},
		{"E4", experiments.E4Fig05Trails},
		{"E5", experiments.E5E6WireVariables},
		{"E7", func() (*report.Table, error) { return experiments.E7Fig10Behavior(40) }},
		{"E8", func() (*report.Table, error) { return experiments.E8toE11Stages(*n) }},
		{"E12", func() (*report.Table, error) {
			return experiments.E12Fig15SingleCycle([]int{4, 8, 16, 32}, 10)
		}},
		{"E13", func() (*report.Table, error) { return experiments.E13Baseline([]int{4, 8, 16}) }},
		{"E14", func() (*report.Table, error) { return experiments.E14Fig16Natural(8) }},
		{"E15", func() (*report.Table, error) { return experiments.E15Exploration(*workers) }},
		{"E16", func() (*report.Table, error) { return experiments.E16PassOrder(*n, *workers) }},
		{"E17", func() (*report.Table, error) { return experiments.E17AdaptiveSearch(*n, *workers) }},
		{"A", func() (*report.Table, error) { return experiments.Ablations(*n) }},
	}
	os.Exit(runExperiments(all, flag.Args(), printTable, os.Stderr))
}

// experiment is one table the experiments mode can print.
type experiment struct {
	id  string
	run func() (*report.Table, error)
}

// experimentAliases maps the ids whose tables another experiment
// prints to that experiment.
var experimentAliases = map[string]string{"E6": "E5", "E9": "E8", "E10": "E8", "E11": "E8"}

// runExperiments runs the experiments args select (all when args is
// empty; ids are case-insensitive) and returns the exit status: 0, 1
// when an experiment fails, or 2 when an id is unknown, in which case
// nothing runs and the valid ids go to stderr.
func runExperiments(all []experiment, args []string, printTable func(*report.Table), stderr io.Writer) int {
	want := map[string]bool{}
	var unknown []string
	for _, a := range args {
		id := strings.ToUpper(a)
		if to, ok := experimentAliases[id]; ok {
			id = to
		}
		if !slices.ContainsFunc(all, func(e experiment) bool { return e.id == id }) {
			unknown = append(unknown, a)
		}
		want[id] = true
	}
	if len(unknown) > 0 {
		ids := make([]string, len(all))
		for i, e := range all {
			ids[i] = e.id
		}
		fmt.Fprintf(stderr, "unknown experiment %s; valid ids: %s (E6 runs with E5, E9-E11 with E8)\n",
			strings.Join(unknown, ", "), strings.Join(ids, " "))
		return 2
	}
	failed := 0
	for _, e := range all {
		if len(want) > 0 && !want[e.id] {
			continue
		}
		t, err := e.run()
		if t != nil {
			printTable(t)
		}
		if err != nil {
			fmt.Fprintf(stderr, "%s FAILED: %v\n", e.id, err)
			failed++
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// runCacheGC applies the -cache-max-bytes budget to the exploration
// cache directory after a run: artifacts are evicted oldest-access
// first, retired schema versions included, until the directory fits.
func runCacheGC(cacheDir string, maxBytes int64) error {
	if cacheDir == "" || maxBytes <= 0 {
		return nil
	}
	eng := &explore.Engine{CacheDir: cacheDir}
	st, err := eng.CacheGC(maxBytes)
	if err != nil {
		return fmt.Errorf("cache gc: %w", err)
	}
	fmt.Printf("cache gc: %d of %d artifacts evicted (%d -> %d bytes, budget %d)\n",
		st.RemovedFiles, st.ScannedFiles, st.ScannedBytes, st.RemainingBytes, maxBytes)
	if len(st.Kinds) > 0 {
		t := report.New("cache gc per kind",
			"kind", "scanned files", "scanned bytes", "evicted files", "evicted bytes")
		for _, k := range st.Kinds {
			t.Add(k.Kind, k.ScannedFiles, k.ScannedBytes, k.RemovedFiles, k.RemovedBytes)
		}
		fmt.Println(t)
	}
	return nil
}

// parseSizes turns the -sizes flag into a size list.
func parseSizes(sizeList string) ([]int, error) {
	var sizes []int
	for _, f := range strings.Split(sizeList, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.Atoi(f)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad buffer size %q", f)
		}
		sizes = append(sizes, v)
	}
	if len(sizes) == 0 {
		return nil, fmt.Errorf("no buffer sizes given")
	}
	return sizes, nil
}

// loadSources parses the -src file list into a named source table. Names
// are file basenames without extension; duplicates are rejected rather
// than silently shadowed.
func loadSources(fileList string) (map[string]*ir.Program, []string, error) {
	sources := map[string]*ir.Program{}
	var names []string
	for _, path := range strings.Split(fileList, ",") {
		path = strings.TrimSpace(path)
		if path == "" {
			continue
		}
		text, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, err
		}
		name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		if _, dup := sources[name]; dup {
			return nil, nil, fmt.Errorf("duplicate source name %q (from %s)", name, path)
		}
		prog, err := parser.Parse(name, string(text))
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		sources[name] = prog
		names = append(names, name)
	}
	if len(names) == 0 {
		return nil, nil, fmt.Errorf("no source files given")
	}
	return sources, names, nil
}

// runSweepLocal executes the standalone exploration sweep and prints the
// point cloud, the Pareto frontier, and the engine's cache statistics.
// The context (SIGINT/SIGTERM) and the -deadline flag both cancel the
// sweep mid-run; a cancelled sweep reports how far it got and fails.
func runSweepLocal(ctx context.Context, sizeList, srcFiles, cacheDir, remoteCache string,
	workers, simTrials int, deadline time.Duration, printTable func(*report.Table)) error {
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}
	eng := &explore.Engine{Workers: workers, SimTrials: simTrials, CacheDir: cacheDir, RemoteCache: remoteCache}
	var space []explore.Config
	if srcFiles != "" {
		sources, names, err := loadSources(srcFiles)
		if err != nil {
			return err
		}
		eng.Sources = sources
		space = explore.GridSources(names, explore.Variants(), []int{0, 8}, true)
	} else {
		sizes, err := parseSizes(sizeList)
		if err != nil {
			return err
		}
		space = explore.Grid(sizes, explore.Variants(), []int{0, 8}, true)
	}
	pts := eng.SweepContext(ctx, space)
	printTable(explore.Table(fmt.Sprintf("design-space sweep (%d configs)", len(space)), pts))
	printTable(explore.Table("latency/area Pareto frontier", explore.Frontier(pts)))
	printTable(cacheTable(eng.Stats()))
	fmt.Printf("workers: %d\n", eng.EffectiveWorkers(len(space)))
	failed, skipped := 0, 0
	for _, p := range pts {
		switch {
		case explore.IsCanceled(p):
			skipped++
		case p.Err != "":
			failed++
		}
	}
	if skipped > 0 {
		return fmt.Errorf("sweep canceled: %d of %d configurations not evaluated (%v)",
			skipped, len(space), context.Cause(ctx))
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d configurations failed", failed, len(space))
	}
	return nil
}

// cacheTable renders the engine's per-stage cache statistics: where each
// lookup was served from (memory, disk, the remote peer, or computed by
// synthesis), one row per layer of the staged flow, plus a row for the
// absorbed store errors.
func cacheTable(s explore.Stats) *report.Table {
	t := report.New("exploration cache statistics",
		"layer", "memory hits", "disk hits", "remote hits", "computed", "errors")
	t.Add("point", s.PointMemHits, s.PointDiskHits, s.PointRemoteHits, s.PointComputed, "")
	t.Add("frontend stage", s.FrontendMemHits, s.FrontendDiskHits, s.FrontendRemoteHits, s.FrontendComputed, "")
	t.Add("midend stage", s.MidendMemHits, s.MidendDiskHits, s.MidendRemoteHits, s.MidendComputed, "")
	t.Add("backend stage", s.BackendMemHits, s.BackendDiskHits, s.BackendRemoteHits, s.BackendComputed, "")
	t.Add("disk", "", "", "", "", s.DiskErrors)
	t.Add("remote", "", "", "", "", s.RemoteErrors)
	return t
}
