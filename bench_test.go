// Package sparkgo's root benchmark harness regenerates every figure-level
// result of the paper (DESIGN.md §4). Each benchmark wraps one experiment
// from internal/experiments: the table is printed once (so `go test
// -bench=. -benchmem | tee bench_output.txt` records the reproduced
// figures) and the measured loop times the full experiment pipeline —
// parse, transform, schedule, build RTL, and co-simulate.
//
//	BenchmarkFig02_Unroll              E1   loop unrolling (Fig 2)
//	BenchmarkFig03_ConstPropParallel   E2   index elimination (Fig 3)
//	BenchmarkFig04_ChainAcrossCond     E3   chaining across conditionals
//	BenchmarkFig05_ChainingTrails      E4   trail enumeration (Fig 5)
//	BenchmarkFig06_07_WireVariables    E5-6 wire-variable insertion
//	BenchmarkFig10_ILDBehavior         E7   behavioral ILD vs reference
//	BenchmarkFig11_14_ILDStages        E8-11 transformation walkthrough
//	BenchmarkFig15_SingleCycleILD      E12  the single-cycle architecture
//	BenchmarkBaseline_ClassicalHLS     E13  classical-HLS baseline
//	BenchmarkFig16_NaturalForm         E14  while→for normalization
//	BenchmarkAblation_*                A1-A4 coordination ablations
//	BenchmarkExploration               E15  full design-space sweep
//	BenchmarkExploreSweepCold          cold-cache concurrent sweep
//	BenchmarkExploreSweepWarm          cache-hit path of the same sweep
//	BenchmarkExploreSweepDiskCold      cold sweep that also populates a disk cache
//	BenchmarkExploreSweepDiskWarm      fresh engine served from on-disk artifacts
//	BenchmarkSearchHillClimb           adaptive hill-climbing search (E17)
//	BenchmarkSearchGenetic             adaptive genetic search (E17)
//	BenchmarkSynthesizeILD/n=*         end-to-end synthesis timing sweep
//	BenchmarkFrontendILD/n=*           frontend (pass fixpoint) scale curve
//	BenchmarkMidendILD/n=*             midend (lowering, dependence graph, list scheduling) scale curve
//	BenchmarkDFABuild                  dependence-graph construction at n=128
//	BenchmarkRTLSimILD                 simulated decode throughput
//	BenchmarkInterpILD                 behavioral decode throughput
package sparkgo_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"sparkgo/internal/core"
	"sparkgo/internal/dfa"
	"sparkgo/internal/experiments"
	"sparkgo/internal/explore"
	"sparkgo/internal/ild"
	"sparkgo/internal/interp"
	"sparkgo/internal/report"
	"sparkgo/internal/rtl"
	"sparkgo/internal/rtlsim"
)

// printOnce prints each experiment table a single time per process, so
// benchmark reruns don't flood the log.
var printedTables sync.Map

func emit(b *testing.B, name string, t *report.Table, err error) {
	b.Helper()
	if err != nil {
		b.Fatalf("%s: %v\n%s", name, err, tableString(t))
	}
	if _, loaded := printedTables.LoadOrStore(name, true); !loaded {
		fmt.Printf("\n%s\n", t)
	}
}

func tableString(t *report.Table) string {
	if t == nil {
		return ""
	}
	return t.String()
}

func BenchmarkFig02_Unroll(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.E1Fig02Unroll()
		emit(b, "E1", t, err)
	}
}

func BenchmarkFig03_ConstPropParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.E2Fig03ConstPropParallel()
		emit(b, "E2", t, err)
	}
}

func BenchmarkFig04_ChainAcrossCond(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.E3Fig04Chaining()
		emit(b, "E3", t, err)
	}
}

func BenchmarkFig05_ChainingTrails(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.E4Fig05Trails()
		emit(b, "E4", t, err)
	}
}

func BenchmarkFig06_07_WireVariables(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.E5E6WireVariables()
		emit(b, "E5-E6", t, err)
	}
}

func BenchmarkFig10_ILDBehavior(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.E7Fig10Behavior(20)
		emit(b, "E7", t, err)
	}
}

func BenchmarkFig11_14_ILDStages(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.E8toE11Stages(16)
		emit(b, "E8-E11", t, err)
	}
}

func BenchmarkFig15_SingleCycleILD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.E12Fig15SingleCycle([]int{4, 8, 16, 32}, 8)
		emit(b, "E12", t, err)
	}
}

func BenchmarkBaseline_ClassicalHLS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.E13Baseline([]int{4, 8, 16})
		emit(b, "E13", t, err)
	}
}

func BenchmarkFig16_NaturalForm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.E14Fig16Natural(8)
		emit(b, "E14", t, err)
	}
}

func BenchmarkAblation_Coordination(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Ablations(16)
		emit(b, "A1-A4", t, err)
	}
}

// BenchmarkExploration wraps the E15 design-space sweep.
func BenchmarkExploration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.E15Exploration(0)
		emit(b, "E15", t, err)
	}
}

// sweepSpace is the benchmark grid: every toggle variant and two unroll
// bounds over two buffer sizes, plus the classical baseline.
func sweepSpace() []explore.Config {
	return explore.Grid([]int{4, 8}, explore.Variants(), []int{0, 8}, true)
}

// BenchmarkExploreSweepCold measures a concurrent sweep with an empty
// cache each iteration: raw parallel synthesis throughput.
func BenchmarkExploreSweepCold(b *testing.B) {
	space := sweepSpace()
	b.ReportMetric(float64(len(space)), "configs")
	for i := 0; i < b.N; i++ {
		eng := &explore.Engine{}
		pts := eng.Sweep(space)
		if best := explore.BestCycles(pts); best == nil || best.Latency != 1 {
			b.Fatalf("sweep lost the 1-cycle design: %+v", best)
		}
	}
}

// BenchmarkExploreSweepWarm measures the same sweep against a warm cache:
// the memoized hit path that makes repeated/overlapping exploration cheap.
func BenchmarkExploreSweepWarm(b *testing.B) {
	space := sweepSpace()
	eng := &explore.Engine{}
	eng.Sweep(space) // prime
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts := eng.Sweep(space)
		if best := explore.BestCycles(pts); best == nil || best.Latency != 1 {
			b.Fatalf("warm sweep lost the 1-cycle design: %+v", best)
		}
	}
}

// BenchmarkExploreSweepDiskCold measures a cold sweep that additionally
// writes every stage artifact and evaluated point to a fresh disk cache:
// the write-side overhead of persistence.
func BenchmarkExploreSweepDiskCold(b *testing.B) {
	space := sweepSpace()
	b.ReportMetric(float64(len(space)), "configs")
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		b.StartTimer()
		eng := &explore.Engine{CacheDir: dir}
		pts := eng.Sweep(space)
		if best := explore.BestCycles(pts); best == nil || best.Latency != 1 {
			b.Fatalf("disk-cold sweep lost the 1-cycle design: %+v", best)
		}
	}
}

// BenchmarkExploreSweepDiskWarm measures the restart path the disk cache
// exists for: each iteration builds a completely fresh engine — empty
// memory caches, standing in for a new process — against a pre-populated
// cache directory. Compare against BenchmarkExploreSweepCold for the
// persistence payoff.
func BenchmarkExploreSweepDiskWarm(b *testing.B) {
	space := sweepSpace()
	dir := b.TempDir()
	prime := &explore.Engine{CacheDir: dir}
	prime.Sweep(space)
	b.ReportMetric(float64(len(space)), "configs")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := &explore.Engine{CacheDir: dir}
		pts := eng.Sweep(space)
		if best := explore.BestCycles(pts); best == nil || best.Latency != 1 {
			b.Fatalf("disk-warm sweep lost the 1-cycle design: %+v", best)
		}
		if st := eng.Stats(); st.PointComputed != 0 {
			b.Fatalf("disk-warm sweep synthesized %d configs, want 0", st.PointComputed)
		}
	}
}

// benchSearch measures one adaptive search strategy on a cold engine per
// iteration: the cost of finding the best design with a fixed evaluation
// budget, stage-cache sharing included.
func benchSearch(b *testing.B, st explore.Strategy) {
	sp := explore.DefaultSpace(8)
	obj := explore.WeightedObjective(1000, 1)
	budget := explore.Budget{MaxEvaluations: 20}
	b.ReportMetric(float64(budget.MaxEvaluations), "evals")
	for i := 0; i < b.N; i++ {
		eng := &explore.Engine{}
		res := st.Search(eng, sp, obj, budget, 1)
		if res.Best.Err != "" || res.Best.Latency != 1 {
			b.Fatalf("search lost the 1-cycle design: %+v", res.Best)
		}
	}
}

func BenchmarkSearchHillClimb(b *testing.B) { benchSearch(b, explore.HillClimb{}) }

func BenchmarkSearchGenetic(b *testing.B) { benchSearch(b, explore.Genetic{}) }

// BenchmarkSynthesizeILD times the full coordinated flow per buffer size:
// the "design space exploration speed" the paper positions Spark for.
func BenchmarkSynthesizeILD(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			p := ild.Program(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := core.Synthesize(p, core.Options{Preset: core.MicroprocessorBlock})
				if err != nil {
					b.Fatal(err)
				}
				if res.Cycles != 1 {
					b.Fatalf("n=%d: %d cycles", n, res.Cycles)
				}
			}
		})
	}
}

// BenchmarkFrontendILD times the microprocessor-block frontend (the
// pass pipeline to its fixed point, including the per-pass census) on
// the ILD, whose unrolled body grows linearly with n.
func BenchmarkFrontendILD(b *testing.B) {
	opt := core.Options{Preset: core.MicroprocessorBlock}.FrontendOptions()
	for _, n := range []int{32, 64, 128, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			p := ild.Program(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Frontend(p, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchMidendInput runs the microprocessor-block frontend on the size-n
// ILD, so a benchmark can time the midend alone.
func benchMidendInput(b *testing.B, n int) (*core.FrontendArtifact, core.MidendOptions) {
	b.Helper()
	opt := core.Options{Preset: core.MicroprocessorBlock}
	fa, err := core.Frontend(ild.Program(n), opt.FrontendOptions())
	if err != nil {
		b.Fatal(err)
	}
	return fa, opt.MidendOptions()
}

// BenchmarkMidendILD times the chain-mode midend (HTG lowering,
// dependence graph and list scheduling) on the fully unrolled ILD, where
// the dependence graph grows quadratically with n.
func BenchmarkMidendILD(b *testing.B) {
	for _, n := range []int{32, 64, 128, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			fa, opt := benchMidendInput(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ma, err := core.Midend(fa, opt)
				if err != nil {
					b.Fatal(err)
				}
				if ma.Cycles != 1 {
					b.Fatalf("n=%d: %d cycles", n, ma.Cycles)
				}
			}
		})
	}
}

// BenchmarkDFABuild times dependence-graph construction alone over the
// n=128 ILD's lowered operations.
func BenchmarkDFABuild(b *testing.B) {
	fa, opt := benchMidendInput(b, 128)
	ma, err := core.Midend(fa, opt)
	if err != nil {
		b.Fatal(err)
	}
	ops := ma.Graph.AllOps()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dfa.Build(ops, dfa.DefaultOptions())
	}
}

// benchSimWorkload synthesizes the n=32 ILD design under the given
// preset and draws the 64-trial stimulus set the scalar-vs-batch
// simulator benchmarks share.
func benchSimWorkload(b *testing.B, preset core.Preset) (*core.Result, []*interp.Env) {
	b.Helper()
	p := ild.Program(32)
	res, err := core.Synthesize(p, core.Options{Preset: preset})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	envs := make([]*interp.Env, rtlsim.MaxLanes)
	for i := range envs {
		envs[i] = interp.RandomEnv(p, rng)
	}
	return res, envs
}

// benchmarkSimScalar measures the per-trial scalar loop the evaluation
// layers used before batching: one fresh Sim per stimulus vector, a map
// allocated every cycle. Run with -benchmem to see the allocation cost.
func benchmarkSimScalar(b *testing.B, preset core.Preset) {
	res, envs := benchSimWorkload(b, preset)
	maxCycles := rtlsim.WatchdogCycles(res.Module.NumStates)
	b.ReportMetric(float64(len(envs)), "trials")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, env := range envs {
			sim := rtlsim.New(res.Module)
			if err := sim.LoadEnv(res.Input, env); err != nil {
				b.Fatal(err)
			}
			if _, err := sim.Run(maxCycles); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchmarkSimBatch measures a compiled batched path on the same
// workload, including the per-point Compile cost the exploration engine
// pays: lower the netlist once, step all 64 trials in lockstep lanes.
// The compile argument selects the execution model (bit-sliced
// rtlsim.Compile vs struct-of-arrays rtlsim.CompileSoA).
func benchmarkSimBatch(b *testing.B, preset core.Preset, compile func(*rtl.Module) *rtlsim.Program) {
	res, envs := benchSimWorkload(b, preset)
	maxCycles := rtlsim.WatchdogCycles(res.Module.NumStates)
	b.ReportMetric(float64(len(envs)), "trials")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog := compile(res.Module)
		batch := prog.NewBatch(len(envs))
		for ln, env := range envs {
			if err := batch.LoadEnv(ln, res.Input, env); err != nil {
				b.Fatal(err)
			}
		}
		if err := batch.Run(maxCycles); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimScalarILD / BenchmarkSimBatchILD / BenchmarkSimBitParILD:
// 64 trials of the paper's single-cycle n=32 decoder — the dominant cost
// of a disk-warm-sim sweep — on the scalar reference, the
// struct-of-arrays batch, and the bit-sliced batch.
func BenchmarkSimScalarILD(b *testing.B) { benchmarkSimScalar(b, core.MicroprocessorBlock) }

func BenchmarkSimBatchILD(b *testing.B) {
	benchmarkSimBatch(b, core.MicroprocessorBlock, rtlsim.CompileSoA)
}

func BenchmarkSimBitParILD(b *testing.B) {
	benchmarkSimBatch(b, core.MicroprocessorBlock, rtlsim.Compile)
}

// The same three-way comparison on the sequential classical-ASIC FSM,
// where the scalar loop's per-cycle map allocation multiplies with the
// cycle count and the control network dominates the gate mix.
func BenchmarkSimScalarILDClassical(b *testing.B) { benchmarkSimScalar(b, core.ClassicalASIC) }

func BenchmarkSimBatchILDClassical(b *testing.B) {
	benchmarkSimBatch(b, core.ClassicalASIC, rtlsim.CompileSoA)
}

func BenchmarkSimBitParILDClassical(b *testing.B) {
	benchmarkSimBatch(b, core.ClassicalASIC, rtlsim.Compile)
}

// BenchmarkMidendAllocs pins the allocation count of the midend builders
// — HTG lowering plus the RTL signal web — which carve their nodes from
// fixed-size arenas instead of allocating per op/signal. Run with
// -benchmem; the allocs/op figure is the regression guard for the arena
// paths in internal/htg/lower.go and internal/rtl/netlist.go.
func BenchmarkMidendAllocs(b *testing.B) {
	p := ild.Program(32)
	opt := core.Options{Preset: core.ClassicalASIC}
	fa, err := core.Frontend(p, opt.FrontendOptions())
	if err != nil {
		b.Fatal(err)
	}
	mo := opt.MidendOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ma, err := core.Midend(fa, mo)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := rtl.Build(ma.Schedule); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRTLSimILD measures cycle-accurate simulation throughput of the
// synthesized single-cycle decoder.
func BenchmarkRTLSimILD(b *testing.B) {
	n := 16
	p := ild.Program(n)
	res, err := core.Synthesize(p, core.Options{Preset: core.MicroprocessorBlock})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	buf := ild.RandomBuffer(rng, n)
	vals := make([]int64, len(buf))
	for i, x := range buf {
		vals[i] = int64(x)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim := rtlsim.New(res.Module)
		if err := sim.SetArray("B", vals); err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterpILD measures behavioral (golden model) decode throughput
// for comparison with the RTL simulation.
func BenchmarkInterpILD(b *testing.B) {
	n := 16
	p := ild.Program(n)
	rng := rand.New(rand.NewSource(1))
	buf := ild.RandomBuffer(rng, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env := interp.NewEnv(p)
		if err := ild.LoadBuffer(p, env, buf); err != nil {
			b.Fatal(err)
		}
		if _, err := interp.New(p).RunMain(env); err != nil {
			b.Fatal(err)
		}
	}
}
