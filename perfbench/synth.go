package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"sparkgo/internal/cache"
	"sparkgo/internal/core"
	"sparkgo/internal/explore"
	"sparkgo/internal/ild"
	"sparkgo/internal/ir"
	"sparkgo/internal/obs"
	"sparkgo/internal/parser"
)

// synthTrials is synth-scale's simulation depth per design.
const synthTrials = 64

// ildCasesPerDesign is how many seeded instruction buffers the
// correctness gate decodes per design.
const ildCasesPerDesign = 64

// synthInputs is synth-scale's set-up: the generated ILD sources, the
// seeded instruction buffers with their reference decodes, and a
// reference design per size synthesized directly with core.Synthesize.
type synthInputs struct {
	src   map[int]string
	cases map[int][]ildCase
	ref   map[int]*core.Result
}

func synthConfig(n int) explore.Config {
	return explore.Config{N: n, Preset: core.MicroprocessorBlock}
}

func prepareSynth(seed int64, corrupt bool) (*synthInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &synthInputs{src: map[int]string{}, cases: map[int][]ildCase{}, ref: map[int]*core.Result{}}
	for _, n := range sizes {
		in.src[n] = ild.SourceFig10(n)
		in.cases[n] = ildCases(rng, n, ildCasesPerDesign)
		prog, err := parser.Parse(fmt.Sprintf("ild%d", n), in.src[n])
		if err != nil {
			return nil, err
		}
		res, err := core.Synthesize(prog, synthConfig(n).Options())
		if err != nil {
			return nil, fmt.Errorf("reference synthesis n=%d: %w", n, err)
		}
		in.ref[n] = res
	}
	if corrupt {
		corruptCases(in.cases[sizes[0]])
	}
	return in, nil
}

// source is the engine's program generator: it parses the generated
// text, so parsing stays inside the measured evaluation.
func (in *synthInputs) source(n int) *ir.Program {
	return parser.MustParse(fmt.Sprintf("ild%d", n), in.src[n])
}

// evalCold evaluates one design on a fresh engine with no disk tier and
// returns the point, its latency and the engine, whose memory tier
// holds the design's artifacts.
func (in *synthInputs) evalCold(n int, bus *obs.Bus) (explore.Point, time.Duration, *explore.Engine) {
	eng := &explore.Engine{Workers: 1, SimTrials: synthTrials, Source: in.source, Obs: bus}
	start := time.Now()
	pt := eng.EvaluateContext(context.Background(), synthConfig(n))
	return pt, time.Since(start), eng
}

// design is one evaluated design as the gate sees it: the engine's
// point and the result of simulating the engine's own netlist on the
// seeded instruction buffers.
type design struct {
	pt     explore.Point
	netErr error
}

// check decodes the netlist an engine produced for size n and compares
// its Mark and Len outputs with the reference decoder's. The caller
// runs it outside the measured evaluation.
func (in *synthInputs) check(eng *explore.Engine, n int, pt explore.Point) design {
	mod, err := storedNetlist(eng, in.source(n), synthConfig(n))
	if err == nil {
		err = checkILD(mod, n, in.cases[n])
	}
	return design{pt: pt, netErr: err}
}

// gate is synth-scale's correctness check, run outside the timed
// region: every evaluated design must decode the seeded buffers exactly
// as ild.Decode does, match its size's reference design (cycles, area,
// critical path, muxes, FUs), have one FSM state and simulate in one
// cycle.
func (in *synthInputs) gate(out *outcome, designs map[int][]design) {
	for _, n := range sizes {
		ref := in.ref[n]
		want := explore.Point{Cycles: ref.Cycles, Area: ref.Stats.Area, CritPath: ref.Stats.CriticalPath,
			Muxes: ref.Stats.Muxes, FUs: ref.Stats.FUs}
		for i, d := range designs[n] {
			out.attempted++
			switch {
			case d.netErr != nil:
				out.fail("synth n=%d design %d: %v", n, i, d.netErr)
			case samePoint(d.pt, want) != "":
				out.fail("synth n=%d design %d: %s", n, i, samePoint(d.pt, want))
			case d.pt.Cycles != 1:
				out.fail("synth n=%d design %d: %d FSM states, want 1", n, i, d.pt.Cycles)
			case d.pt.Latency != 1:
				out.fail("synth n=%d design %d: simulated latency %d, want 1", n, i, d.pt.Latency)
			}
		}
	}
}

func runSynthScale(opt options) (*outcome, error) {
	out := &outcome{}
	var in *synthInputs
	var setups []time.Duration
	for i := 0; i < setupReps(opt); i++ {
		start := time.Now()
		var err error
		if in, err = prepareSynth(opt.seed, opt.corrupt); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start))
	}
	beginTimedPhase()
	if opt.trace {
		return traceSynthScale(opt, in, out)
	}
	rng := rand.New(rand.NewSource(opt.seed))
	designs := map[int][]design{}
	var e e2e
	e.setup = setups
	// The timed phase is the evaluations alone; each design's netlist
	// check runs between them, outside the measured time.
	end := deadline(opt)
	for len(e.latencies) == 0 || time.Now().Before(end) {
		for _, i := range rng.Perm(len(sizes)) {
			n := sizes[i]
			pt, d, eng := in.evalCold(n, nil)
			e.latencies = append(e.latencies, d)
			e.timed += d
			designs[n] = append(designs[n], in.check(eng, n, pt))
		}
	}
	in.gate(out, designs)
	for _, n := range sizes {
		if ds := designs[n]; len(ds) > 0 {
			e.designs = append(e.designs, [2]float64{float64(ds[0].pt.Latency), ds[0].pt.Area})
		}
	}
	out.metrics = e.metrics(out)
	return out, nil
}

// traceSynthScale is synth-scale's traced run. Each round evaluates
// every size three ways: on an engine without tracing (the overhead
// baseline), on an engine whose obs-bus events are folded into spans
// under an explore.eval span, and as a cold replay through each layer's
// public functions.
func traceSynthScale(opt options, in *synthInputs, out *outcome) (*outcome, error) {
	tr := newTracer(fmt.Sprintf("synth-scale/seed%d", opt.seed))
	store, err := cache.Open(filepath.Join(opt.dir, "layer-cache"), "perfbench")
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opt.seed))
	s := samples{}
	designs := map[int][]design{}
	var untraced, traced, unattributed []float64
	end := deadline(opt)
	for len(traced) == 0 || time.Now().Before(end) {
		for _, i := range rng.Perm(len(sizes)) {
			n := sizes[i]
			_, d, _ := in.evalCold(n, nil)
			untraced = append(untraced, ms(d))

			bus := obs.NewBus(nil)
			sub := bus.Subscribe(4096)
			id := tr.begin("explore.eval", 0)
			pt, _, eng := in.evalCold(n, bus)
			eval := ms(tr.end(id))
			tr.foldObs(drain(sub), id, true)
			bus.Unsubscribe(sub)
			traced = append(traced, eval)
			designs[n] = append(designs[n], in.check(eng, n, pt))
			s.add("explore.eval_ms", 0, eval)
			addStats(s, eng.Stats())

			attributed, err := coldReplay(tr, s, in.src[n], n, synthConfig(n), synthTrials, rng, store)
			if err != nil {
				return nil, err
			}
			unattributed = append(unattributed, eval-attributed)
		}
	}
	in.gate(out, designs)
	if err := tr.write(traceFile(opt)); err != nil {
		return nil, err
	}
	m := layerMetrics(s)
	setStatRatios(m, s)
	m.set("explore.unattributed_ms", mean(unattributed), "ms")
	m.set("trace.overhead_frac", ratio(mean(traced)-mean(untraced), mean(untraced)), "ratio")
	out.metrics = m
	roadmapCheck(out, s)
	tr.selfTimeNotes(out)
	out.note("spans written to %s", traceFile(opt))
	return out, nil
}

// roadmapCheck compares the traced breakdown with ROADMAP's "where the
// cost moved" figures and prints the verdicts.
func roadmapCheck(out *outcome, s samples) {
	verdict := func(ok bool) string {
		if ok {
			return "holds"
		}
		return "does not hold"
	}
	fe32, me32 := s.mean("core.frontend_ms.n32"), s.mean("core.midend_ms.n32")
	out.note("roadmap: frontend %.1f ms at n=32 (claimed 70-125): %s", fe32, verdict(fe32 >= 70 && fe32 <= 125))
	out.note("roadmap: midend %.1f ms at n=32 (claimed 25-65): %s", me32, verdict(me32 >= 25 && me32 <= 65))
	fe := s.sum("core.frontend_ms")
	cd := ratio(s.sum("pass.cse_ms")+s.sum("pass.dce_ms"), fe)
	out.note("roadmap: cse+dce %.0f%% of frontend time (claimed ~70%%): %s", 100*cd, verdict(cd >= 0.6 && cd <= 0.8))
	me64, me128 := s.mean("core.midend_ms.n64"), s.mean("core.midend_ms.n128")
	for _, g := range []struct {
		from, to int
		x        float64
	}{{32, 64, ratio(me64, me32)}, {64, 128, ratio(me128, me64)}} {
		out.note("roadmap: midend x%.1f from n=%d to n=%d (claimed ~7x per doubling): %s",
			g.x, g.from, g.to, verdict(g.x >= 5 && g.x <= 9))
	}
	enc := 0.0
	for _, k := range artifactKinds {
		enc += s.sum("wire.encode_ms." + k)
	}
	cold := fe + s.sum("core.midend_ms") + s.sum("core.backend_ms")
	out.note("roadmap: cold-path wire encode %.0f%% of stage time (not in ROADMAP's figures)", 100*ratio(enc, cold))
}
