package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"sparkgo/internal/cache"
	"sparkgo/internal/core"
	"sparkgo/internal/dfa"
	"sparkgo/internal/explore"
	"sparkgo/internal/htg"
	"sparkgo/internal/interp"
	"sparkgo/internal/ir"
	"sparkgo/internal/parser"
	"sparkgo/internal/rtl"
	"sparkgo/internal/rtlsim"
	"sparkgo/internal/sched"
)

// samples accumulates per-call layer measurements by metric name; a
// sample taken at a synth-scale size also lands under "<name>.n<size>".
type samples map[string][]float64

func (s samples) add(name string, n int, v float64) {
	s[name] = append(s[name], v)
	if n > 0 {
		key := fmt.Sprintf("%s.n%d", name, n)
		s[key] = append(s[key], v)
	}
}

func (s samples) mean(name string) float64 { return mean(s[name]) }

func (s samples) sum(name string) float64 {
	t := 0.0
	for _, v := range s[name] {
		t += v
	}
	return t
}

// timeIn runs f inside a traced span and returns its duration in ms.
func timeIn(tr *tracer, name string, parent int, f func()) float64 {
	return ms(tr.do(name, parent, f))
}

// decodeAllocs runs a decode inside a span and counts its heap
// allocations. The traced replays are serial, so the process-wide
// malloc counter is the decode's own.
func decodeAllocs(tr *tracer, name string, parent int, f func()) (float64, float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d := timeIn(tr, name, parent, f)
	runtime.ReadMemStats(&after)
	return d, float64(after.Mallocs - before.Mallocs)
}

// coldReplay runs one design's cold path through the public function of
// each layer in the order the exploration engine runs them, with a span
// around every call, and records the measurements under size n (0: no
// per-size record). It also replays the midend's phases on a clone of
// the frontend output (HTG lowering, dependence graph, list scheduling)
// and exercises each artifact codec and the disk store on the design's
// own payloads. attributed returns the time of the calls that make up
// an engine evaluation, which explore.unattributed_ms subtracts.
func coldReplay(tr *tracer, s samples, src string, n int, cfg explore.Config, trials int,
	rng *rand.Rand, store *cache.Store) (attributed float64, err error) {
	root := tr.begin("replay.cold", 0)
	defer tr.end(root)
	opt := cfg.Options()

	var input *ir.Program
	parse := timeIn(tr, "parser.parse", root, func() { input, err = parser.Parse(fmt.Sprintf("ild%d", n), src) })
	if err != nil {
		return 0, err
	}
	var fa *core.FrontendArtifact
	fe := timeIn(tr, "core.frontend", root, func() { fa, err = core.Frontend(input, opt.FrontendOptions()) })
	if err != nil {
		return 0, err
	}
	var ma *core.MidendArtifact
	me := timeIn(tr, "core.midend", root, func() { ma, err = core.Midend(fa, opt.MidendOptions()) })
	if err != nil {
		return 0, err
	}
	var ba *core.BackendArtifact
	be := timeIn(tr, "core.backend", root, func() { ba, err = core.Backend(ma, opt.BackendOptions()) })
	if err != nil {
		return 0, err
	}
	s.add("parser.parse_ms", 0, parse)
	s.add("core.frontend_ms", n, fe)
	s.add("core.midend_ms", n, me)
	s.add("core.backend_ms", n, be)

	runs, changes := 0, 0
	for _, st := range fa.PassStats {
		s.add("pass."+passMetric(st.Name)+"_ms", 0, ms(st.Duration))
		runs += st.Runs
		changes += st.Changes
	}
	s.add("pass.rounds", 0, float64(fa.Rounds))
	s.add("pass.runs", 0, float64(runs))
	s.add("pass.changes", 0, float64(changes))
	s.add("pass.ir_ops_out", 0, float64(ir.CountOps(fa.Program.Main())))

	enc, err := codecs(tr, s, root, n, fa.Program, ma.Schedule, ba.Module)
	if err != nil {
		return 0, err
	}
	if err := storeRoundTrip(tr, s, root, store, enc); err != nil {
		return 0, err
	}

	sim := simulate(tr, s, root, input, ba.Module, trials, rng)

	// The midend's phases, on a clone of the frontend output: lowering
	// consumes the program it is given.
	clone := ir.CloneProgram(fa.Program)
	phases := tr.begin("replay.midend_phases", 0)
	var g *htg.Graph
	lower := timeIn(tr, "htg.lower", phases, func() { g, err = htg.Lower(clone, clone.Main()) })
	if err != nil {
		tr.end(phases)
		return 0, err
	}
	var dg *dfa.Graph
	build := timeIn(tr, "dfa.build", phases, func() { dg = dfa.Build(g.AllOps(), dfa.DefaultOptions()) })
	var res *sched.Result
	schedule := timeIn(tr, "sched.schedule", phases, func() { res, err = sched.Schedule(g, sched.DefaultConfig()) })
	tr.end(phases)
	if err != nil {
		return 0, err
	}
	edges := 0
	for _, es := range dg.Succs {
		edges += len(es)
	}
	s.add("htg.lower_ms", n, lower)
	s.add("htg.ops", n, float64(g.OpCount()))
	s.add("dfa.build_ms", n, build)
	s.add("dfa.edges", n, float64(edges))
	s.add("sched.schedule_ms", n, schedule)
	// Schedule builds its own dependence graph; the list scheduler's
	// share is what remains.
	s.add("sched.list_ms", n, schedule-build)
	s.add("sched.states", n, float64(res.NumStates))

	var mod *rtl.Module
	build = timeIn(tr, "rtl.build", 0, func() { mod, err = rtl.Build(ma.Schedule) })
	if err != nil {
		return 0, err
	}
	s.add("rtl.build_ms", 0, build)
	s.add("rtl.gates", 0, float64(len(mod.Gates)))

	return parse + fe + me + be + enc.encodeMS + sim, nil
}

// passMetric maps a pass's reported name to its pass.<name>_ms metric,
// which uses the pass-spec spelling ("const-prop" reports as constprop).
func passMetric(stat string) string {
	name, _, _ := strings.Cut(stat, "(")
	switch name {
	case "unroll-full":
		return "unroll"
	case "const-prop", "const-fold", "copy-prop":
		return strings.ReplaceAll(name, "-", "")
	}
	return name
}

// encoded holds one design's three artifact encodings.
type encoded struct {
	bytes    map[string][]byte
	encodeMS float64
}

// codecs encodes and decodes the design's artifacts with the ir, sched
// and rtl wire codecs.
func codecs(tr *tracer, s samples, parent, n int, prog *ir.Program, res *sched.Result, mod *rtl.Module) (encoded, error) {
	out := encoded{bytes: map[string][]byte{}}
	var err error
	type codec struct {
		kind   string
		encode func() ([]byte, error)
		decode func([]byte) error
	}
	for _, c := range []codec{
		{"frontend", func() ([]byte, error) { return ir.EncodeProgram(prog) },
			func(b []byte) error { _, err := ir.DecodeProgram(b); return err }},
		{"midend", func() ([]byte, error) { return sched.EncodeResult(res) },
			func(b []byte) error { _, err := sched.DecodeResult(b); return err }},
		{"backend", func() ([]byte, error) { return rtl.EncodeModule(mod) },
			func(b []byte) error { _, err := rtl.DecodeModule(b); return err }},
	} {
		var b []byte
		d := timeIn(tr, "wire.encode."+c.kind, parent, func() { b, err = c.encode() })
		if err != nil {
			return out, fmt.Errorf("encode %s: %w", c.kind, err)
		}
		dec, allocs := decodeAllocs(tr, "wire.decode."+c.kind, parent, func() { err = c.decode(b) })
		if err != nil {
			return out, fmt.Errorf("decode %s: %w", c.kind, err)
		}
		out.bytes[c.kind] = b
		out.encodeMS += d
		s.add("wire.encode_ms."+c.kind, n, d)
		s.add("wire.decode_ms."+c.kind, 0, dec)
		s.add("wire.bytes."+c.kind, 0, float64(len(b)))
		s.add("wire.decode_allocs."+c.kind, 0, allocs)
	}
	return out, nil
}

// storeRoundTrip writes each encoding to the disk store under a fresh
// key and reads it back; Get verifies the payload hash.
func storeRoundTrip(tr *tracer, s samples, parent int, store *cache.Store, enc encoded) error {
	for _, kind := range artifactKinds {
		key := fmt.Sprintf("%s-%d", kind, time.Now().UnixNano())
		var err error
		put := timeIn(tr, "cache.put", parent, func() { err = store.Put(kind, key, enc.bytes[kind]) })
		if err != nil {
			return fmt.Errorf("cache put: %w", err)
		}
		var ok bool
		get := timeIn(tr, "cache.get", parent, func() { _, ok, err = store.Get(kind, key) })
		if err != nil || !ok {
			return fmt.Errorf("cache get %s: ok=%v err=%v", kind, ok, err)
		}
		s.add("cache.put_ms", 0, put)
		s.add("cache.get_ms", 0, get)
	}
	return nil
}

// simulate compiles the netlist and runs it on random stimulus in
// batched lanes, as the engine's latency measurement does, and returns
// the time of both calls in ms.
func simulate(tr *tracer, s samples, parent int, input *ir.Program, mod *rtl.Module, trials int, rng *rand.Rand) float64 {
	var prog *rtlsim.Program
	compile := timeIn(tr, "rtlsim.compile", parent, func() { prog = rtlsim.Compile(mod) })
	envs := make([]*interp.Env, trials)
	for i := range envs {
		envs[i] = interp.RandomEnv(input, rng)
	}
	var lanes []rtlsim.LaneResult
	run := timeIn(tr, "rtlsim.run", parent, func() {
		lanes = prog.RunBatch(input, envs, rtlsim.WatchdogCycles(mod.NumStates))
	})
	cycles := 0
	for _, l := range lanes {
		cycles += l.Cycles
	}
	mix := prog.Mix()
	s.add("rtlsim.compile_ms", 0, compile)
	s.add("rtlsim.run_ms", 0, run)
	s.add("rtlsim.sim_cycles", 0, float64(cycles))
	s.add("rtlsim.run_ns", 0, run*1e6)
	s.add("rtlsim.insns", 0, float64(mix.Total()))
	s.add("rtlsim.packed", 0, float64(mix.Packed))
	return compile + run
}

// layerMetrics turns the accumulated samples into the per-layer metric
// set: means per call for times and sizes, totals-based ratios.
func layerMetrics(s samples) *metricSet {
	out := newLayerSet()
	for _, l := range layerCatalog() {
		if vs, ok := s[l.name]; ok {
			out.set(l.name, mean(vs), l.unit)
		}
	}
	// pass.<name>_ms is per design: a pass that never ran in a design
	// contributes nothing to its mean.
	designs := float64(len(s["pass.runs"]))
	for _, p := range passNames {
		out.set("pass."+p+"_ms", ratio(s.sum("pass."+p+"_ms"), designs), "ms")
	}
	out.set("pass.useful_ratio", ratio(s.sum("pass.changes"), s.sum("pass.runs")), "ratio")
	out.set("rtlsim.ns_per_lane_cycle", ratio(s.sum("rtlsim.run_ns"), s.sum("rtlsim.sim_cycles")), "ns")
	out.set("rtlsim.packed_frac", ratio(s.sum("rtlsim.packed"), s.sum("rtlsim.insns")), "ratio")
	return out
}
