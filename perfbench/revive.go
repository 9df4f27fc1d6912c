package main

import (
	"context"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"sparkgo/internal/cache"
	"sparkgo/internal/core"
	"sparkgo/internal/explore"
	"sparkgo/internal/ild"
	"sparkgo/internal/ir"
	"sparkgo/internal/obs"
	"sparkgo/internal/rtl"
	"sparkgo/internal/sched"
)

// reviveTrials is explore-revive's simulation depth, in set-up and in
// the timed phase alike.
const reviveTrials = 64

// reviveSizes and reviveSpace are the grid set-up populates the cache
// with. The unit of work is one pass over the whole grid, the
// restart-and-reverify sweep a user waits for. (Per point, the median
// sat on the boundary between the n = 16 and n = 32 points, which
// every pass splits exactly in half, so it read the slowest n = 16 or
// the fastest n = 32 sample and moved by a quarter between runs.)
var reviveSizes = []int{8, 16, 32, 64}

func reviveSpace() []explore.Config {
	return explore.Grid(reviveSizes, explore.Variants(), []int{0, 8}, true)
}

// populate is explore-revive's set-up: a cold sweep on an empty disk
// cache, then the removal of the points it filed, so that every timed
// point misses while every stage artifact is on disk. Set-up's points
// are the reference: their latency was simulated on the netlists the
// sweep computed, which never went through the disk or a decode.
func populate(base string, space []explore.Config) ([]explore.Point, error) {
	if err := os.RemoveAll(base); err != nil {
		return nil, err
	}
	eng := &explore.Engine{Workers: localWorkers(), SimTrials: reviveTrials, CacheDir: base}
	want := eng.Sweep(space)
	for _, p := range want {
		if p.Err != "" {
			return nil, fmt.Errorf("set-up sweep: %s: %s", p.Config, p.Err)
		}
	}
	store, err := cache.Open(base, explore.DiskSchema())
	if err != nil {
		return nil, err
	}
	return want, os.RemoveAll(filepath.Join(store.Root(), "point"))
}

func runExploreRevive(opt options) (*outcome, error) {
	out := &outcome{}
	space := reviveSpace()
	base := filepath.Join(opt.dir, "base")
	var setups []time.Duration
	var want []explore.Point
	for i := 0; i < setupReps(opt); i++ {
		start := time.Now()
		var err error
		if want, err = populate(base, space); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start))
	}
	if opt.corrupt {
		want[0].Latency++
	}

	snap, err := snapshot(base)
	if err != nil {
		return nil, err
	}
	netErrs := checkStoredNetlists(base, space, opt.seed)
	rng := rand.New(rand.NewSource(opt.seed))
	var tracing *reviveTrace
	if opt.trace {
		if tracing, err = newReviveTrace(opt, space); err != nil {
			return nil, err
		}
	}
	beginTimedPhase()
	var e e2e
	e.setup = setups
	end := deadline(opt)
	for pass := 0; pass == 0 || time.Now().Before(end); pass++ {
		// Every pass starts from the cache state set-up left behind.
		if err := restore(base, snap); err != nil {
			return nil, err
		}
		traced := tracing != nil && pass%2 == 0
		eng := &explore.Engine{Workers: 1, SimTrials: reviveTrials, CacheDir: base}
		if traced {
			eng.Obs = obs.NewBus(nil)
		}
		got := make([]explore.Point, len(space))
		start := time.Now()
		for _, i := range rng.Perm(len(space)) {
			if traced {
				var err error
				if got[i], err = tracing.eval(eng, space[i], i, rng); err != nil {
					return nil, err
				}
				continue
			}
			t := time.Now()
			got[i] = eng.EvaluateContext(context.Background(), space[i])
			if tracing != nil {
				tracing.untraced = append(tracing.untraced, ms(time.Since(t)))
			}
		}
		d := time.Since(start)
		e.timed += d
		if !traced {
			e.latencies = append(e.latencies, d)
		}

		st := eng.Stats()
		recomputed := st.FrontendComputed + st.MidendComputed + st.BackendComputed
		for i, pt := range got {
			out.attempted++
			switch {
			case recomputed != 0:
				out.fail("revive pass %d: %d stage artifacts recomputed, want 0", pass, recomputed)
			case st.PointComputed != int64(len(space)):
				out.fail("revive pass %d: %d of %d points simulated, the rest hit a cache", pass, st.PointComputed, len(space))
			case samePoint(pt, want[i]) != "":
				out.fail("revive %s: %s", space[i], samePoint(pt, want[i]))
			case pt.Latency != want[i].Latency:
				out.fail("revive %s: simulated latency %d, reference %d", space[i], pt.Latency, want[i].Latency)
			case netErrs[i] != nil:
				out.fail("revive %s: stored netlist: %v", space[i], netErrs[i])
			}
		}
		if pass == 0 {
			for _, pt := range got {
				e.designs = append(e.designs, [2]float64{float64(pt.Latency), pt.Area})
			}
		}
	}
	if tracing != nil {
		return tracing.finish(opt, out)
	}
	out.metrics = e.metrics(out)
	return out, nil
}

// checkStoredNetlists is the functional half of explore-revive's gate,
// run between set-up and the timed phase: it decodes every
// configuration's netlist from the disk cache set-up left, which is
// what every timed pass revives, and compares its outputs on seeded
// instruction buffers with the reference decoder. It returns one error
// (nil: passed) per configuration.
func checkStoredNetlists(base string, space []explore.Config, seed int64) []error {
	rng := rand.New(rand.NewSource(seed))
	eng := &explore.Engine{CacheDir: base}
	inputs := map[int]*ir.Program{}
	cases := map[int][]ildCase{}
	for _, n := range reviveSizes {
		inputs[n] = ild.Program(n)
		cases[n] = ildCases(rng, n, ildCasesPerDesign)
	}
	errs := make([]error, len(space))
	for i, c := range space {
		mod, err := storedNetlist(eng, inputs[c.N], c)
		if err == nil {
			err = checkILD(mod, c.N, cases[c.N])
		}
		errs[i] = err
	}
	return errs
}

// snapshot lists every path under dir.
func snapshot(dir string) (map[string]bool, error) {
	paths := map[string]bool{}
	err := filepath.WalkDir(dir, func(p string, _ fs.DirEntry, err error) error {
		paths[p] = true
		return err
	})
	return paths, err
}

// restore removes every path under dir that snap does not list. A
// revive pass only adds entries to the cache (the points it simulates;
// hits backfill the memory tier, not the disk), so this puts the
// directory back in the state set-up left.
func restore(dir string, snap map[string]bool) error {
	var added []string
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !snap[p] {
			added = append(added, p)
			if d.IsDir() {
				return filepath.SkipDir
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, p := range added {
		if err := os.RemoveAll(p); err != nil {
			return err
		}
	}
	return nil
}

// reviveTrace is explore-revive's traced run: every other pass folds
// the engine's obs-bus events under an explore.eval span per point and
// replays the revive path's layers (disk reads, netlist decode,
// simulation) on the point's own payloads; the passes between run
// untraced, for the overhead baseline.
type reviveTrace struct {
	tr       *tracer
	s        samples
	store    *cache.Store
	inputs   map[int]*ir.Program
	payloads []map[string][]byte // per config: the three artifact encodings
	untraced []float64
	traced   []float64
	unattr   []float64
}

func newReviveTrace(opt options, space []explore.Config) (*reviveTrace, error) {
	store, err := cache.Open(filepath.Join(opt.dir, "layer-cache"), "perfbench")
	if err != nil {
		return nil, err
	}
	rt := &reviveTrace{tr: newTracer(fmt.Sprintf("explore-revive/seed%d", opt.seed)), s: samples{},
		store: store, inputs: map[int]*ir.Program{}}
	for i, c := range space {
		in := rt.inputs[c.N]
		if in == nil {
			in = ild.Program(c.N)
			rt.inputs[c.N] = in
		}
		p, err := stagePayloads(in, c)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c, err)
		}
		for kind, b := range p {
			if err := store.Put(kind, fmt.Sprint(i), b); err != nil {
				return nil, err
			}
		}
		rt.payloads = append(rt.payloads, p)
	}
	return rt, nil
}

// stagePayloads synthesizes one configuration through the three stages
// and returns each artifact's wire encoding.
func stagePayloads(input *ir.Program, c explore.Config) (map[string][]byte, error) {
	opt := c.Options()
	fa, err := core.Frontend(input, opt.FrontendOptions())
	if err != nil {
		return nil, err
	}
	ma, err := core.Midend(fa, opt.MidendOptions())
	if err != nil {
		return nil, err
	}
	ba, err := core.Backend(ma, opt.BackendOptions())
	if err != nil {
		return nil, err
	}
	p := map[string][]byte{}
	if p["frontend"], err = ir.EncodeProgram(fa.Program); err != nil {
		return nil, err
	}
	if p["midend"], err = sched.EncodeResult(ma.Schedule); err != nil {
		return nil, err
	}
	if p["backend"], err = rtl.EncodeModule(ba.Module); err != nil {
		return nil, err
	}
	return p, nil
}

func (rt *reviveTrace) eval(eng *explore.Engine, c explore.Config, i int, rng *rand.Rand) (explore.Point, error) {
	tr, s := rt.tr, rt.s
	before := eng.Stats()
	sub := eng.Obs.Subscribe(4096)
	id := tr.begin("explore.eval", 0)
	pt := eng.EvaluateContext(context.Background(), c)
	eval := ms(tr.end(id))
	tr.foldObs(drain(sub), id, true)
	eng.Obs.Unsubscribe(sub)
	rt.traced = append(rt.traced, eval)
	s.add("explore.eval_ms", 0, eval)
	addStats(s, eng.Stats().Sub(before))

	// The revive path's layers on this point's payloads: one verified
	// disk read per stage artifact, one point write, the netlist decode
	// and the simulation.
	root := tr.begin("replay.revive", 0)
	defer tr.end(root)
	key := fmt.Sprint(i)
	attributed := 0.0
	for _, kind := range artifactKinds {
		var ok bool
		var err error
		get := timeIn(tr, "cache.get", root, func() { _, ok, err = rt.store.Get(kind, key) })
		if err != nil || !ok {
			return pt, fmt.Errorf("cache get %s %s: ok=%v err=%v", kind, key, ok, err)
		}
		s.add("cache.get_ms", 0, get)
		attributed += get
	}
	point := []byte(fmt.Sprintf("%s|%d|%d|%g|%g|%d|%d", c, pt.Cycles, pt.Latency, pt.CritPath, pt.Area, pt.Muxes, pt.FUs))
	var err error
	put := timeIn(tr, "cache.put", root, func() { err = rt.store.Put("point", key, point) })
	if err != nil {
		return pt, fmt.Errorf("cache put: %w", err)
	}
	var mod *rtl.Module
	enc := rt.payloads[i]["backend"]
	dec, allocs := decodeAllocs(tr, "wire.decode.backend", root, func() { mod, err = rtl.DecodeModule(enc) })
	if err != nil {
		return pt, fmt.Errorf("decode backend: %w", err)
	}
	s.add("cache.put_ms", 0, put)
	s.add("wire.decode_ms.backend", 0, dec)
	s.add("wire.decode_allocs.backend", 0, allocs)
	s.add("wire.bytes.backend", 0, float64(len(enc)))
	attributed += put + dec + simulate(tr, s, root, rt.inputs[c.N], mod, reviveTrials, rng)
	rt.unattr = append(rt.unattr, eval-attributed)
	return pt, nil
}

func (rt *reviveTrace) finish(opt options, out *outcome) (*outcome, error) {
	if err := rt.tr.write(traceFile(opt)); err != nil {
		return nil, err
	}
	m := layerMetrics(rt.s)
	setStatRatios(m, rt.s)
	m.set("explore.unattributed_ms", mean(rt.unattr), "ms")
	m.set("trace.overhead_frac", ratio(mean(rt.traced)-mean(rt.untraced), mean(rt.untraced)), "ratio")
	out.metrics = m
	rt.tr.selfTimeNotes(out)
	out.note("spans written to %s", traceFile(opt))
	return out, nil
}

// addStats records one unit of work's engine accounting delta.
func addStats(s samples, d explore.Stats) {
	s.add("explore.computed.frontend", 0, float64(d.FrontendComputed))
	s.add("explore.computed.midend", 0, float64(d.MidendComputed))
	s.add("explore.computed.backend", 0, float64(d.BackendComputed))
	s.add("explore.computed.point", 0, float64(d.PointComputed))
	s.add("blob.mem_hits", 0, float64(d.PointMemHits+d.FrontendMemHits+d.MidendMemHits+d.BackendMemHits))
	s.add("blob.disk_hits", 0, float64(d.PointDiskHits+d.FrontendDiskHits+d.MidendDiskHits+d.BackendDiskHits))
	s.add("blob.backfills", 0, float64(d.MemBackfills+d.DiskBackfills))
	s.add("blob.errors", 0, float64(d.DiskErrors+d.RemoteErrors))
	s.add("stats.point_hits", 0, float64(d.PointMemHits+d.PointDiskHits+d.PointRemoteHits))
	s.add("stats.point_lookups", 0, float64(d.PointMemHits+d.PointDiskHits+d.PointRemoteHits+d.PointComputed))
	s.add("stats.frontend_hits", 0, float64(d.FrontendMemHits+d.FrontendDiskHits+d.FrontendRemoteHits))
	s.add("stats.frontend_lookups", 0, float64(d.FrontendMemHits+d.FrontendDiskHits+d.FrontendRemoteHits+d.FrontendComputed))
}

// setStatRatios derives the engine's hit ratios from the summed deltas.
func setStatRatios(m *metricSet, s samples) {
	m.set("explore.point_hit_ratio", ratio(s.sum("stats.point_hits"), s.sum("stats.point_lookups")), "ratio")
	m.set("explore.frontend_reuse_ratio", ratio(s.sum("stats.frontend_hits"), s.sum("stats.frontend_lookups")), "ratio")
}
