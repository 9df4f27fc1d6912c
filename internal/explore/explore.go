// Package explore is the design-space exploration engine the paper's
// methodology calls for: the coordinated transformations (speculation,
// chaining across conditionals, unrolling) beat any fixed ordering only
// when the designer can sweep many configurations quickly, so this
// package turns the staged synthesis flow of internal/core into a
// concurrent, memoized search over
// (source program × pass list × preset × toggles × unroll bounds × scale).
//
// Memoization is stage-granular, keyed on the artifact hashes of the
// staged flow: configurations sharing a (source, pass-list) prefix reuse
// one frontend run — the transformation pipeline executes exactly once
// per unique (source fingerprint, pass list, rounds) triple — midend
// artifacts (HTG + schedule) are shared by every configuration with the
// same transformed program and scheduling knobs, and backend artifacts
// (netlist + report) by every configuration with the same schedule and
// report model. A fully evaluated configuration is additionally
// memoized as a Point.
//
// Every memoized layer lives behind one tiered blob store
// (internal/blob): an always-on bounded in-memory LRU, an optional disk
// tier (CacheDir; internal/cache with content-address deduplication of
// stage artifacts), and an optional remote tier (RemoteCache; another
// daemon's /v1/blobs API). Lookups read through fastest-first and
// backfill upward, computed artifacts write through every tier, and
// concurrent lookups of one key share a single flight — so sweeps
// survive process restarts, many processes share one cache directory,
// and a cold machine can warm itself off a peer over HTTP. Artifacts
// are stored in their deterministic wire codecs, keyed by the same
// hashes with versioned invalidation, so bumping a single stage version
// only recomputes that stage. The frontier helpers reduce the resulting
// point cloud to the best-cycle / best-area Pareto set the designer
// actually reads.
package explore

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sparkgo/internal/blob"
	"sparkgo/internal/cache"
	"sparkgo/internal/core"
	"sparkgo/internal/delay"
	"sparkgo/internal/interp"
	"sparkgo/internal/ir"
	"sparkgo/internal/obs"
	"sparkgo/internal/rtl"
	"sparkgo/internal/rtlsim"
)

// Config is one point in the design space: a source program (a named
// entry in the engine's source table, or the built-in generator at scale
// N) plus a synthesis configuration.
type Config struct {
	// Source names the program this config synthesizes: a key into the
	// engine's Sources table (user programs parsed from files). Empty
	// selects the engine's generator — the ILD behavioral description —
	// at scale N.
	Source string
	// N is the source scale parameter (ILD buffer size for the default
	// source generator; ignored by named sources).
	N int
	// Preset selects the synthesis regime.
	Preset core.Preset
	// Toggle knockouts (the ablation axes A1–A4 plus CSE).
	NoSpeculation bool
	NoUnroll      bool
	NoConstProp   bool
	NoCSE         bool
	NoChaining    bool
	// MaxUnroll bounds full unrolling (0 = unlimited default).
	MaxUnroll int
	// Passes, when non-empty, is an explicit pass list (internal/pass
	// spec syntax) replacing the preset plan — the pass-order axis.
	Passes []string
	// Rounds bounds pipeline fixpoint iteration (0 = default).
	Rounds int
	// ReportNand, when positive, overrides the NAND-delay scale of the
	// technology model the backend report is evaluated under — the
	// backend-only axis. The scheduling model is untouched, so two
	// configs differing only here share the frontend AND midend
	// artifacts and re-run just the binding/report stage.
	ReportNand float64
}

// Options lowers the config to synthesizer options.
func (c Config) Options() core.Options {
	o := core.Options{
		Preset:        c.Preset,
		MaxUnroll:     c.MaxUnroll,
		NoSpeculation: c.NoSpeculation,
		NoUnroll:      c.NoUnroll,
		NoConstProp:   c.NoConstProp,
		NoCSE:         c.NoCSE,
		NoChaining:    c.NoChaining,
		Passes:        c.Passes,
		CustomRounds:  c.Rounds,
	}
	if c.ReportNand > 0 {
		o.ReportModel = &delay.Model{NandDelay: c.ReportNand}
	}
	return o
}

// String renders the canonical form of the config — the exact text the
// cache key hashes, so two configs are cache-equivalent iff their strings
// match.
func (c Config) String() string {
	var b strings.Builder
	if c.Source != "" {
		fmt.Fprintf(&b, "src=%s ", c.Source)
	}
	fmt.Fprintf(&b, "n=%d preset=%s", c.N, c.Preset)
	for _, t := range []struct {
		on   bool
		name string
	}{
		{c.NoSpeculation, "nospec"}, {c.NoUnroll, "nounroll"},
		{c.NoConstProp, "noconstprop"}, {c.NoCSE, "nocse"},
		{c.NoChaining, "nochain"},
	} {
		if t.on {
			b.WriteString(" " + t.name)
		}
	}
	if c.MaxUnroll > 0 {
		fmt.Fprintf(&b, " maxunroll=%d", c.MaxUnroll)
	}
	if len(c.Passes) > 0 {
		fmt.Fprintf(&b, " passes=[%s]", joinSpecs(c.Passes))
	}
	if c.Rounds > 0 {
		fmt.Fprintf(&b, " rounds=%d", c.Rounds)
	}
	if c.ReportNand > 0 {
		fmt.Fprintf(&b, " reportnand=%g", c.ReportNand)
	}
	return b.String()
}

// joinSpecs renders a pass list unambiguously: any ";" inside a spec is
// escaped before joining on "; ", so two distinct lists can never render
// identically (the canonical string is a cache key; see Config.String).
func joinSpecs(specs []string) string {
	esc := make([]string, len(specs))
	for i, s := range specs {
		s = strings.ReplaceAll(s, `\`, `\\`)
		esc[i] = strings.ReplaceAll(s, ";", `\;`)
	}
	return strings.Join(esc, "; ")
}

// Key is the 64-bit FNV-1a hash of the canonical string: a compact
// config fingerprint for external reporting and de-duplication. The
// in-process memoization cache keys on the canonical string itself, so a
// hash collision can never alias two configurations.
func (c Config) Key() uint64 {
	h := fnv.New64a()
	h.Write([]byte(c.String()))
	return h.Sum64()
}

// Point is one evaluated configuration.
type Point struct {
	Config   Config
	Cycles   int     // FSM states of the synthesized design
	Latency  int     // simulated cycles per activation (= Cycles when SimTrials is 0)
	CritPath float64 // gate-unit critical path
	Area     float64
	Muxes    int
	FUs      int
	Rounds   int    // pipeline rounds to fixpoint
	Err      string // non-empty when synthesis failed; metrics are zero
}

// Stats is the engine's cumulative cache accounting, split per layer.
// For each cache the four counters partition lookups: served from
// memory, served from disk, served from the remote tier, or computed by
// running the stage. A lookup satisfied by joining another caller's
// in-flight computation counts as a memory hit.
type Stats struct {
	// Point cache: fully evaluated configurations.
	PointMemHits    int64
	PointDiskHits   int64
	PointRemoteHits int64
	PointComputed   int64
	// Frontend stage cache: transformed-IR artifacts shared by every
	// configuration with the same (source, pass list, rounds).
	FrontendMemHits    int64
	FrontendDiskHits   int64
	FrontendRemoteHits int64
	FrontendComputed   int64
	// Midend stage cache: HTG + schedule artifacts shared by every
	// configuration with the same transformed program and scheduling
	// knobs (preset, delay model, resources, chaining).
	MidendMemHits    int64
	MidendDiskHits   int64
	MidendRemoteHits int64
	MidendComputed   int64
	// Backend stage cache: netlist + report artifacts shared by every
	// configuration with the same schedule and report model.
	BackendMemHits    int64
	BackendDiskHits   int64
	BackendRemoteHits int64
	BackendComputed   int64
	// MemBackfills / DiskBackfills count payloads copied into the
	// memory / disk tier after a hit in a slower tier — how much of the
	// working set each tier re-absorbed this run.
	MemBackfills  int64
	DiskBackfills int64
	// DiskErrors counts disk-layer failures that were absorbed by
	// falling back to another tier or to computation (the sweep itself
	// never fails on a bad cache). RemoteErrors counts the same for the
	// remote tier — a dead peer degrades to local work.
	DiskErrors   int64
	RemoteErrors int64
	// DiskHeaderMisses counts disk entries whose header did not match
	// the requested (schema, kind, key) and read as clean misses;
	// DiskCorruptions counts entries whose frame or payload hash failed
	// verification. Both come from internal/cache.
	DiskHeaderMisses int64
	DiskCorruptions  int64
}

// Sub returns the counter-wise difference s - o: the per-run delta
// between two snapshots of one engine. Living next to the struct, it
// cannot silently skip a counter when a new cache layer is added.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		PointMemHits:       s.PointMemHits - o.PointMemHits,
		PointDiskHits:      s.PointDiskHits - o.PointDiskHits,
		PointRemoteHits:    s.PointRemoteHits - o.PointRemoteHits,
		PointComputed:      s.PointComputed - o.PointComputed,
		FrontendMemHits:    s.FrontendMemHits - o.FrontendMemHits,
		FrontendDiskHits:   s.FrontendDiskHits - o.FrontendDiskHits,
		FrontendRemoteHits: s.FrontendRemoteHits - o.FrontendRemoteHits,
		FrontendComputed:   s.FrontendComputed - o.FrontendComputed,
		MidendMemHits:      s.MidendMemHits - o.MidendMemHits,
		MidendDiskHits:     s.MidendDiskHits - o.MidendDiskHits,
		MidendRemoteHits:   s.MidendRemoteHits - o.MidendRemoteHits,
		MidendComputed:     s.MidendComputed - o.MidendComputed,
		BackendMemHits:     s.BackendMemHits - o.BackendMemHits,
		BackendDiskHits:    s.BackendDiskHits - o.BackendDiskHits,
		BackendRemoteHits:  s.BackendRemoteHits - o.BackendRemoteHits,
		BackendComputed:    s.BackendComputed - o.BackendComputed,
		MemBackfills:       s.MemBackfills - o.MemBackfills,
		DiskBackfills:      s.DiskBackfills - o.DiskBackfills,
		DiskErrors:         s.DiskErrors - o.DiskErrors,
		RemoteErrors:       s.RemoteErrors - o.RemoteErrors,
		DiskHeaderMisses:   s.DiskHeaderMisses - o.DiskHeaderMisses,
		DiskCorruptions:    s.DiskCorruptions - o.DiskCorruptions,
	}
}

// Engine evaluates configuration spaces over a worker pool with
// stage-granular memoization. The zero value is ready to use; caches
// persist across sweeps, so overlapping spaces only synthesize new
// configurations, and configurations differing only in back-end knobs
// share one frontend run.
type Engine struct {
	// Workers bounds sweep concurrency (0 = GOMAXPROCS).
	Workers int
	// Source generates the program for a config's scale parameter
	// (nil = the ILD behavioral description, ild.Program). Used by
	// configs with an empty Source name.
	Source func(n int) *ir.Program
	// Sources maps source names to parsed user programs; a config
	// selects one by name. This is the multi-program batching axis:
	// one sweep may span many sources.
	Sources map[string]*ir.Program
	// SimTrials, when positive, measures per-activation latency by
	// cycle-accurate simulation on that many random stimulus vectors
	// (seeded from the source fingerprint plus the canonical config, so
	// results are deterministic and stimulus is independent per
	// (source, config)). Zero reports the FSM state count as the latency.
	SimTrials int
	// CacheDir, when non-empty, adds a disk tier to the blob store
	// (internal/cache, wire-encoded artifacts) so sweeps survive
	// process restarts. Disk failures degrade to computation and are
	// counted in Stats.DiskErrors.
	CacheDir string
	// RemoteCache, when non-empty, adds a remote tier: the base URL of
	// a peer daemon whose /v1/blobs API serves artifacts the local
	// tiers miss (and receives the ones computed here). Remote failures
	// degrade to local work and are counted in Stats.RemoteErrors.
	RemoteCache string
	// MemCacheBytes bounds the in-memory blob tier
	// (0 = blob.DefaultMemBytes).
	MemCacheBytes int64
	// Obs, when set before the engine's first use, receives one span
	// event per stage-cache lookup (duration + disposition), one event
	// per simulation, and the blob store's tier traffic. A nil bus
	// costs nothing: instrumentation sites skip timing entirely.
	Obs *obs.Bus

	mu sync.Mutex
	// sources memoizes resolved programs and their fingerprints per
	// source identity ("src=<name>" or "n=<scale>").
	sources map[string]*sourceEntry

	// The tiered blob store behind every memoized layer (see blobStack):
	// blobs is the full read path (mem → disk → remote), localBlobs the
	// local tiers only — what the daemon's blob API serves, so chained
	// daemons cannot proxy-loop. store is the raw disk layer (nil when
	// CacheDir is empty or failed to open), kept for GC and stats.
	blobOnce   sync.Once
	blobs      *blob.Tiered
	localBlobs *blob.Tiered
	store      *cache.Store

	pointMemHits       atomic.Int64
	pointDiskHits      atomic.Int64
	pointRemoteHits    atomic.Int64
	pointComputed      atomic.Int64
	frontendMemHits    atomic.Int64
	frontendDiskHits   atomic.Int64
	frontendRemoteHits atomic.Int64
	frontendComputed   atomic.Int64
	midendMemHits      atomic.Int64
	midendDiskHits     atomic.Int64
	midendRemoteHits   atomic.Int64
	midendComputed     atomic.Int64
	backendMemHits     atomic.Int64
	backendDiskHits    atomic.Int64
	backendRemoteHits  atomic.Int64
	backendComputed    atomic.Int64
	diskErrors         atomic.Int64
}

// Evaluate synthesizes one configuration, serving repeats from the
// caches. Concurrent callers of the same configuration synthesize once
// and share the result.
//
// Failed evaluations are deliberately not memoized: concurrent callers
// still share one in-flight attempt (single flight), but the error entry
// is dropped afterwards, so a later Evaluate retries instead of serving
// a possibly transient failure (a simulator error, a source-resolution
// hiccup) forever. Deterministic failures — a bad pass spec, an unknown
// source — simply recompute to the same error each time.
func (e *Engine) Evaluate(c Config) Point {
	return e.EvaluateContext(context.Background(), c)
}

// EvaluateContext is Evaluate under a context. A context already done on
// entry returns a skipped point (Err = the context error) without
// touching any cache; cancellation mid-synthesis is observed between
// stages, and the resulting error point follows the no-sticky-errors
// rule, so a cancelled evaluation never poisons the caches — the next
// caller recomputes. When concurrent callers share one in-flight
// evaluation, the first caller's context governs it; waiters that share
// a cancelled result simply retry on their next lookup.
func (e *Engine) EvaluateContext(ctx context.Context, c Config) Point {
	if err := ctx.Err(); err != nil {
		return Point{Config: c, Err: err.Error()}
	}
	src, err := e.resolveSource(c)
	if err != nil {
		e.pointComputed.Add(1)
		return Point{Config: c, Err: err.Error()}
	}
	pk := e.pointKey(c, src.fingerprint)
	start := e.stageStart()
	compute := func() ([]byte, any, error) {
		pt := e.synthesize(ctx, c, src)
		e.pointComputed.Add(1)
		if pt.Err != "" {
			// Propagating the failure as an error keeps it out of every
			// tier (the no-sticky-errors rule); the caller rebuilds the
			// point from it.
			return nil, nil, errors.New(pt.Err)
		}
		return encodePoint(&pt), &pt, nil
	}
	for attempt := 0; ; attempt++ {
		res, err := e.blobStack().Do(kindPoint, pk, compute)
		if err != nil {
			return Point{Config: c, Err: err.Error()}
		}
		if res.Obj != nil {
			if res.Shared {
				e.pointMemHits.Add(1)
			}
			e.observeStage(kindPoint, start, res)
			return *res.Obj.(*Point)
		}
		pt, derr := decodePoint(res.Data)
		if derr != nil || pt.Err != "" {
			// Either corruption a tier's own verification cannot catch
			// (verified bytes that are not a point blob), or an error
			// point persisted by an engine predating the no-sticky-errors
			// rule: purge and retry, which recomputes through the flight.
			if derr != nil {
				e.diskErrors.Add(1)
			}
			e.blobStack().Delete(kindPoint, pk)
			if attempt == 0 {
				continue
			}
			pt := e.synthesize(ctx, c, src)
			e.pointComputed.Add(1)
			e.observeStageComputed(kindPoint, start)
			return pt
		}
		countHit(res, &e.pointMemHits, &e.pointDiskHits, &e.pointRemoteHits)
		e.observeStage(kindPoint, start, res)
		return *pt
	}
}

// IsCanceled reports whether a point was skipped or cut short by context
// cancellation (or deadline expiry) rather than failing on its own:
// callers batching evaluations — the adaptive searches, the service
// queue — must not treat such points as real failures or memoize their
// scores.
func IsCanceled(p Point) bool {
	return p.Err == context.Canceled.Error() || p.Err == context.DeadlineExceeded.Error()
}

// Stats reports the engine's cumulative cache statistics across sweeps,
// folding in the blob-store tier counters: backfills per tier, absorbed
// tier errors, and the disk layer's header-miss / corruption counts.
func (e *Engine) Stats() Stats {
	e.blobStack()
	s := Stats{
		PointMemHits:       e.pointMemHits.Load(),
		PointDiskHits:      e.pointDiskHits.Load(),
		PointRemoteHits:    e.pointRemoteHits.Load(),
		PointComputed:      e.pointComputed.Load(),
		FrontendMemHits:    e.frontendMemHits.Load(),
		FrontendDiskHits:   e.frontendDiskHits.Load(),
		FrontendRemoteHits: e.frontendRemoteHits.Load(),
		FrontendComputed:   e.frontendComputed.Load(),
		MidendMemHits:      e.midendMemHits.Load(),
		MidendDiskHits:     e.midendDiskHits.Load(),
		MidendRemoteHits:   e.midendRemoteHits.Load(),
		MidendComputed:     e.midendComputed.Load(),
		BackendMemHits:     e.backendMemHits.Load(),
		BackendDiskHits:    e.backendDiskHits.Load(),
		BackendRemoteHits:  e.backendRemoteHits.Load(),
		BackendComputed:    e.backendComputed.Load(),
		DiskErrors:         e.diskErrors.Load(),
	}
	for _, ts := range e.blobs.TierStats() {
		switch ts.Name {
		case TierMem:
			s.MemBackfills = ts.Backfills
		case TierDisk:
			s.DiskBackfills = ts.Backfills
			s.DiskErrors += ts.Errors + ts.PutErrors
		case TierRemote:
			s.RemoteErrors = ts.Errors + ts.PutErrors
		}
	}
	if e.store != nil {
		cs := e.store.Stats()
		s.DiskHeaderMisses = cs.HeaderMisses
		s.DiskCorruptions = cs.Corruptions
	}
	return s
}

// CacheStats reports cumulative point-cache hits and misses across
// sweeps: hits are lookups served from memory, misses everything else
// (disk hits and computed points).
func (e *Engine) CacheStats() (hits, misses int64) {
	s := e.Stats()
	return s.PointMemHits, s.PointDiskHits + s.PointComputed
}

// EffectiveWorkers reports the worker-pool size a sweep over n
// configurations actually uses: Workers (or GOMAXPROCS when unset),
// clamped to n.
func (e *Engine) EffectiveWorkers(n int) int {
	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	return workers
}

// Sweep evaluates every configuration concurrently over the worker pool.
// The result order matches the input order, and results depend only on
// the configurations themselves, so sweeps are deterministic regardless
// of worker count or scheduling.
func (e *Engine) Sweep(space []Config) []Point {
	return e.SweepContext(context.Background(), space)
}

// SweepContext is Sweep under a context: cancellation stops the dispatch
// of new evaluations immediately and cuts in-flight ones at their next
// stage boundary. Configurations never evaluated come back as skipped
// points (Err = the context error; see IsCanceled), so the result slice
// always matches the input order and length — a cancelled sweep is
// partial, not torn.
func (e *Engine) SweepContext(ctx context.Context, space []Config) []Point {
	out := make([]Point, len(space))
	workers := e.EffectiveWorkers(len(space))
	if workers <= 1 {
		for i, c := range space {
			out[i] = e.EvaluateContext(ctx, c)
		}
		return out
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i] = e.EvaluateContext(ctx, space[i])
			}
		}()
	}
dispatch:
	for i := range space {
		select {
		case <-ctx.Done():
			// Undelivered indices are exclusively the dispatcher's to
			// write: workers only touch indices they received.
			for j := i; j < len(space); j++ {
				out[j] = Point{Config: space[j], Err: ctx.Err().Error()}
			}
			break dispatch
		case idx <- i:
		}
	}
	close(idx)
	wg.Wait()
	return out
}

// AddSource registers (or replaces) a named source program, safely even
// while sweeps are running — the long-lived engine behind the service
// daemon gains sources as clients submit them. Replacing a name does not
// invalidate points already evaluated under it: the in-memory point
// cache keys on the name, so a daemon must derive names from program
// content (a fingerprint) rather than reusing one name for different
// programs.
func (e *Engine) AddSource(name string, prog *ir.Program) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.Sources == nil {
		e.Sources = map[string]*ir.Program{}
	}
	e.Sources[name] = prog
}

// HasSource reports whether a named source is registered.
func (e *Engine) HasSource(name string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, ok := e.Sources[name]
	return ok
}

// synthesize evaluates one configuration through the staged flow,
// sharing the frontend artifact with every other configuration on the
// same (source, pass list). Cancellation is observed at the stage
// boundaries (and per simulation trial), so an abandoned evaluation
// stops within one stage of work.
func (e *Engine) synthesize(ctx context.Context, c Config, src *sourceEntry) Point {
	pt := Point{Config: c}
	opt := c.Options()
	fa, err := e.frontend(ctx, src, opt.FrontendOptions())
	if err != nil {
		pt.Err = err.Error()
		return pt
	}
	if err := ctx.Err(); err != nil {
		pt.Err = err.Error()
		return pt
	}
	ma, err := e.midend(ctx, fa, opt.MidendOptions())
	if err != nil {
		pt.Err = err.Error()
		return pt
	}
	if err := ctx.Err(); err != nil {
		pt.Err = err.Error()
		return pt
	}
	ba, err := e.backend(ctx, ma, opt.BackendOptions())
	if err != nil {
		pt.Err = err.Error()
		return pt
	}
	pt.Cycles = ma.Cycles
	pt.Latency = ma.Cycles
	pt.CritPath = ba.Stats.CriticalPath
	pt.Area = ba.Stats.Area
	pt.Muxes = ba.Stats.Muxes
	pt.FUs = ba.Stats.FUs
	pt.Rounds = fa.Rounds
	if e.SimTrials > 0 {
		// Mod materializes the netlist: computed artifacts hand it over
		// directly, revived ones pay their one decode here — the only
		// place a disk-warm sweep ever decodes a payload.
		mod, err := ba.Mod()
		if err != nil {
			pt.Err = err.Error()
			return pt
		}
		simStart := e.stageStart()
		lat, mix, err := e.simulate(ctx, src, mod, c)
		if err != nil {
			pt.Err = err.Error()
			return pt
		}
		if !simStart.IsZero() {
			e.Obs.Publish(obs.Event{
				Type:             obs.TypeSim,
				Cycles:           lat,
				DurationNs:       time.Since(simStart).Nanoseconds(),
				SimInsnsPacked:   int64(mix.Packed),
				SimInsnsBoundary: int64(mix.Boundary),
				SimInsnsWide:     int64(mix.Wide),
				SimInsnsLane:     int64(mix.Lane),
			})
		}
		pt.Latency = lat
	}
	return pt
}

// simulate measures the worst per-activation cycle count over SimTrials
// random stimulus vectors. The stimulus stream is seeded from the full
// (source fingerprint, canonical config) pair — not the bare config
// hash, which would hand two configs the same stimulus whenever their
// canonical strings collide across sources, and would keep stimulus
// correlated across sweep axes that don't reach the simulator.
//
// Only the cycle count is measured, so the netlist is compiled once
// into a latency program (rtlsim.CompileCycles): just the FSM control
// cone, which decides every lane's cycle count and error exactly as the
// whole netlist would. A single-state block's cone is empty. The trials
// run in batched lanes and nothing is written back into their envs.
// The returned mix counts the latency program's instructions, which is
// what sparkgo_sim_insns_total sums. The cycle watchdog is derived from
// the FSM size (rtlsim.WatchdogCycles), so a non-terminating design
// errors within thousands of cycles instead of burning millions per
// trial. Cancellation is observed between lane batches.
func (e *Engine) simulate(ctx context.Context, src *sourceEntry, mod *rtl.Module, c Config) (int, rtlsim.InsnMix, error) {
	rng := rand.New(rand.NewSource(simSeed(src.fingerprint, c)))
	prog := rtlsim.CompileCycles(mod)
	mix := prog.Mix()
	maxCycles := rtlsim.WatchdogCycles(mod.NumStates)
	max := 0
	for start := 0; start < e.SimTrials; start += rtlsim.MaxLanes {
		if err := ctx.Err(); err != nil {
			return 0, mix, err
		}
		envs := make([]*interp.Env, min(rtlsim.MaxLanes, e.SimTrials-start))
		for i := range envs {
			envs[i] = interp.RandomEnv(src.prog, rng)
		}
		for _, lr := range prog.RunCycles(src.prog, envs, maxCycles) {
			if lr.Err != nil {
				return 0, mix, lr.Err
			}
			if lr.Cycles > max {
				max = lr.Cycles
			}
		}
	}
	return max, mix, nil
}

// simSeed derives the deterministic simulation seed from everything the
// stimulus must be independent over: the source program's content
// fingerprint and the canonical config string.
func simSeed(sourceFingerprint string, c Config) int64 {
	h := fnv.New64a()
	h.Write([]byte("sim|"))
	h.Write([]byte(sourceFingerprint))
	h.Write([]byte{'|'})
	h.Write([]byte(c.String()))
	return int64(h.Sum64())
}

// Variant names one toggle combination of the sweep grid.
type Variant struct {
	Name          string
	NoSpeculation bool
	NoUnroll      bool
	NoConstProp   bool
	NoCSE         bool
	NoChaining    bool
}

// Variants enumerates the coordination ablations the paper studies: full
// coordination plus each single-transformation knockout (A1–A4 and CSE).
func Variants() []Variant {
	return []Variant{
		{Name: "full"},
		{Name: "no-speculation", NoSpeculation: true},
		{Name: "no-unroll", NoUnroll: true},
		{Name: "no-constprop", NoConstProp: true},
		{Name: "no-cse", NoCSE: true},
		{Name: "no-chaining", NoChaining: true},
	}
}

// Grid builds the cartesian configuration space
// (sizes × variants × unroll bounds) in the microprocessor-block regime,
// optionally adding the classical-ASIC baseline per size.
func Grid(sizes []int, variants []Variant, maxUnrolls []int, includeClassical bool) []Config {
	var space []Config
	for _, n := range sizes {
		space = append(space, gridFor(Config{N: n}, variants, maxUnrolls, includeClassical)...)
	}
	return space
}

// GridSources builds the cartesian configuration space
// (named sources × variants × unroll bounds) — the multi-program batch
// sweep over user programs registered in the engine's Sources table.
func GridSources(names []string, variants []Variant, maxUnrolls []int, includeClassical bool) []Config {
	var space []Config
	for _, name := range names {
		space = append(space, gridFor(Config{Source: name}, variants, maxUnrolls, includeClassical)...)
	}
	return space
}

// gridFor expands one source seed config over the variant/unroll axes.
func gridFor(seed Config, variants []Variant, maxUnrolls []int, includeClassical bool) []Config {
	if len(maxUnrolls) == 0 {
		maxUnrolls = []int{0}
	}
	var space []Config
	for _, v := range variants {
		for _, mu := range maxUnrolls {
			c := seed
			c.Preset = core.MicroprocessorBlock
			c.NoSpeculation = v.NoSpeculation
			c.NoUnroll = v.NoUnroll
			c.NoConstProp = v.NoConstProp
			c.NoCSE = v.NoCSE
			c.NoChaining = v.NoChaining
			c.MaxUnroll = mu
			space = append(space, c)
		}
	}
	if includeClassical {
		c := seed
		c.Preset = core.ClassicalASIC
		space = append(space, c)
	}
	return space
}

// Sample draws k configurations from space without replacement, seeded —
// the deterministic random-subspace sampler for sweep tests and quick
// scouting runs. k >= len(space) returns a shuffled copy.
func Sample(space []Config, k int, seed int64) []Config {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Config, len(space))
	copy(out, space)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	if k < len(out) {
		out = out[:k]
	}
	return out
}

// sortStable orders points by (latency, area, canonical config) — the
// presentation order of frontiers and best-point queries.
func sortStable(pts []Point) {
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].Latency != pts[j].Latency {
			return pts[i].Latency < pts[j].Latency
		}
		if pts[i].Area != pts[j].Area {
			return pts[i].Area < pts[j].Area
		}
		return pts[i].Config.String() < pts[j].Config.String()
	})
}
