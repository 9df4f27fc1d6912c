package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"sparkgo/internal/delay"
	"sparkgo/internal/dfa"
	"sparkgo/internal/htg"
	"sparkgo/internal/ir"
	"sparkgo/internal/pass"
	"sparkgo/internal/rtl"
	"sparkgo/internal/sched"
	"sparkgo/internal/transform"
	"sparkgo/internal/wire"
)

// Stage versions participate in every artifact key. Bump a version when
// the corresponding stage's behavior changes in a way that invalidates
// previously computed artifacts (a new pass semantics, a scheduler fix,
// a netlist layout change); cached artifacts keyed under the old version
// then miss instead of serving stale results.
const (
	// FrontendVersion keys transformed-IR artifacts.
	//
	// v2: programs are persisted in the deterministic binary wire format
	// (internal/wire) instead of gob, so content fingerprints changed.
	FrontendVersion = 2
	// MidendVersion keys HTG/schedule artifacts.
	//
	// v2: midend artifacts are persisted losslessly (sched.EncodeResult)
	// and carry a content fingerprint; v1 artifacts were in-memory only.
	// v3: schedules are persisted in the deterministic binary wire
	// format (internal/wire) instead of gob.
	MidendVersion = 3
	// BackendVersion keys netlist/stats artifacts.
	//
	// v2: backend artifacts are persisted losslessly (rtl.EncodeModule +
	// report) and the stage keys on the midend artifact's *content*
	// fingerprint instead of its stage key, so two option sets that
	// converge on the same schedule share backend work.
	// v3: netlists and the report shell are persisted in the
	// deterministic binary wire format (internal/wire) instead of gob.
	BackendVersion = 3
)

// FrontendOptions is the subset of Options the frontend stage reads: the
// pass list and the fixpoint bound. Nothing about presets, delay models,
// resources, or chaining reaches the frontend, which is exactly why
// configurations differing only in those back-end knobs can share one
// frontend artifact.
type FrontendOptions struct {
	// Passes is the ordered pass list in internal/pass spec syntax.
	Passes []string
	// Rounds bounds fixed-point iteration (0 = pass.DefaultMaxRounds).
	Rounds int
	// CustomPasses, when non-empty, replaces Passes with pre-built
	// opaque passes (synthesis scripts). Opaque passes have no spec
	// text to hash, so the stage key is empty and the artifact is not
	// cacheable by input — its output fingerprint still is.
	CustomPasses []transform.Pass
}

// canonical renders the option fields that affect frontend output. The
// pass join escapes ";" inside specs so two distinct lists can never
// render — and therefore key — identically.
func (o FrontendOptions) canonical() string {
	esc := make([]string, len(o.Passes))
	for i, s := range o.Passes {
		s = strings.ReplaceAll(s, `\`, `\\`)
		esc[i] = strings.ReplaceAll(s, ";", `\;`)
	}
	return fmt.Sprintf("passes=[%s] rounds=%d", strings.Join(esc, "; "), o.Rounds)
}

// FrontendKey composes the frontend stage key from the input program's
// content fingerprint and the options. Empty when the options carry
// opaque CustomPasses (nothing stable to hash).
func FrontendKey(input *ir.Program, o FrontendOptions) string {
	return FrontendKeyFrom(ir.Fingerprint(input), o)
}

// FrontendKeyFrom is FrontendKey for callers that already hold the input
// fingerprint (the exploration engine memoizes fingerprints per source).
func FrontendKeyFrom(inputFingerprint string, o FrontendOptions) string {
	if len(o.CustomPasses) > 0 {
		return ""
	}
	return ir.HashText(fmt.Sprintf("frontend/v%d|src=%s|%s",
		FrontendVersion, inputFingerprint, o.canonical()))
}

// FrontendArtifact is the output of the frontend stage: the transformed
// program plus everything the reporting layers want to know about how it
// got there. The Program field must be treated as read-only — artifacts
// are shared between configurations in a sweep, and Midend clones before
// lowering.
type FrontendArtifact struct {
	Program *ir.Program // transformed program; treat as immutable
	// Source is the canonical printed form of Program — the
	// human-readable rendering carried alongside the artifact. Empty
	// until Materialize runs; the one-shot Synthesize path never pays
	// for it.
	Source string
	// Fingerprint is ir.Fingerprint of Program: the artifact's content
	// identity, independent of which pass list produced it. Empty until
	// Materialize runs.
	Fingerprint string
	// Key is the stage key H(input fingerprint, options, version).
	// Frontend itself leaves it empty — computing it would hash the
	// input a second time, and the one-shot Synthesize path never reads
	// it; callers that computed it (FrontendKey/FrontendKeyFrom, as the
	// exploration engine does) stamp it on the artifact themselves.
	Key       string
	Stages    []StageMetrics
	PassStats []pass.Stat
	Rounds    int

	// progEnc holds the program's lossless encoding on artifacts revived
	// from disk; Prog decodes it on first use. Computed artifacts carry
	// the program directly and never pay a decode.
	progEnc    []byte
	decodeOnce sync.Once
	decodeErr  error
}

// ReviveFrontendArtifact rebuilds a frontend artifact shell from a
// persisted program encoding without decoding it: disk revival is
// hash-verified by the cache layer, so the decode is deferred until a
// caller actually needs the program (Prog). Metadata fields (Source,
// Fingerprint, Rounds, ...) are the caller's to stamp from its own
// persisted record.
func ReviveFrontendArtifact(progEnc []byte) *FrontendArtifact {
	return &FrontendArtifact{progEnc: progEnc}
}

// Prog returns the artifact's program, decoding the persisted encoding
// on first call for revived artifacts. Computed artifacts return their
// in-memory program unconditionally.
func (fa *FrontendArtifact) Prog() (*ir.Program, error) {
	if fa.Program != nil {
		return fa.Program, nil
	}
	fa.decodeOnce.Do(func() {
		if fa.progEnc == nil {
			fa.decodeErr = fmt.Errorf("core: frontend artifact has no program encoding")
			return
		}
		p, err := ir.DecodeProgram(fa.progEnc)
		if err != nil {
			fa.decodeErr = fmt.Errorf("core: revive frontend: %w", err)
			return
		}
		fa.Program = p
	})
	return fa.Program, fa.decodeErr
}

// Materialize computes and stores the artifact's canonical Source and
// content Fingerprint, returning the lossless program encoding the
// fingerprint hashes (nil if the program failed to encode) so callers
// persisting the artifact can reuse it instead of encoding again. Call
// it from the goroutine that created the artifact, before sharing it;
// Synthesize never calls it, keeping the one-shot path free of
// serialization cost.
func (fa *FrontendArtifact) Materialize() []byte {
	fa.Source = ir.Print(fa.Program)
	enc, err := ir.EncodeProgram(fa.Program)
	if err != nil {
		// Mirror ir.Fingerprint's fallback for unencodable programs.
		fa.Fingerprint = ir.HashText("unencodable|" + fa.Source)
		return nil
	}
	fa.Fingerprint = ir.FingerprintBytes(enc)
	return enc
}

// FrontendContext is Frontend gated on a context: a context already done
// returns its error instead of starting the pass pipeline. The pipeline
// itself runs to completion once started — stage work is the unit of
// cancellation in the staged flow (see SynthesizeContext), matching the
// exploration engine's evaluation-batch granularity.
func FrontendContext(ctx context.Context, input *ir.Program, o FrontendOptions) (*FrontendArtifact, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return Frontend(input, o)
}

// Frontend runs the transformation stage: clone the input, drive the
// pass pipeline to a fixed point, validate, and fingerprint the result.
func Frontend(input *ir.Program, o FrontendOptions) (*FrontendArtifact, error) {
	passes := o.CustomPasses
	if len(passes) == 0 {
		var err error
		passes, err = pass.BuildAll(o.Passes)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	work := ir.CloneProgram(input)
	fa := &FrontendArtifact{Program: work}

	observer := func(pass string, changed bool, p *ir.Program) {
		m := p.Main()
		if m == nil {
			return
		}
		c := ir.Count(m)
		fa.Stages = append(fa.Stages, StageMetrics{
			Pass: pass, Changed: changed,
			Stmts: c.Stmts, Ops: c.Ops, Ifs: c.Ifs, Loops: c.Loops,
			Calls: c.Calls, Funcs: len(p.Funcs),
		})
	}
	pl := &pass.Pipeline{Passes: passes, MaxRounds: o.Rounds, Observer: observer}
	if err := pl.Run(work); err != nil {
		return nil, fmt.Errorf("core: transform: %w", err)
	}
	fa.PassStats = pl.Stats()
	fa.Rounds = pl.Rounds()
	if err := ir.Validate(work); err != nil {
		return nil, fmt.Errorf("core: transformed program invalid: %w", err)
	}
	return fa, nil
}

// MidendOptions is the subset of Options the midend stage reads: the
// scheduling regime. The delay model matters here because the chaining
// test compares accumulated path delay against the clock period.
type MidendOptions struct {
	Preset     Preset
	Model      *delay.Model     // nil: delay.Default()
	Resources  *sched.Resources // nil: preset default
	NoChaining bool
}

func (o MidendOptions) model() *delay.Model {
	if o.Model == nil {
		return delay.Default()
	}
	return o.Model
}

// canonical renders the option fields that affect midend output.
func (o MidendOptions) canonical() string {
	var b strings.Builder
	m := o.model()
	fmt.Fprintf(&b, "preset=%s nand=%g clock=%g", o.Preset, m.NandDelay, m.ClockPeriod)
	if o.NoChaining {
		b.WriteString(" nochain")
	}
	if r := o.Resources; r != nil {
		if r.Unlimited {
			b.WriteString(" res=unlimited")
		} else {
			classes := make([]int, 0, len(r.Counts))
			for c := range r.Counts {
				classes = append(classes, int(c))
			}
			sort.Ints(classes)
			b.WriteString(" res={")
			for i, c := range classes {
				if i > 0 {
					b.WriteString(",")
				}
				fmt.Fprintf(&b, "%s:%d", sched.Class(c), r.Counts[sched.Class(c)])
			}
			b.WriteString("}")
		}
	}
	return b.String()
}

// MidendKey composes the midend stage key from the frontend artifact's
// content fingerprint — not its stage key, so two pass lists that happen
// to produce the same transformed program share midend work too. Empty
// when the artifact was never materialized (the one-shot flow).
func MidendKey(fa *FrontendArtifact, o MidendOptions) string {
	if fa.Fingerprint == "" {
		return ""
	}
	return ir.HashText(fmt.Sprintf("midend/v%d|fe=%s|%s",
		MidendVersion, fa.Fingerprint, o.canonical()))
}

// MidendArtifact is the output of the midend stage: the hierarchical
// task graph and its schedule, plus the private program clone they
// reference.
type MidendArtifact struct {
	Program  *ir.Program // midend's own clone; Graph/Schedule reference its vars
	Graph    *htg.Graph
	Schedule *sched.Result
	Cycles   int
	// Fingerprint is the artifact's content identity: the SHA-256 of its
	// lossless encoding (sched.EncodeResult, which embeds the graph and
	// program). Empty until Materialize runs; the one-shot Synthesize
	// path never pays for it.
	Fingerprint string
	Key         string

	// schedEnc holds the schedule's lossless encoding on artifacts
	// revived from disk; Sched decodes it on first use.
	schedEnc   []byte
	decodeOnce sync.Once
	decodeErr  error
}

// ReviveMidendArtifact rebuilds a midend artifact shell from a
// persisted schedule encoding without decoding it: disk revival is
// hash-verified by the cache layer, and cycles travels as metadata
// alongside the payload, so downstream stage keys and sweep metrics
// never force a decode. Sched materializes the full schedule on first
// use.
func ReviveMidendArtifact(schedEnc []byte, cycles int) *MidendArtifact {
	return &MidendArtifact{schedEnc: schedEnc, Cycles: cycles}
}

// Sched returns the artifact's schedule, decoding the persisted
// encoding on first call for revived artifacts (program and graph
// fields are filled from the embedded encoding too). Computed artifacts
// return their in-memory schedule unconditionally.
func (ma *MidendArtifact) Sched() (*sched.Result, error) {
	if ma.Schedule != nil {
		return ma.Schedule, nil
	}
	ma.decodeOnce.Do(func() {
		if ma.schedEnc == nil {
			ma.decodeErr = fmt.Errorf("core: midend artifact has no schedule encoding")
			return
		}
		res, err := sched.DecodeResult(ma.schedEnc)
		if err != nil {
			ma.decodeErr = fmt.Errorf("core: revive midend: %w", err)
			return
		}
		ma.Program, ma.Graph, ma.Schedule = res.G.Prog, res.G, res
		ma.Cycles = res.NumStates
	})
	return ma.Schedule, ma.decodeErr
}

// Materialize computes and stores the artifact's content Fingerprint,
// returning the lossless encoding it hashes (nil if the schedule failed
// to encode) so callers persisting the artifact reuse it instead of
// encoding again — the exact contract FrontendArtifact.Materialize
// carries. Call it from the goroutine that created the artifact, before
// sharing it.
func (ma *MidendArtifact) Materialize() []byte {
	enc, err := sched.EncodeResult(ma.Schedule)
	if err != nil {
		// Mirror the frontend's fallback for unencodable artifacts: a
		// stable (if uninformative) fingerprint, no reusable encoding.
		ma.Fingerprint = ir.HashText("unencodable-midend|" + ma.Key)
		return nil
	}
	ma.Fingerprint = ir.FingerprintBytes(enc)
	return enc
}

// DecodeMidendArtifact revives a midend artifact from its lossless
// encoding. The caller owns verification: re-Materialize the result and
// compare fingerprints against the persisted value before trusting it
// (the exploration engine's disk layer does).
func DecodeMidendArtifact(enc []byte) (*MidendArtifact, error) {
	res, err := sched.DecodeResult(enc)
	if err != nil {
		return nil, fmt.Errorf("core: revive midend: %w", err)
	}
	return &MidendArtifact{
		Program:  res.G.Prog,
		Graph:    res.G,
		Schedule: res,
		Cycles:   res.NumStates,
	}, nil
}

// MidendContext is Midend gated on a context (see FrontendContext for
// the cancellation granularity contract).
func MidendContext(ctx context.Context, fa *FrontendArtifact, o MidendOptions) (*MidendArtifact, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return Midend(fa, o)
}

// Midend runs the scheduling stage: clone the frontend artifact's
// program (artifacts are shared across configurations, so the stage must
// not mutate its input), lower to the HTG, and schedule under the
// regime the options select.
func Midend(fa *FrontendArtifact, o MidendOptions) (*MidendArtifact, error) {
	prog, err := fa.Prog()
	if err != nil {
		return nil, err
	}
	return midend(ir.CloneProgram(prog), fa, o)
}

// midend is Midend on a program the caller owns outright. Synthesize
// uses it to skip the defensive clone: its artifact is private to the
// call, so lowering may consume it in place.
func midend(work *ir.Program, fa *FrontendArtifact, o MidendOptions) (*MidendArtifact, error) {
	main := work.Main()
	if main == nil {
		return nil, fmt.Errorf("core: program has no main function")
	}
	if ir.CountCalls(main) > 0 {
		return nil, fmt.Errorf("core: calls survive transformation (recursive or non-inlinable)")
	}
	g, err := htg.Lower(work, main)
	if err != nil {
		return nil, fmt.Errorf("core: lower: %w", err)
	}
	s, err := sched.Schedule(g, o.schedConfig(g))
	if err != nil {
		return nil, fmt.Errorf("core: schedule: %w", err)
	}
	return &MidendArtifact{
		Program: work, Graph: g, Schedule: s,
		Cycles: s.NumStates, Key: MidendKey(fa, o),
	}, nil
}

func (o MidendOptions) schedConfig(g *htg.Graph) sched.Config {
	cfg := sched.Config{Model: o.model(), DepOpts: dfa.DefaultOptions(),
		DisableChaining: o.NoChaining}
	switch o.Preset {
	case MicroprocessorBlock:
		cfg.Mode = sched.ModeChain
		cfg.Resources = sched.Unlimited()
		// A design that kept loops (NoUnroll ablation or unbounded
		// loops) cannot flatten: fall back to sequential control.
		if g.HasLoops() {
			cfg.Mode = sched.ModeSequential
		}
	case ClassicalASIC:
		cfg.Mode = sched.ModeSequential
		cfg.Resources = sched.Classical()
	}
	if o.Resources != nil {
		cfg.Resources = *o.Resources
	}
	return cfg
}

// BackendOptions is the subset of Options the backend stage reads: only
// the technology model the area/delay report is evaluated under.
type BackendOptions struct {
	Model *delay.Model // nil: delay.Default()
}

func (o BackendOptions) model() *delay.Model {
	if o.Model == nil {
		return delay.Default()
	}
	return o.Model
}

// BackendKey composes the backend stage key from the midend artifact's
// *content* fingerprint — not its stage key, so two option sets that
// converge on the same schedule share backend work (the same sharing
// rule MidendKey applies one stage up) — and the backend options. Empty
// when the midend artifact was never materialized (the one-shot flow).
func BackendKey(ma *MidendArtifact, o BackendOptions) string {
	if ma.Fingerprint == "" {
		return ""
	}
	m := o.model()
	return ir.HashText(fmt.Sprintf("backend/v%d|me=%s|nand=%g clock=%g",
		BackendVersion, ma.Fingerprint, m.NandDelay, m.ClockPeriod))
}

// BackendArtifact is the output of the backend stage: the bound RTL
// netlist and its technology report.
type BackendArtifact struct {
	Module *rtl.Module
	Stats  delay.Report
	// Fingerprint is the artifact's content identity: the SHA-256 of its
	// lossless encoding (netlist plus report). Empty until Materialize
	// runs.
	Fingerprint string
	Key         string

	// modEnc holds the netlist's lossless encoding on artifacts revived
	// from disk; Mod decodes it on first use. The report shell decodes
	// eagerly at revival — it is a handful of flat fields.
	modEnc     []byte
	decodeOnce sync.Once
	decodeErr  error
}

// backendTag versions the backend artifact wire shell: the flat
// technology report followed by the netlist's lossless encoding.
const backendTag = "backend/1"

// Materialize computes and stores the artifact's content Fingerprint,
// returning the lossless encoding it hashes (nil if the module failed
// to encode); see MidendArtifact.Materialize for the contract.
func (ba *BackendArtifact) Materialize() []byte {
	mod, err := rtl.EncodeModule(ba.Module)
	if err != nil {
		ba.Fingerprint = ir.HashText("unencodable-backend|" + ba.Key)
		return nil
	}
	e := wire.NewEncoder(64 + len(mod))
	e.Tag(backendTag)
	e.Float64(ba.Stats.CriticalPath)
	e.Float64(ba.Stats.Area)
	e.Int(ba.Stats.Registers)
	e.Int(ba.Stats.Muxes)
	e.Int(ba.Stats.FUs)
	e.Bytes(mod)
	enc := e.Data()
	ba.Fingerprint = ir.FingerprintBytes(enc)
	return enc
}

// ReviveBackendArtifact rebuilds a backend artifact from its persisted
// encoding without decoding the netlist: the report shell — the only
// part sweep metrics read — is a few flat fields parsed here; the
// module bytes stay encoded until Mod is called (which only the
// simulation path does). Disk revival is hash-verified by the cache
// layer, so no decode or re-encode happens on this path.
func ReviveBackendArtifact(enc []byte) (*BackendArtifact, error) {
	d := wire.NewDecoder(enc)
	d.Tag(backendTag)
	ba := &BackendArtifact{}
	ba.Stats.CriticalPath = d.Float64()
	ba.Stats.Area = d.Float64()
	ba.Stats.Registers = d.Int()
	ba.Stats.Muxes = d.Int()
	ba.Stats.FUs = d.Int()
	ba.modEnc = d.Bytes()
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("core: revive backend: %w", err)
	}
	return ba, nil
}

// Mod returns the artifact's netlist, decoding the persisted encoding
// on first call for revived artifacts. Computed artifacts return their
// in-memory module unconditionally.
func (ba *BackendArtifact) Mod() (*rtl.Module, error) {
	if ba.Module != nil {
		return ba.Module, nil
	}
	ba.decodeOnce.Do(func() {
		if ba.modEnc == nil {
			ba.decodeErr = fmt.Errorf("core: backend artifact has no netlist encoding")
			return
		}
		m, err := rtl.DecodeModule(ba.modEnc)
		if err != nil {
			ba.decodeErr = fmt.Errorf("core: revive backend: %w", err)
			return
		}
		ba.Module = m
	})
	return ba.Module, ba.decodeErr
}

// DecodeBackendArtifact revives a backend artifact from its lossless
// encoding, netlist included — the eager form of ReviveBackendArtifact
// for callers that need the module immediately.
func DecodeBackendArtifact(enc []byte) (*BackendArtifact, error) {
	ba, err := ReviveBackendArtifact(enc)
	if err != nil {
		return nil, err
	}
	if _, err := ba.Mod(); err != nil {
		return nil, err
	}
	return ba, nil
}

// BackendContext is Backend gated on a context (see FrontendContext for
// the cancellation granularity contract).
func BackendContext(ctx context.Context, ma *MidendArtifact, o BackendOptions) (*BackendArtifact, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return Backend(ma, o)
}

// Backend runs the binding/netlist stage on a scheduled design.
func Backend(ma *MidendArtifact, o BackendOptions) (*BackendArtifact, error) {
	s, err := ma.Sched()
	if err != nil {
		return nil, err
	}
	m, err := rtl.Build(s)
	if err != nil {
		return nil, fmt.Errorf("core: rtl: %w", err)
	}
	return &BackendArtifact{
		Module: m, Stats: m.Stats(o.model()), Key: BackendKey(ma, o),
	}, nil
}

// FrontendOptions projects the option fields the frontend stage reads.
func (o Options) FrontendOptions() FrontendOptions {
	return FrontendOptions{
		Passes:       o.PassSpecs(),
		Rounds:       o.CustomRounds,
		CustomPasses: o.CustomPasses,
	}
}

// MidendOptions projects the option fields the midend stage reads.
func (o Options) MidendOptions() MidendOptions {
	return MidendOptions{
		Preset:     o.Preset,
		Model:      o.Model,
		Resources:  o.Resources,
		NoChaining: o.NoChaining,
	}
}

// BackendOptions projects the option fields the backend stage reads:
// the report model when one is set, the shared model otherwise.
func (o Options) BackendOptions() BackendOptions {
	if o.ReportModel != nil {
		return BackendOptions{Model: o.ReportModel}
	}
	return BackendOptions{Model: o.Model}
}
