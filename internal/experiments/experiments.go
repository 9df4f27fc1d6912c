// Package experiments regenerates every figure-level result of the paper
// (DESIGN.md §4, experiments E1–E14 and ablations A1–A4). Each experiment
// returns a report.Table whose rows are the measured quantities, and an
// error when a claimed shape fails to hold — so the experiment suite
// doubles as an end-to-end regression check. cmd/explore prints all
// tables; bench_test.go wraps each experiment in a benchmark.
package experiments

import (
	"fmt"
	"math/rand"

	"sparkgo/internal/bind"
	"sparkgo/internal/core"
	"sparkgo/internal/delay"
	"sparkgo/internal/htg"
	"sparkgo/internal/ild"
	"sparkgo/internal/interp"
	"sparkgo/internal/ir"
	"sparkgo/internal/parser"
	"sparkgo/internal/pass"
	"sparkgo/internal/report"
	"sparkgo/internal/transform"
)

// fig2Source is the synthetic Op1/Op2 loop of paper Fig 2: Op1 produces
// r1(i) from the input, Op2 consumes r1(i).
func fig2Source(n int) string {
	return fmt.Sprintf(`
uint8 in1[%d];
uint8 r1[%d];
uint8 r2[%d];
void main() {
  uint8 i;
  for (i = 0; i < %d; i++) {
    r1[i] = in1[i] + 3;
    r2[i] = r1[i] ^ in1[i];
  }
}
`, n, n, n, n)
}

// FigureSources returns the paper-figure listings the experiments parse,
// keyed by figure name (Fig 2 at N = 4), so other packages can pin pass
// output on the same inputs.
func FigureSources() map[string]string {
	return map[string]string{
		"fig2": fig2Source(4),
		"fig4": fig4Source,
		"fig5": fig5Source,
		"fig6": fig6Source,
		"fig7": fig7Source,
	}
}

// E1Fig02Unroll measures full loop unrolling (Fig 2): the loop disappears
// and the body replicates N times.
func E1Fig02Unroll() (*report.Table, error) {
	t := report.New("E1 / Fig 2: full loop unrolling",
		"N", "loops before", "ops before", "loops after", "ops after", "replicas ok")
	for _, n := range []int{4, 8, 16, 32} {
		p := parser.MustParse("fig2", fig2Source(n))
		before := ir.CloneProgram(p)
		if _, err := transform.UnrollFull(nil, 0).Run(p); err != nil {
			return nil, err
		}
		lb, la := ir.CountLoops(before.Main()), ir.CountLoops(p.Main())
		ob, oa := ir.CountOps(before.Main()), ir.CountOps(p.Main())
		ok := la == 0 && oa >= n*2
		t.Add(n, lb, ob, la, oa, ok)
		if !ok {
			return t, fmt.Errorf("E1: unrolling failed for N=%d", n)
		}
	}
	return t, nil
}

// E2Fig03ConstPropParallel measures Fig 3: after unroll + constant
// propagation the index variable disappears, the dataflow is two levels
// deep, and with unlimited resources everything executes in one cycle —
// the paper's "all Op1 in parallel followed by all Op2".
func E2Fig03ConstPropParallel() (*report.Table, error) {
	t := report.New("E2 / Fig 3: index elimination and parallel execution",
		"N", "baseline cycles", "spark cycles", "dataflow depth", "index gone")
	for _, n := range []int{4, 8, 16, 32} {
		src := fig2Source(n)
		base, err := core.Synthesize(parser.MustParse("fig2", src),
			core.Options{Preset: core.ClassicalASIC})
		if err != nil {
			return nil, err
		}
		// Actual baseline latency: simulate one activation.
		baseCycles, err := simulatedCycles(base, 1)
		if err != nil {
			return nil, err
		}
		spark, err := core.Synthesize(parser.MustParse("fig2", src),
			core.Options{Preset: core.MicroprocessorBlock})
		if err != nil {
			return nil, err
		}
		depth := spark.Schedule.Deps.CriticalPathLength()
		idxGone := spark.Program.Main().Lookup("i") == nil
		t.Add(n, baseCycles, spark.Cycles, depth, idxGone)
		if spark.Cycles != 1 || !idxGone {
			return t, fmt.Errorf("E2: N=%d spark=%d cycles idxGone=%v", n, spark.Cycles, idxGone)
		}
		if baseCycles <= spark.Cycles {
			return t, fmt.Errorf("E2: baseline (%d) not slower than spark (%d)", baseCycles, spark.Cycles)
		}
	}
	return t, nil
}

// fig4Source is the exact listing of paper Fig 4.
const fig4Source = `
uint8 a;
uint8 b;
uint8 c;
uint8 d;
uint8 e;
bool cond;
uint8 f;
void main() {
  uint8 t1;
  uint8 t2;
  uint8 t3;
  t1 = a + b;
  if (cond) {
    t2 = t1;
    t3 = c + d;
  } else {
    t2 = e;
    t3 = c - d;
  }
  f = t2 + t3;
}
`

// E3Fig04Chaining measures chaining across a conditional boundary: the
// six operations of Fig 4 pack into one cycle, with multiplexers steering
// the conditional values into Op6 — and the critical path is the chained
// add → mux → add, not the sum of all operations.
func E3Fig04Chaining() (*report.Table, error) {
	p := parser.MustParse("fig4", fig4Source)
	res, err := core.Synthesize(p, core.Options{Preset: core.MicroprocessorBlock})
	if err != nil {
		return nil, err
	}
	if err := core.Verify(res, 40, 4); err != nil {
		return nil, err
	}
	m := delay.Default()
	chainBound := 2*m.BinOpDelay(ir.OpAdd, ir.U8) + 2*m.MuxDelay(2) + m.RegisterSetup() +
		m.BinOpDelay(ir.OpEq, ir.Bool)
	sumAll := 4*m.BinOpDelay(ir.OpAdd, ir.U8) + 2*m.MuxDelay(2) + m.RegisterSetup()
	t := report.New("E3 / Fig 4: operation chaining across conditional boundaries",
		"metric", "value")
	t.Add("cycles", res.Cycles)
	t.Add("muxes", res.Stats.Muxes)
	t.Add("critical path (gu)", res.Stats.CriticalPath)
	t.Add("chained bound (gu)", chainBound)
	t.Add("serial sum (gu)", sumAll)
	if res.Cycles != 1 {
		return t, fmt.Errorf("E3: %d cycles, want 1", res.Cycles)
	}
	if res.Stats.Muxes < 1 {
		return t, fmt.Errorf("E3: no muxes generated")
	}
	if res.Stats.CriticalPath > chainBound+0.01 {
		return t, fmt.Errorf("E3: critical path %.1f exceeds chained bound %.1f",
			res.Stats.CriticalPath, chainBound)
	}
	return t, nil
}

// fig5Source reproduces the HTG of paper Fig 5: a two-level conditional
// writing o1 on three trails, then operation 4 reading o1.
const fig5Source = `
uint8 a;
uint8 b;
uint8 c;
uint8 d;
bool cond1;
bool cond2;
uint8 o2;
void main() {
  uint8 o1;
  if (cond1) {
    if (cond2) {
      o1 = a;
    } else {
      o1 = b;
    }
  } else {
    o1 = c;
  }
  o2 = o1 + d;
}
`

// E4Fig05Trails checks the chaining-trail enumeration of §3.1.1: three
// trails lead back from the block of operation 4, and the whole graph
// still schedules into a single cycle.
func E4Fig05Trails() (*report.Table, error) {
	p := parser.MustParse("fig5", fig5Source)
	work := ir.CloneProgram(p)
	if _, err := transform.Inline(nil).Run(work); err != nil {
		return nil, err
	}
	g, err := htg.Lower(work, work.Main())
	if err != nil {
		return nil, err
	}
	// Find the block holding the o2 computation (reads o1, writes o2).
	var target *htg.BasicBlock
	for _, bb := range g.Blocks {
		for _, op := range bb.Ops {
			if w := op.Writes(); w != nil && w.Name == "o2" {
				target = bb
			}
		}
	}
	if target == nil {
		return nil, fmt.Errorf("E4: no block computes o2")
	}
	trails := g.Trails(target)
	t := report.New("E4 / Fig 5: chaining trails", "metric", "value")
	t.Add("trails to o2 block", len(trails))
	for i, tr := range trails {
		t.Add(fmt.Sprintf("trail %d length", i+1), len(tr))
	}
	res, err := core.Synthesize(p, core.Options{Preset: core.MicroprocessorBlock})
	if err != nil {
		return nil, err
	}
	t.Add("cycles", res.Cycles)
	if len(trails) != 3 {
		return t, fmt.Errorf("E4: %d trails, want 3 (paper Fig 5)", len(trails))
	}
	if res.Cycles != 1 {
		return t, fmt.Errorf("E4: %d cycles, want 1", res.Cycles)
	}
	if err := core.Verify(res, 30, 5); err != nil {
		return t, err
	}
	return t, nil
}

const fig6Source = `
uint8 a;
uint8 b;
uint8 d;
uint8 e;
bool cond;
uint8 o2;
void main() {
  uint8 o1;
  o1 = a + b;
  if (cond) {
    o1 = d;
  }
  o2 = o1 + e;
}
`

const fig7Source = `
uint8 d;
uint8 b;
bool cond;
uint8 o2;
void main() {
  uint8 o1;
  if (cond) {
    o1 = d;
  }
  o2 = o1 + b;
}
`

// E5E6WireVariables measures §3.1.2: values merged across conditional
// trails become wire-variables (combinational nets through multiplexers),
// not registers, in the single-cycle design.
func E5E6WireVariables() (*report.Table, error) {
	t := report.New("E5-E6 / Figs 6-7: wire-variables and conditional merges",
		"design", "cycles", "wire vars", "reg vars", "muxes", "verified")
	for name, src := range map[string]string{"fig6": fig6Source, "fig7": fig7Source} {
		p := parser.MustParse(name, src)
		res, err := core.Synthesize(p, core.Options{Preset: core.MicroprocessorBlock})
		if err != nil {
			return nil, err
		}
		if err := core.Verify(res, 40, 6); err != nil {
			return t, fmt.Errorf("%s: %w", name, err)
		}
		br := bind.Summarize(res.Schedule)
		t.Add(name, res.Cycles, br.WireVars, br.RegisterVars, res.Stats.Muxes, true)
		if res.Cycles != 1 {
			return t, fmt.Errorf("E5/E6 %s: %d cycles, want 1", name, res.Cycles)
		}
		if br.WireVars == 0 {
			return t, fmt.Errorf("E5/E6 %s: no wire-variables created", name)
		}
		if res.Stats.Muxes == 0 {
			return t, fmt.Errorf("E5/E6 %s: no conditional merge muxes", name)
		}
	}
	return t, nil
}

// E7Fig10Behavior validates the Fig 10 behavioral description against the
// reference software decoder on random byte streams.
func E7Fig10Behavior(trials int) (*report.Table, error) {
	t := report.New("E7 / Figs 8-10: ILD behavioral description vs reference decoder",
		"n", "trials", "mismatches")
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{4, 8, 16} {
		p := ild.Program(n)
		in := interp.New(p)
		mismatches := 0
		for trial := 0; trial < trials; trial++ {
			buf := ild.RandomBuffer(rng, n)
			env := interp.NewEnv(p)
			if err := ild.LoadBuffer(p, env, buf); err != nil {
				return nil, err
			}
			if _, err := in.RunMain(env); err != nil {
				return nil, err
			}
			want, _ := ild.Decode(buf, n)
			if _, ok := ild.MarksEqual(ild.ReadMarks(p, env), want); !ok {
				mismatches++
			}
		}
		t.Add(n, trials, mismatches)
		if mismatches != 0 {
			return t, fmt.Errorf("E7: n=%d has %d mismatches", n, mismatches)
		}
	}
	return t, nil
}

// E8toE11Stages walks the paper's Fig 11→14 transformation sequence on
// the ILD, reporting program shape after each coordinated stage and
// checking each figure's structural claim.
func E8toE11Stages(n int) (*report.Table, error) {
	t := report.New(fmt.Sprintf("E8-E11 / Figs 11-14: ILD transformation stages (n=%d)", n),
		"stage", "stmts", "ops", "ifs", "loops", "calls", "figure claim")
	p := ild.Program(n)
	orig := ir.CloneProgram(p)
	snap := func(stage, claim string) {
		c := ir.Count(p.Main())
		t.Add(stage, c.Stmts, c.Ops, c.Ifs, c.Loops, c.Calls, claim)
	}
	snap("input (Fig 10)", "guarded loop, calls")

	if _, err := transform.Inline(nil).Run(p); err != nil {
		return nil, err
	}
	if _, err := transform.DropUncalledFuncs().Run(p); err != nil {
		return nil, err
	}
	snap("inline (Fig 12)", "0 calls")
	if c := ir.CountCalls(p.Main()); c != 0 {
		return t, fmt.Errorf("E9/Fig12: %d calls remain", c)
	}

	if _, err := transform.Speculate().Run(p); err != nil {
		return nil, err
	}
	snap("speculate (Fig 11)", "branches hold only copies")
	if err := branchesOnlyCopies(p.Main()); err != nil {
		return t, fmt.Errorf("E8/Fig11: %w", err)
	}

	if _, err := transform.UnrollFull(nil, 0).Run(p); err != nil {
		return nil, err
	}
	snap("unroll (Fig 13)", "0 loops")
	if l := ir.CountLoops(p.Main()); l != 0 {
		return t, fmt.Errorf("E10/Fig13: %d loops remain", l)
	}

	pl := &pass.Pipeline{Passes: []transform.Pass{
		transform.ConstProp(), transform.ConstFold(),
		transform.CopyProp(), transform.CSE(), transform.DCE(),
	}, MaxRounds: 6}
	if err := pl.Run(p); err != nil {
		return nil, err
	}
	snap("const-prop + cleanup (Fig 14)", "index eliminated")
	if v := p.Main().Lookup("i"); v != nil {
		return t, fmt.Errorf("E11/Fig14: loop index survived")
	}
	nonConst := 0
	ir.WalkStmts(p.Main().Body, func(s ir.Stmt) bool {
		ir.WalkStmtExprs(s, func(e ir.Expr) {
			ir.WalkExpr(e, func(x ir.Expr) bool {
				if ix, ok := x.(*ir.IndexExpr); ok {
					if _, isC := ix.Index.(*ir.ConstExpr); !isC {
						nonConst++
					}
				}
				return true
			})
		})
		return true
	})
	if nonConst != 0 {
		return t, fmt.Errorf("E11/Fig14: %d dynamic array indices survive", nonConst)
	}

	// The transformed program must still match the original.
	if err := equivalentPrograms(orig, p, 25); err != nil {
		return t, fmt.Errorf("E8-E11: transformed ILD diverges: %w", err)
	}
	return t, nil
}

// branchesOnlyCopies verifies the Fig 11 shape: after speculation,
// conditional branches contain only the commit forms — variable copies and
// constants, array stores, nested conditionals of the same shape — plus
// the one computation speculation legitimately cannot hoist: the ripple
// accumulation "X = X + step" whose value feeds later guards (the Fig 15
// Ripple Control Logic; the paper's own Figs 12–15 keep
// "NextStartByte += len" conditional). Crucially, no array reads and no
// other operators survive inside branches: all data calculation runs
// speculatively up front.
func branchesOnlyCopies(f *ir.Func) error {
	isRippleUpdate := func(a *ir.AssignStmt) bool {
		lv, ok := a.LHS.(*ir.VarExpr)
		if !ok {
			return false
		}
		rhs := a.RHS
		if c, isCast := rhs.(*ir.CastExpr); isCast {
			rhs = c.X
		}
		bin, ok := rhs.(*ir.BinExpr)
		if !ok || bin.Op != ir.OpAdd {
			return false
		}
		reads := map[*ir.Var]bool{}
		ir.VarsRead(bin, reads)
		if !reads[lv.V] {
			return false
		}
		// Both operands must be plain values (no nested computation,
		// no array reads).
		plain := func(e ir.Expr) bool {
			switch x := e.(type) {
			case *ir.VarExpr, *ir.ConstExpr:
				return true
			case *ir.CastExpr:
				switch x.X.(type) {
				case *ir.VarExpr, *ir.ConstExpr:
					return true
				}
			}
			return false
		}
		return plain(bin.L) && plain(bin.R)
	}
	var check func(b *ir.Block) error
	check = func(b *ir.Block) error {
		for _, s := range b.Stmts {
			switch x := s.(type) {
			case *ir.AssignStmt:
				if ix, isIdx := x.LHS.(*ir.IndexExpr); isIdx {
					// Conditional array store stays; its value and
					// index must be plain.
					if _, isC := ix.Index.(*ir.ConstExpr); !isC {
						if _, isV := ix.Index.(*ir.VarExpr); !isV {
							return fmt.Errorf("computed store index in branch: %s", ir.PrintStmt(s))
						}
					}
					continue
				}
				switch x.RHS.(type) {
				case *ir.VarExpr, *ir.ConstExpr:
				default:
					if !isRippleUpdate(x) {
						return fmt.Errorf("non-copy in branch: %s", ir.PrintStmt(s))
					}
				}
			case *ir.IfStmt:
				if err := check(x.Then); err != nil {
					return err
				}
				if x.Else != nil {
					if err := check(x.Else); err != nil {
						return err
					}
				}
			default:
				return fmt.Errorf("unexpected %T in branch", s)
			}
		}
		return nil
	}
	var err error
	ir.WalkStmts(f.Body, func(s ir.Stmt) bool {
		if ifs, ok := s.(*ir.IfStmt); ok && err == nil {
			if e := check(ifs.Then); e != nil {
				err = e
			}
			if ifs.Else != nil && err == nil {
				if e := check(ifs.Else); e != nil {
					err = e
				}
			}
			return false
		}
		return err == nil
	})
	return err
}
