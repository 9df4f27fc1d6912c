package transform

import (
	"sparkgo/internal/ir"
)

// DCE is dead-code elimination: assignments whose destination is never
// subsequently read are removed, empty conditionals and loops collapse, and
// unreferenced locals are dropped from the function. Writes to globals are
// always observable (globals are the block's architectural outputs), as are
// call statements.
//
// The paper relies on DCE to clean up after every coarse transformation:
// eliminated loop-index variables (Fig 14), dead copies from inlining and
// speculation, and the "unnecessary variables and variable copies" of the
// wire-variable insertion of §3.1.2.
func DCE() Pass {
	return PassFunc{PassName: "dce", Fn: func(p *ir.Program) (bool, error) {
		changed := false
		for _, f := range p.Funcs {
			d := newDCE(p, f)
			live := d.exitLive()
			newStmts := d.apply(f.Body.Stmts, &live)
			if len(newStmts) != len(f.Body.Stmts) {
				changed = true
			}
			f.Body.Stmts = newStmts
			if d.changed {
				changed = true
			}
			if d.pruneLocals() {
				changed = true
			}
		}
		return changed, nil
	}}
}

// liveSet is a set of variables as a bitset over one DCE run's dense
// variable index (see dce.id). A set grows on demand, so a variable the
// index first meets mid-run needs no resizing elsewhere.
type liveSet []uint64

func (l liveSet) has(i int) bool {
	w := i >> 6
	return w < len(l) && l[w]&(1<<(i&63)) != 0
}

func (l *liveSet) add(i int) {
	w := i >> 6
	for w >= len(*l) {
		*l = append(*l, 0)
	}
	(*l)[w] |= 1 << (i & 63)
}

func (l liveSet) remove(i int) {
	if w := i >> 6; w < len(l) {
		l[w] &^= 1 << (i & 63)
	}
}

func (l liveSet) clone() liveSet { return append(liveSet(nil), l...) }

// addAll adds every member of o, reporting whether l grew.
func (l *liveSet) addAll(o liveSet) bool {
	for len(*l) < len(o) {
		*l = append(*l, 0)
	}
	grew := false
	for i, w := range o {
		if (*l)[i]|w != (*l)[i] {
			(*l)[i] |= w
			grew = true
		}
	}
	return grew
}

type dce struct {
	prog    *ir.Program
	fn      *ir.Func
	changed bool
	// ids is the dense variable index the live sets are over: globals,
	// parameters and locals up front, anything else on first sight.
	ids     map[*ir.Var]int
	globals liveSet
}

func newDCE(p *ir.Program, f *ir.Func) *dce {
	d := &dce{prog: p, fn: f, ids: make(map[*ir.Var]int, len(p.Globals)+len(f.Locals))}
	for _, g := range p.Globals {
		d.globals.add(d.id(g))
	}
	for _, v := range f.Params {
		d.id(v)
	}
	for _, v := range f.Locals {
		d.id(v)
	}
	return d
}

func (d *dce) id(v *ir.Var) int {
	i, ok := d.ids[v]
	if !ok {
		i = len(d.ids)
		d.ids[v] = i
	}
	return i
}

func (d *dce) isLive(v *ir.Var, live liveSet) bool { return live.has(d.id(v)) }

// exitLive is the liveness at function exit: every global (the outside
// world observes them).
func (d *dce) exitLive() liveSet {
	l := make(liveSet, (len(d.ids)+63)/64)
	l.addAll(d.globals)
	return l
}

// addReads adds every variable e reads (array reads count as reads of
// the array) to l.
func (d *dce) addReads(e ir.Expr, l *liveSet) {
	ir.WalkExpr(e, func(x ir.Expr) bool {
		switch n := x.(type) {
		case *ir.VarExpr:
			l.add(d.id(n.V))
		case *ir.IndexExpr:
			l.add(d.id(n.Arr))
		}
		return true
	})
}

// liveIn turns live from the liveness after the statement list into the
// liveness before it, without touching the statements (used for loop
// fixed points).
func (d *dce) liveIn(stmts []ir.Stmt, live *liveSet) {
	for i := len(stmts) - 1; i >= 0; i-- {
		d.liveInStmt(stmts[i], live)
	}
}

// loopLive grows live, the liveness after a loop, to the liveness at
// its condition: the fixed point over the back edge, where tail runs
// after the body on every iteration (a for loop's post statement).
func (d *dce) loopLive(cond ir.Expr, body []ir.Stmt, tail *ir.AssignStmt, live *liveSet) {
	d.addReads(cond, live)
	for {
		in := live.clone()
		if tail != nil {
			d.liveInStmt(tail, &in)
		}
		d.liveIn(body, &in)
		d.addReads(cond, &in)
		if !live.addAll(in) {
			return
		}
	}
}

// liveInStmt turns live from the liveness after s into the liveness
// before it.
func (d *dce) liveInStmt(s ir.Stmt, live *liveSet) {
	switch x := s.(type) {
	case *ir.AssignStmt:
		if call, isCall := x.RHS.(*ir.CallExpr); isCall {
			if lv, ok := x.LHS.(*ir.VarExpr); ok {
				live.remove(d.id(lv.V))
			}
			for _, a := range call.Args {
				d.addReads(a, live)
			}
			live.addAll(d.globals)
			return
		}
		switch lhs := x.LHS.(type) {
		case *ir.VarExpr:
			if !d.isLive(lhs.V, *live) && !lhs.V.IsGlobal {
				return // dead; contributes nothing
			}
			live.remove(d.id(lhs.V))
			d.addReads(x.RHS, live)
		case *ir.IndexExpr:
			if !d.isLive(lhs.Arr, *live) && !lhs.Arr.IsGlobal {
				return
			}
			d.addReads(lhs.Index, live)
			d.addReads(x.RHS, live)
			live.add(d.id(lhs.Arr)) // stores don't kill (partial writes)
		}
	case *ir.IfStmt:
		t := live.clone()
		d.liveIn(x.Then.Stmts, &t)
		if x.Else != nil {
			d.liveIn(x.Else.Stmts, live)
		}
		live.addAll(t)
		d.addReads(x.Cond, live)
	case *ir.ForStmt:
		d.loopLive(x.Cond, x.Body.Stmts, x.Post, live)
		if x.Init != nil {
			d.liveInStmt(x.Init, live)
		}
	case *ir.WhileStmt:
		d.loopLive(x.Cond, x.Body.Stmts, nil, live)
	case *ir.ReturnStmt:
		// Function exits: only globals (and the value) matter.
		*live = d.exitLive()
		if x.Val != nil {
			d.addReads(x.Val, live)
		}
	case *ir.ExprStmt:
		for _, a := range x.Call.Args {
			d.addReads(a, live)
		}
		live.addAll(d.globals)
	case *ir.Block:
		d.liveIn(x.Stmts, live)
	}
}

// apply removes dead statements, returning the new list; it turns live
// from the liveness after the list into the liveness before the new
// list.
func (d *dce) apply(stmts []ir.Stmt, live *liveSet) []ir.Stmt {
	var out []ir.Stmt // built in reverse
	for i := len(stmts) - 1; i >= 0; i-- {
		s := stmts[i]
		keep := true
		// liveDone: live already holds the liveness before s.
		liveDone := false
		switch x := s.(type) {
		case *ir.AssignStmt:
			if _, isCall := x.RHS.(*ir.CallExpr); !isCall {
				switch lhs := x.LHS.(type) {
				case *ir.VarExpr:
					if !d.isLive(lhs.V, *live) && !lhs.V.IsGlobal {
						keep = false
					}
				case *ir.IndexExpr:
					if !d.isLive(lhs.Arr, *live) && !lhs.Arr.IsGlobal {
						keep = false
					}
				}
			}
		case *ir.IfStmt:
			// Each branch's result is the liveness before its new
			// statements, so the if's own liveness needs no second walk:
			// then ∪ (else, or the liveness after the if when there is
			// no else) ∪ the condition's reads. That also covers the
			// normalisation below, which only moves the else-branch.
			thenLive := live.clone()
			x.Then.Stmts = d.apply(x.Then.Stmts, &thenLive)
			var elseLive liveSet
			hadElse := x.Else != nil
			if hadElse {
				elseLive = live.clone()
				newElse := d.apply(x.Else.Stmts, &elseLive)
				x.Else.Stmts = newElse
				if len(newElse) == 0 {
					x.Else = nil
				}
			}
			if len(x.Then.Stmts) == 0 && x.Else == nil {
				keep = false
			} else if len(x.Then.Stmts) == 0 && x.Else != nil {
				// Normalize: if (c) {} else {B}  →  if (!c) {B}
				x.Cond = FoldExpr(ir.Un(ir.OpLNot, x.Cond))
				x.Then = x.Else
				x.Else = nil
				d.changed = true
			}
			if keep {
				if hadElse {
					*live = elseLive
				}
				live.addAll(thenLive)
				d.addReads(x.Cond, live)
				liveDone = true
			}
		case *ir.ForStmt:
			// Stabilize liveness across the back edge first.
			x2 := live.clone()
			d.loopLive(x.Cond, x.Body.Stmts, x.Post, &x2)
			newBody := d.apply(x.Body.Stmts, &x2)
			x.Body.Stmts = newBody
			if len(newBody) == 0 {
				deadInit := x.Init == nil || d.isDeadWrite(x.Init, *live)
				deadPost := x.Post == nil || d.isDeadWrite(x.Post, *live)
				if deadInit && deadPost {
					keep = false
				}
			}
		case *ir.WhileStmt:
			x2 := live.clone()
			d.loopLive(x.Cond, x.Body.Stmts, nil, &x2)
			newBody := d.apply(x.Body.Stmts, &x2)
			x.Body.Stmts = newBody
			if len(newBody) == 0 {
				keep = false
			}
		case *ir.Block:
			// An emptied block is dropped, and the liveness before an
			// empty list is the liveness after it: live is right either
			// way.
			x.Stmts = d.apply(x.Stmts, live)
			liveDone = true
			if len(x.Stmts) == 0 {
				keep = false
			}
		}
		if keep {
			if !liveDone {
				d.liveInStmt(s, live)
			}
			out = append(out, s)
		} else {
			d.changed = true
		}
	}
	// Reverse.
	for l, r := 0, len(out)-1; l < r; l, r = l+1, r-1 {
		out[l], out[r] = out[r], out[l]
	}
	return out
}

// isDeadWrite reports whether the assignment writes only a variable that is
// dead in live (so dropping it is unobservable).
func (d *dce) isDeadWrite(a *ir.AssignStmt, live liveSet) bool {
	if _, isCall := a.RHS.(*ir.CallExpr); isCall {
		return false
	}
	lv, ok := a.LHS.(*ir.VarExpr)
	return ok && !d.isLive(lv.V, live) && !lv.V.IsGlobal
}

// pruneLocals removes locals that no longer appear anywhere in the body.
func (d *dce) pruneLocals() bool {
	var used liveSet
	ir.WalkStmts(d.fn.Body, func(s ir.Stmt) bool {
		ir.WalkStmtExprs(s, func(e ir.Expr) { d.addReads(e, &used) })
		return true
	})
	var kept []*ir.Var
	for _, v := range d.fn.Locals {
		if v.IsParam || d.isLive(v, used) {
			kept = append(kept, v)
		}
	}
	changed := len(kept) != len(d.fn.Locals)
	d.fn.Locals = kept
	return changed
}
