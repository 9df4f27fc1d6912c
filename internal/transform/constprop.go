package transform

import (
	"sparkgo/internal/ir"
)

// ConstProp is flow-sensitive constant propagation with branch folding.
// It is the transformation of paper Figs 3(a) and 14: after full loop
// unrolling, the constant assignment to the loop index variable propagates
// through all replicated iterations, the index variable disappears from the
// code, and conditionals with now-constant conditions fold away (e.g. the
// first "if (1 == NextStartByte)" of the unrolled ILD, which is always
// taken).
//
// Semantics note: locals are defined to be zero-initialized (package interp
// and the RTL both guarantee this), so a local's initial value is the
// constant 0. Globals and parameters start unknown.
func ConstProp() Pass {
	return PassFunc{PassName: "const-prop", Fn: func(p *ir.Program) (bool, error) {
		changed := false
		for _, f := range p.Funcs {
			cp := &constProp{s: initialState(f)}
			if cp.block(f.Body) {
				changed = true
			}
		}
		return changed, nil
	}}
}

// indexConst files a fact about a global under anyGlobalMarker, since a
// call may write it; every other fact dies only by a write to its key.
func indexConst(v *ir.Var, _ int64, into []*ir.Var) []*ir.Var {
	if v.IsGlobal {
		into = append(into, anyGlobalMarker)
	}
	return into
}

type constProp struct {
	// s maps a variable to its known constant value (canonical for the
	// variable's type); a variable absent from s is unknown.
	s *factTable[*ir.Var, int64]
}

func initialState(f *ir.Func) *factTable[*ir.Var, int64] {
	s := newFactTable(indexConst)
	for _, v := range f.Locals {
		if !v.IsParam && !v.IsGlobal && v.Type.IsScalar() {
			s.set(v, 0)
		}
	}
	return s
}

// killGlobals forgets every global: a call may write any of them.
func (cp *constProp) killGlobals() {
	cp.s.kill(anyGlobalMarker, func(v *ir.Var, _ int64) bool { return v.IsGlobal })
}

// substitute rewrites e, replacing reads of known-constant variables and
// folding, and returns the new expression.
func (cp *constProp) substitute(e ir.Expr) (ir.Expr, bool) {
	changed := false
	out := ir.RewriteExpr(e, func(x ir.Expr) ir.Expr {
		if v, ok := x.(*ir.VarExpr); ok {
			if val, ok := cp.s.get(v.V); ok {
				changed = true
				return ir.C(val, v.V.Type)
			}
			return x
		}
		nx := FoldExpr(x)
		if nx != x {
			changed = true
		}
		return nx
	})
	return out, changed
}

// block propagates through a statement list, mutating statements in place
// and updating state. It returns whether anything changed. Statement-list
// mutation (branch folding) rebuilds the slice.
func (cp *constProp) block(b *ir.Block) bool {
	changed := false
	out := make([]ir.Stmt, 0, len(b.Stmts))
	for _, st := range b.Stmts {
		var ch bool
		out, ch = cp.stmt(st, out)
		changed = changed || ch
	}
	if len(out) != len(b.Stmts) {
		changed = true
	}
	if len(out) == 0 {
		out = nil
	}
	b.Stmts = out
	return changed
}

// stmt processes one statement, appending its replacement (usually
// itself; nothing or the taken branch for folded ifs) to out, and
// reports whether anything changed.
func (cp *constProp) stmt(st ir.Stmt, out []ir.Stmt) ([]ir.Stmt, bool) {
	switch x := st.(type) {
	case *ir.AssignStmt:
		changed := false
		if _, isCall := x.RHS.(*ir.CallExpr); isCall {
			// Substitute in call arguments; a call clobbers globals.
			call := x.RHS.(*ir.CallExpr)
			for i, a := range call.Args {
				na, ch := cp.substitute(a)
				call.Args[i] = na
				changed = changed || ch
			}
			cp.killGlobals()
		} else {
			nr, ch := cp.substitute(x.RHS)
			x.RHS = nr
			changed = changed || ch
		}
		switch lhs := x.LHS.(type) {
		case *ir.VarExpr:
			if c, ok := x.RHS.(*ir.ConstExpr); ok {
				cp.s.set(lhs.V, lhs.V.Type.Canon(c.Val))
			} else {
				cp.s.del(lhs.V)
			}
		case *ir.IndexExpr:
			ni, ch := cp.substitute(lhs.Index)
			lhs.Index = ni
			changed = changed || ch
			// Array contents are not tracked; nothing to update.
		}
		return append(out, x), changed

	case *ir.IfStmt:
		nc, changed := cp.substitute(x.Cond)
		x.Cond = nc
		if c, ok := x.Cond.(*ir.ConstExpr); ok {
			// Branch folding: splice the taken branch in place.
			var taken *ir.Block
			if c.Val != 0 {
				taken = x.Then
			} else {
				taken = x.Else
			}
			if taken == nil {
				return out, true
			}
			cp.block(taken)
			return append(out, taken.Stmts...), true
		}
		// Join: keep only facts that hold on both paths.
		m := cp.s.mark()
		if cp.block(x.Then) {
			changed = true
		}
		m = cp.s.restart(m)
		if x.Else != nil {
			if cp.block(x.Else) {
				changed = true
			}
		}
		cp.s.merge(m)
		return append(out, x), changed

	case *ir.ForStmt:
		changed := false
		if x.Init != nil {
			repl, ch := cp.stmt(x.Init, nil)
			changed = changed || ch
			if len(repl) == 1 {
				x.Init = repl[0].(*ir.AssignStmt)
			}
		}
		// Everything written in the loop is unknown at the condition
		// and afterwards (no iteration needed: we only remove facts).
		body := append([]ir.Stmt{}, x.Body.Stmts...)
		if x.Post != nil {
			body = append(body, x.Post)
		}
		killWritten(body, cp.s.del, cp.killGlobals)
		nc, ch := cp.substitute(x.Cond)
		x.Cond = nc
		changed = changed || ch
		m := cp.s.mark()
		if cp.block(x.Body) {
			changed = true
		}
		if x.Post != nil {
			ni, ch := cp.substitute(x.Post.RHS)
			x.Post.RHS = ni
			changed = changed || ch
		}
		cp.s.rollback(m)
		return append(out, x), changed

	case *ir.WhileStmt:
		killWritten(x.Body.Stmts, cp.s.del, cp.killGlobals)
		nc, changed := cp.substitute(x.Cond)
		x.Cond = nc
		m := cp.s.mark()
		if cp.block(x.Body) {
			changed = true
		}
		cp.s.rollback(m)
		return append(out, x), changed

	case *ir.ReturnStmt:
		if x.Val == nil {
			return append(out, x), false
		}
		nv, changed := cp.substitute(x.Val)
		x.Val = nv
		return append(out, x), changed

	case *ir.ExprStmt:
		changed := false
		for i, a := range x.Call.Args {
			na, ch := cp.substitute(a)
			x.Call.Args[i] = na
			changed = changed || ch
		}
		cp.killGlobals()
		return append(out, x), changed

	case *ir.Block:
		changed := cp.block(x)
		return append(out, x), changed
	}
	return append(out, st), false
}
