package transform

import (
	"sparkgo/internal/ir"
)

// CopyProp is flow-sensitive copy propagation: after "a = b;", reads of a
// are replaced by b until either variable is redefined. Together with DCE
// it removes the copy chains that inlining and speculation leave behind
// (the paper applies it as one of the supporting "standard compiler
// transformations").
//
// Only same-type scalar copies participate (a width-changing assignment
// contains a cast and is left alone), so replacement is always exact.
func CopyProp() Pass {
	return PassFunc{PassName: "copy-prop", Fn: func(p *ir.Program) (bool, error) {
		changed := false
		for _, f := range p.Funcs {
			cpp := &copyProp{s: newFactTable(indexCopy)}
			if cpp.block(f.Body) {
				changed = true
			}
		}
		return changed, nil
	}}
}

// indexCopy files the fact "dst is a copy of src" under src, whose
// writes kill it (a write to dst deletes the key directly), and under
// anyGlobalMarker when either variable is global.
func indexCopy(dst, src *ir.Var, into []*ir.Var) []*ir.Var {
	into = append(into, src)
	if dst.IsGlobal || src.IsGlobal {
		into = append(into, anyGlobalMarker)
	}
	return into
}

type copyProp struct {
	// s maps a variable to the variable it is currently a copy of.
	s *factTable[*ir.Var, *ir.Var]
}

// kill removes facts invalidated by a write to v: both "v = x" facts and
// any "y = v" facts.
func (cp *copyProp) kill(v *ir.Var) {
	cp.s.del(v)
	cp.s.kill(v, func(_, src *ir.Var) bool { return src == v })
}

// killGlobals removes every fact a call may invalidate: copies into or
// out of a global.
func (cp *copyProp) killGlobals() {
	cp.s.kill(anyGlobalMarker, func(dst, src *ir.Var) bool { return dst.IsGlobal || src.IsGlobal })
}

func (cp *copyProp) substitute(e ir.Expr) (ir.Expr, bool) {
	changed := false
	out := ir.RewriteExpr(e, func(x ir.Expr) ir.Expr {
		if v, ok := x.(*ir.VarExpr); ok {
			if src, ok := cp.s.get(v.V); ok {
				changed = true
				return ir.V(src)
			}
		}
		return x
	})
	return out, changed
}

func (cp *copyProp) block(b *ir.Block) bool {
	changed := false
	for _, st := range b.Stmts {
		if cp.stmt(st) {
			changed = true
		}
	}
	return changed
}

func (cp *copyProp) stmt(st ir.Stmt) bool {
	changed := false
	switch x := st.(type) {
	case *ir.AssignStmt:
		if call, isCall := x.RHS.(*ir.CallExpr); isCall {
			for i, a := range call.Args {
				na, ch := cp.substitute(a)
				call.Args[i] = na
				changed = changed || ch
			}
			// Call clobbers globals.
			cp.killGlobals()
		} else {
			nr, ch := cp.substitute(x.RHS)
			x.RHS = nr
			changed = changed || ch
		}
		switch lhs := x.LHS.(type) {
		case *ir.VarExpr:
			cp.kill(lhs.V)
			if src, ok := x.RHS.(*ir.VarExpr); ok && src.V != lhs.V &&
				src.V.Type.Equal(lhs.V.Type) {
				cp.s.set(lhs.V, src.V)
			}
		case *ir.IndexExpr:
			ni, ch := cp.substitute(lhs.Index)
			lhs.Index = ni
			changed = changed || ch
			cp.kill(lhs.Arr)
		}
	case *ir.IfStmt:
		nc, ch := cp.substitute(x.Cond)
		x.Cond = nc
		changed = changed || ch
		// Both branches start from the facts before the if; the join
		// keeps the copies that hold on both paths.
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
	case *ir.ForStmt:
		if x.Init != nil {
			if cp.stmt(x.Init) {
				changed = true
			}
		}
		body := append([]ir.Stmt{}, x.Body.Stmts...)
		if x.Post != nil {
			body = append(body, x.Post)
		}
		killWritten(body, cp.kill, cp.killGlobals)
		nc, ch := cp.substitute(x.Cond)
		x.Cond = nc
		changed = changed || ch
		m := cp.s.mark()
		if cp.block(x.Body) {
			changed = true
		}
		if x.Post != nil {
			nr, ch := cp.substitute(x.Post.RHS)
			x.Post.RHS = nr
			changed = changed || ch
		}
		cp.s.rollback(m)
	case *ir.WhileStmt:
		killWritten(x.Body.Stmts, cp.kill, cp.killGlobals)
		nc, ch := cp.substitute(x.Cond)
		x.Cond = nc
		changed = changed || ch
		m := cp.s.mark()
		if cp.block(x.Body) {
			changed = true
		}
		cp.s.rollback(m)
	case *ir.ReturnStmt:
		if x.Val != nil {
			nv, ch := cp.substitute(x.Val)
			x.Val = nv
			changed = changed || ch
		}
	case *ir.ExprStmt:
		for i, a := range x.Call.Args {
			na, ch := cp.substitute(a)
			x.Call.Args[i] = na
			changed = changed || ch
		}
		cp.killGlobals()
	case *ir.Block:
		if cp.block(x) {
			changed = true
		}
	}
	return changed
}
