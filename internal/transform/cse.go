package transform

import (
	"strings"

	"sparkgo/internal/ir"
)

// CSE performs common-subexpression elimination on whole right-hand sides:
// when the same pure expression is assigned twice with no intervening write
// to any of its inputs, the second assignment becomes a copy of the first
// destination. After inlining and unrolling the ILD this removes the
// duplicate byte loads and the repeated Need/LengthContribution lookups
// that adjacent four-byte windows share.
//
// Availability is tracked flow-sensitively: an expression is invalidated by
// a write to any variable (or array) it reads; facts established inside a
// conditional branch do not survive the join, but outer facts flow into
// branches (dominator availability).
func CSE() Pass {
	return PassFunc{PassName: "cse", Fn: func(p *ir.Program) (bool, error) {
		changed := false
		for _, f := range p.Funcs {
			c := &cse{avail: newFactTable(indexCSE), exprs: map[string]*cseExpr{}}
			if c.block(f.Body) {
				changed = true
			}
		}
		return changed, nil
	}}
}

// cseExpr is what CSE needs of one canonical expression: the variables
// it reads (the semantic reads of its key) and whether any is global.
// Identical keys always denote identical expressions, so one record per
// key serves the whole function.
type cseExpr struct {
	reads  []*ir.Var
	global bool
}

func (e *cseExpr) readsVar(v *ir.Var) bool {
	for _, r := range e.reads {
		if r == v {
			return true
		}
	}
	return false
}

// cseFact says the keyed expression's value is available in holder.
type cseFact struct {
	holder *ir.Var
	expr   *cseExpr
}

// involves reports whether a write to v invalidates the fact.
func (f cseFact) involves(v *ir.Var) bool { return f.holder == v || f.expr.readsVar(v) }

// touchesGlobal reports whether a call, which may write any global,
// invalidates the fact.
func (f cseFact) touchesGlobal() bool { return f.holder.IsGlobal || f.expr.global }

// indexCSE files a fact under its holder, every variable it reads, and
// anyGlobalMarker when a call can kill it.
func indexCSE(_ string, f cseFact, dst []*ir.Var) []*ir.Var {
	dst = append(dst, f.holder)
	dst = append(dst, f.expr.reads...)
	if f.touchesGlobal() {
		dst = append(dst, anyGlobalMarker)
	}
	return dst
}

type cse struct {
	// avail maps a canonical expression rendering to the fact holding
	// its value.
	avail *factTable[string, cseFact]
	exprs map[string]*cseExpr
}

// keyOf renders an expression canonically (PrintExpr is deterministic and
// includes variable names, operators, and constant values; variable names
// are unique within a function, so collisions cannot occur).
func keyOf(e ir.Expr) string {
	var b strings.Builder
	b.Grow(64)
	b.WriteString(e.Type().String())
	b.WriteByte('|')
	ir.WriteExpr(&b, e)
	return b.String()
}

// exprOf returns the record of the expression e rendered as key.
func (c *cse) exprOf(key string, e ir.Expr) *cseExpr {
	if x, ok := c.exprs[key]; ok {
		return x
	}
	x := &cseExpr{}
	ir.WalkExpr(e, func(n ir.Expr) bool {
		var v *ir.Var
		switch n := n.(type) {
		case *ir.VarExpr:
			v = n.V
		case *ir.IndexExpr:
			v = n.Arr
		default:
			return true
		}
		if !x.readsVar(v) {
			x.reads = append(x.reads, v)
			x.global = x.global || v.IsGlobal
		}
		return true
	})
	c.exprs[key] = x
	return x
}

// killAll drops every fact a write to v invalidates.
func (c *cse) killAll(v *ir.Var) {
	c.avail.kill(v, func(_ string, f cseFact) bool { return f.involves(v) })
}

// killGlobals drops every fact a call invalidates.
func (c *cse) killGlobals() {
	c.avail.kill(anyGlobalMarker, func(_ string, f cseFact) bool { return f.touchesGlobal() })
}

// scoped processes b in a scope of its own: the facts the block makes
// or kills are undone afterwards.
func (c *cse) scoped(b *ir.Block) bool {
	m := c.avail.mark()
	changed := c.block(b)
	c.avail.rollback(m)
	return changed
}

func (c *cse) block(b *ir.Block) bool {
	changed := false
	for _, s := range b.Stmts {
		switch x := s.(type) {
		case *ir.AssignStmt:
			if _, isCall := x.RHS.(*ir.CallExpr); isCall {
				c.killGlobals()
				if lv, ok := x.LHS.(*ir.VarExpr); ok {
					c.killAll(lv.V)
				}
				continue
			}
			worthCSE := isNontrivial(x.RHS) && IsPure(x.RHS)
			var (
				key      string
				expr     *cseExpr
				origType *ir.Type
			)
			if worthCSE {
				// The read set of the ORIGINAL expression — the semantic
				// reads of the canonical key. It must drive both the
				// self-read guard and the recorded fact; using the
				// substituted copy's reads would let a later write to an
				// original input slip past killAll.
				key = keyOf(x.RHS)
				expr = c.exprOf(key, x.RHS)
				origType = x.RHS.Type()
				if f, ok := c.avail.get(key); ok {
					x.RHS = ir.Cast(ir.V(f.holder), x.LHS.Type())
					changed = true
				}
			}
			switch lhs := x.LHS.(type) {
			case *ir.VarExpr:
				c.killAll(lhs.V)
				if worthCSE && origType.Equal(lhs.V.Type) && !expr.readsVar(lhs.V) {
					if _, stillHas := c.avail.get(key); !stillHas {
						c.avail.set(key, cseFact{holder: lhs.V, expr: expr})
					}
				}
			case *ir.IndexExpr:
				c.killAll(lhs.Arr)
			}
		case *ir.IfStmt:
			// Each branch starts from the facts before the if; neither
			// sees the other's.
			if c.scoped(x.Then) {
				changed = true
			}
			if x.Else != nil && c.scoped(x.Else) {
				changed = true
			}
			// Conservative join: drop facts about anything written in
			// either branch.
			killWritten([]ir.Stmt{x}, c.killAll, c.killGlobals)
		case *ir.ForStmt:
			// Invalidate everything the loop writes, then process the
			// body with the surviving facts.
			killWritten([]ir.Stmt{x}, c.killAll, c.killGlobals)
			if c.scoped(x.Body) {
				changed = true
			}
		case *ir.WhileStmt:
			killWritten([]ir.Stmt{x}, c.killAll, c.killGlobals)
			if c.scoped(x.Body) {
				changed = true
			}
		case *ir.ExprStmt:
			c.killGlobals()
		case *ir.Block:
			if c.block(x) {
				changed = true
			}
		case *ir.ReturnStmt:
			// no effect on availability
		}
	}
	return changed
}

// isNontrivial reports whether an expression is worth deduplicating:
// constants, bare variable reads, and casts of variables are cheaper than
// the copy CSE would introduce.
func isNontrivial(e ir.Expr) bool {
	switch x := e.(type) {
	case *ir.ConstExpr, *ir.VarExpr:
		return false
	case *ir.CastExpr:
		return isNontrivial(x.X)
	}
	return true
}
