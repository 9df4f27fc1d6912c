package htg

import (
	"fmt"

	"sparkgo/internal/interp"
	"sparkgo/internal/ir"
)

// Lower builds the HTG of a function. The function must be call-free
// (inline first); returns are allowed only in tail position. The lowering
// is three-address: every operator becomes one Op writing a fresh
// temporary unless it directly feeds an assignment, in which case it
// writes the destination.
//
// Logical && and || lower to strict (both-operands) gates: all IR
// expressions are pure, and our division/remainder semantics are total, so
// strict evaluation computes the same value the interpreter's
// short-circuit evaluation does — and gates are what the hardware builds.
func Lower(prog *ir.Program, fn *ir.Func) (*Graph, error) {
	g := &Graph{Prog: prog, Fn: fn, Root: &Seq{}}
	lw := &lowerer{g: g, newTemp: fn.TempNamer()}
	if !fn.Ret.IsVoid() {
		g.RetVar = lw.newTemp("ret", fn.Ret)
	}
	seq, err := lw.lowerBlock(fn.Body, nil)
	if err != nil {
		return nil, err
	}
	g.Root = seq
	return g, nil
}

type lowerer struct {
	g       *Graph
	cur     *BasicBlock
	seq     *Seq
	guard   []GuardTerm
	newTemp func(prefix string, t *ir.Type) *ir.Var // g.Fn's TempNamer

	// Lowering arenas: ops, operand lists, blocks, and guard copies are
	// carved from fixed-size chunks instead of allocated one heap object
	// per emit — the same block-allocation the codec uses on decode,
	// applied to the builder the midend re-runs per explored design
	// point. Chunks are never resliced once handed out, so the pointers
	// stay stable for the life of the graph.
	opArena    []Op
	bbArena    []BasicBlock
	argArena   []Operand
	guardArena []GuardTerm
}

// lowerArenaChunk sizes the lowering arenas: a handful of chunks covers
// a typical function, and an abandoned graph wastes little.
const lowerArenaChunk = 64

// newOp carves one op from the arena and initializes it from the
// prototype.
func (lw *lowerer) newOp(proto Op) *Op {
	if len(lw.opArena) == 0 {
		lw.opArena = make([]Op, lowerArenaChunk)
	}
	op := &lw.opArena[0]
	lw.opArena = lw.opArena[1:]
	*op = proto
	return op
}

// argSlots carves an n-element operand list from the arena.
func (lw *lowerer) argSlots(n int) []Operand {
	if len(lw.argArena) < n {
		lw.argArena = make([]Operand, max(lowerArenaChunk, n))
	}
	s := lw.argArena[:n:n]
	lw.argArena = lw.argArena[n:]
	return s
}

func (lw *lowerer) args1(a Operand) []Operand {
	s := lw.argSlots(1)
	s[0] = a
	return s
}

func (lw *lowerer) args2(a, b Operand) []Operand {
	s := lw.argSlots(2)
	s[0], s[1] = a, b
	return s
}

func (lw *lowerer) args3(a, b, c Operand) []Operand {
	s := lw.argSlots(3)
	s[0], s[1], s[2] = a, b, c
	return s
}

// copyGuard snapshots the current guard context from the arena.
func (lw *lowerer) copyGuard() []GuardTerm {
	n := len(lw.guard)
	if n == 0 {
		return []GuardTerm{}
	}
	if len(lw.guardArena) < n {
		lw.guardArena = make([]GuardTerm, max(lowerArenaChunk, n))
	}
	s := lw.guardArena[:n:n]
	lw.guardArena = lw.guardArena[n:]
	copy(s, lw.guard)
	return s
}

func (lw *lowerer) newBB() *BasicBlock {
	if len(lw.bbArena) == 0 {
		lw.bbArena = make([]BasicBlock, lowerArenaChunk)
	}
	bb := &lw.bbArena[0]
	lw.bbArena = lw.bbArena[1:]
	bb.ID = len(lw.g.Blocks)
	bb.Guard = lw.copyGuard()
	lw.g.Blocks = append(lw.g.Blocks, bb)
	return bb
}

// ensureBB returns the current basic block, opening one if needed.
func (lw *lowerer) ensureBB() *BasicBlock {
	if lw.cur == nil {
		lw.cur = lw.newBB()
		lw.seq.Nodes = append(lw.seq.Nodes, &BBNode{BB: lw.cur})
	}
	return lw.cur
}

func (lw *lowerer) emit(proto Op) *Op {
	op := lw.newOp(proto)
	bb := lw.ensureBB()
	op.ID = lw.g.nextOp
	lw.g.nextOp++
	op.BB = bb
	bb.Ops = append(bb.Ops, op)
	return op
}

func (lw *lowerer) temp(t *ir.Type) *ir.Var {
	return lw.newTemp("op", t)
}

// lowerBlock lowers a statement block into a fresh Seq under the given
// guard context.
func (lw *lowerer) lowerBlock(b *ir.Block, guard []GuardTerm) (*Seq, error) {
	savedSeq, savedCur, savedGuard := lw.seq, lw.cur, lw.guard
	lw.seq, lw.cur, lw.guard = &Seq{}, nil, guard
	defer func() { lw.seq, lw.cur, lw.guard = savedSeq, savedCur, savedGuard }()

	for i, s := range b.Stmts {
		if err := lw.lowerStmt(s, i == len(b.Stmts)-1); err != nil {
			return nil, err
		}
	}
	return lw.seq, nil
}

func (lw *lowerer) lowerStmt(s ir.Stmt, isLast bool) error {
	switch x := s.(type) {
	case *ir.AssignStmt:
		return lw.lowerAssign(x)
	case *ir.IfStmt:
		condOperand, err := lw.lowerExpr(x.Cond, nil)
		if err != nil {
			return err
		}
		condVar, err := lw.materialize(condOperand, ir.Bool)
		if err != nil {
			return err
		}
		thenSeq, err := lw.lowerBlock(x.Then, append(append([]GuardTerm{}, lw.guard...), GuardTerm{Cond: condVar, Value: true}))
		if err != nil {
			return err
		}
		var elseSeq *Seq
		if x.Else != nil {
			elseSeq, err = lw.lowerBlock(x.Else, append(append([]GuardTerm{}, lw.guard...), GuardTerm{Cond: condVar, Value: false}))
			if err != nil {
				return err
			}
		}
		lw.seq.Nodes = append(lw.seq.Nodes, &IfNode{Cond: condVar, Then: thenSeq, Else: elseSeq})
		lw.cur = nil // join: next ops start a fresh block
		return nil
	case *ir.ForStmt:
		return lw.lowerFor(x)
	case *ir.WhileStmt:
		return lw.lowerWhile(x)
	case *ir.ReturnStmt:
		if !isLast || len(lw.guard) != 0 {
			return fmt.Errorf("htg: non-tail return in %s (inline/restructure first)", lw.g.Fn.Name)
		}
		if x.Val != nil {
			if lw.g.RetVar == nil {
				return fmt.Errorf("htg: value return in void function %s", lw.g.Fn.Name)
			}
			return lw.assignTo(lw.g.RetVar, ir.Cast(x.Val, lw.g.RetVar.Type))
		}
		return nil
	case *ir.ExprStmt:
		return fmt.Errorf("htg: call %s survives lowering (run inline first)", x.Call.Name)
	case *ir.Block:
		for i, inner := range x.Stmts {
			if err := lw.lowerStmt(inner, isLast && i == len(x.Stmts)-1); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("htg: unknown statement %T", s)
}

func (lw *lowerer) lowerAssign(a *ir.AssignStmt) error {
	if _, isCall := a.RHS.(*ir.CallExpr); isCall {
		return fmt.Errorf("htg: call survives lowering (run inline first)")
	}
	switch lhs := a.LHS.(type) {
	case *ir.VarExpr:
		return lw.assignTo(lhs.V, a.RHS)
	case *ir.IndexExpr:
		idx, err := lw.lowerExpr(lhs.Index, nil)
		if err != nil {
			return err
		}
		val, err := lw.lowerExpr(a.RHS, nil)
		if err != nil {
			return err
		}
		lw.emit(Op{Kind: OpStore, Arr: lhs.Arr, Args: lw.args2(idx, val)})
		return nil
	}
	return fmt.Errorf("htg: bad lvalue %T", a.LHS)
}

// assignTo lowers "dst = e", targeting dst directly when e is an operator.
func (lw *lowerer) assignTo(dst *ir.Var, e ir.Expr) error {
	op, err := lw.lowerExpr(e, dst)
	if err != nil {
		return err
	}
	// lowerExpr with a destination either targeted it (returns the dst
	// operand) or produced a value that still needs a copy.
	if !op.IsConst && op.Var == dst {
		return nil
	}
	lw.emit(Op{Kind: OpCopy, Dst: dst, Args: lw.args1(op)})
	return nil
}

// materialize forces an operand into a variable of the given type.
func (lw *lowerer) materialize(o Operand, t *ir.Type) (*ir.Var, error) {
	if !o.IsConst && o.Var.Type.Equal(t) {
		return o.Var, nil
	}
	v := lw.temp(t)
	lw.emit(Op{Kind: OpCopy, Dst: v, Args: lw.args1(o)})
	return v, nil
}

// lowerExpr lowers an expression, emitting ops as needed. If dst is
// non-nil and the expression's root is an operator whose result type
// matches dst's width semantics, the final op writes dst directly and the
// returned operand references dst.
func (lw *lowerer) lowerExpr(e ir.Expr, dst *ir.Var) (Operand, error) {
	switch x := e.(type) {
	case *ir.ConstExpr:
		return Operand{IsConst: true, Const: x.Val, Typ: x.Typ}, nil
	case *ir.VarExpr:
		if x.V.Type.IsArray() {
			return Operand{}, fmt.Errorf("htg: array %s used as value", x.V.Name)
		}
		return VarOperand(x.V), nil
	case *ir.IndexExpr:
		idx, err := lw.lowerExpr(x.Index, nil)
		if err != nil {
			return Operand{}, err
		}
		d := lw.target(dst, x.Type())
		lw.emit(Op{Kind: OpLoad, Dst: d, Arr: x.Arr, Args: lw.args1(idx)})
		return VarOperand(d), nil
	case *ir.BinExpr:
		l, err := lw.lowerExpr(x.L, nil)
		if err != nil {
			return Operand{}, err
		}
		r, err := lw.lowerExpr(x.R, nil)
		if err != nil {
			return Operand{}, err
		}
		d := lw.target(dst, x.Typ)
		lw.emit(Op{Kind: OpBin, Bin: x.Op, Dst: d, Args: lw.args2(l, r),
			UnsignedOps: interp.UnsignedOperands(x.L.Type(), x.R.Type())})
		return VarOperand(d), nil
	case *ir.UnExpr:
		in, err := lw.lowerExpr(x.X, nil)
		if err != nil {
			return Operand{}, err
		}
		d := lw.target(dst, x.Typ)
		lw.emit(Op{Kind: OpUn, Un: x.Op, Dst: d, Args: lw.args1(in)})
		return VarOperand(d), nil
	case *ir.SelExpr:
		c, err := lw.lowerExpr(x.Cond, nil)
		if err != nil {
			return Operand{}, err
		}
		tv, err := lw.lowerExpr(x.Then, nil)
		if err != nil {
			return Operand{}, err
		}
		ev, err := lw.lowerExpr(x.Else, nil)
		if err != nil {
			return Operand{}, err
		}
		d := lw.target(dst, x.Typ)
		lw.emit(Op{Kind: OpMux, Dst: d, Args: lw.args3(c, tv, ev)})
		return VarOperand(d), nil
	case *ir.CastExpr:
		in, err := lw.lowerExpr(x.X, nil)
		if err != nil {
			return Operand{}, err
		}
		d := lw.target(dst, x.Typ)
		lw.emit(Op{Kind: OpCopy, Dst: d, Args: lw.args1(in)})
		return VarOperand(d), nil
	case *ir.CallExpr:
		return Operand{}, fmt.Errorf("htg: call %s survives lowering", x.Name)
	}
	return Operand{}, fmt.Errorf("htg: unknown expression %T", e)
}

// target picks the destination for an operator result: dst when its type
// matches the operator's result exactly, else a fresh temp (the final Copy
// performs the width conversion).
func (lw *lowerer) target(dst *ir.Var, resultType *ir.Type) *ir.Var {
	if dst != nil && dst.Type.Equal(resultType) {
		return dst
	}
	return lw.temp(resultType)
}

func (lw *lowerer) lowerFor(f *ir.ForStmt) error {
	loop := &LoopNode{Label: f.Label}
	// Init block.
	lw.cur = nil
	if f.Init != nil {
		lw.cur = lw.newBB()
		if err := lw.lowerAssign(f.Init); err != nil {
			return err
		}
		loop.InitBB = lw.cur
	}
	// Cond block.
	lw.cur = lw.newBB()
	condOperand, err := lw.lowerExpr(f.Cond, nil)
	if err != nil {
		return err
	}
	condVar, err := lw.materialize(condOperand, ir.Bool)
	if err != nil {
		return err
	}
	loop.CondBB = lw.cur
	loop.Cond = condVar

	// Body (+ post) as a nested sequence.
	bodyStmts := append([]ir.Stmt{}, f.Body.Stmts...)
	if f.Post != nil {
		bodyStmts = append(bodyStmts, f.Post)
	}
	bodySeq, err := lw.lowerBlock(ir.NewBlock(bodyStmts...), lw.guard)
	if err != nil {
		return err
	}
	loop.Body = bodySeq
	lw.seq.Nodes = append(lw.seq.Nodes, loop)
	lw.cur = nil
	return nil
}

func (lw *lowerer) lowerWhile(w *ir.WhileStmt) error {
	loop := &LoopNode{Label: w.Label}
	lw.cur = lw.newBB()
	condOperand, err := lw.lowerExpr(w.Cond, nil)
	if err != nil {
		return err
	}
	condVar, err := lw.materialize(condOperand, ir.Bool)
	if err != nil {
		return err
	}
	loop.CondBB = lw.cur
	loop.Cond = condVar
	bodySeq, err := lw.lowerBlock(w.Body, lw.guard)
	if err != nil {
		return err
	}
	loop.Body = bodySeq
	lw.seq.Nodes = append(lw.seq.Nodes, loop)
	lw.cur = nil
	return nil
}
