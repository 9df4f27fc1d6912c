package sched

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"sparkgo/internal/dfa"
	"sparkgo/internal/htg"
	"sparkgo/internal/ir"
)

// scheduleChain implements the flattened, chaining-across-conditionals
// regime (§3.1). It list-schedules the global dependence graph: an op may
// join cycle c when every dependence predecessor is scheduled at or before
// c and, for same-cycle predecessors, the accumulated combinational path —
// including the multiplexers that merge conditionally-written values along
// the chaining trails — still fits the clock period.
func scheduleChain(g *htg.Graph, cfg Config) (*Result, error) {
	if g.HasLoops() {
		return nil, fmt.Errorf("sched: chain mode requires a loop-free graph " +
			"(unroll loops first, or use sequential mode)")
	}
	ops := g.AllOps()
	deps := dfa.Build(ops, cfg.DepOpts)
	m := cfg.Model
	n := len(ops)

	res := &Result{
		G: g, Mode: ModeChain, Model: m,
		VarClass: map[*ir.Var]VarClass{}, ReentrantStates: map[int]bool{},
		Deps: deps,
	}

	// Per-op state, indexed by position in ops. state is the op's cycle,
	// -1 until it is placed; pending counts dependence edges from ops
	// not yet placed.
	var (
		delays  = make([]float64, n)
		prio    = make([]float64, n)
		state   = make([]int32, n)
		arrival = make([]float64, n)
		finish  = make([]float64, n)
		pending = make([]int32, n)
	)
	// Priority: delay-weighted longest path to any sink (computed over
	// the reversed program order — program order is topological).
	for i := n - 1; i >= 0; i-- {
		delays[i] = opDelay(m, ops[i])
		best := 0.0
		for _, e := range deps.Succs[i] {
			if p := prio[e.To]; p > best {
				best = p
			}
		}
		prio[i] = best + delays[i]
		state[i] = -1
		pending[i] = int32(len(deps.Preds[i]))
	}

	// guardedDef[i] is the deps.Vars position of the variable op i
	// writes under a guard, or -1. For each variable, guardedN counts
	// its guarded defs placed in cycle guardedAt-1: the inputs of the
	// mux that merges them (the §3.1.2 wire-variable merge hardware).
	varPos := make(map[*ir.Var]int32, len(deps.Vars))
	for k, v := range deps.Vars {
		varPos[v] = int32(k)
	}
	guardedDef := make([]int32, n)
	for i, op := range ops {
		guardedDef[i] = -1
		if w := op.Writes(); w != nil && len(op.BB.Guard) > 0 {
			guardedDef[i] = varPos[w]
		}
	}
	guardedAt := make([]int32, len(deps.Vars))
	guardedN := make([]int32, len(deps.Vars))
	guardedIn := func(v, c int32) int {
		if guardedAt[v] != c+1 {
			return 0
		}
		return int(guardedN[v])
	}

	// arrivalAt computes the op's input arrival time if placed in cycle c
	// now: same-cycle predecessor finishes, plus a mux penalty when an
	// operand has several conditional writers in this cycle (the §3.1.2
	// wire-variable merge hardware), plus the guard-conjunction network
	// when the op itself commits conditionally (the select chains the
	// netlist really builds). Every predecessor is placed when it runs.
	//
	// The mux penalty is added once per variable, to the first value
	// edge in Preds order that comes from this cycle, whatever the
	// finish times of the variable's later edges. Preds order is
	// therefore part of the schedule: dfa.Build pins it, and changing
	// this rule changes the designs.
	andDelay := m.BinOpDelay(ir.OpLAnd, ir.Bool)
	seenAt := make([]int32, len(deps.Vars)) // call stamp per variable
	calls := int32(0)
	arrivalAt := func(i, c int32) float64 {
		calls++
		guards := len(ops[i].BB.Guard)
		arr := 0.0
		for _, e := range deps.Preds[i] {
			if e.Kind == dfa.Anti || e.Kind == dfa.Output {
				continue // ordering only: no value flows
			}
			if state[e.From] != c {
				continue
			}
			f := finish[e.From]
			if v := e.Var; v >= 0 && seenAt[v] != calls {
				seenAt[v] = calls
				if k := guardedIn(v, c); k > 0 {
					f += m.MuxDelay(k + 1)
				}
			}
			if e.Kind == dfa.Guard {
				// Condition values pass through the guard AND
				// chain before selecting.
				f += andDelay * float64(guards)
			}
			if f > arr {
				arr = f
			}
		}
		return arr
	}
	// commitCost is the extra combinational delay of a conditional
	// commit: the 2:1 select the netlist inserts for a guarded write.
	commitCost := func(op *htg.Op) float64 {
		if len(op.BB.Guard) == 0 {
			return 0
		}
		return m.MuxDelay(2)
	}

	// Resource usage, exclusivity-aware: the maximum number of
	// same-class ops active in cycle c over any control scenario,
	// computed by recursion over the HTG tree (max across exclusive
	// branches, sum across sequential regions).
	var first map[*htg.BasicBlock]int32
	if !cfg.Resources.Unlimited {
		first = blockStarts(g)
	}
	usage := func(class Class, c, extra int32) int {
		var walk func(n htg.Node) int
		countBB := func(bb *htg.BasicBlock) int {
			k := 0
			for j, op := range bb.Ops {
				p := first[bb] + int32(j)
				if (p == extra || state[p] == c) && ClassOf(op) == class {
					k++
				}
			}
			return k
		}
		walk = func(n htg.Node) int {
			switch x := n.(type) {
			case *htg.BBNode:
				return countBB(x.BB)
			case *htg.Seq:
				t := 0
				for _, ch := range x.Nodes {
					t += walk(ch)
				}
				return t
			case *htg.IfNode:
				t := walk(x.Then)
				e := 0
				if x.Else != nil {
					e = walk(x.Else)
				}
				if e > t {
					return e
				}
				return t
			}
			return 0
		}
		return walk(g.Root)
	}

	// List scheduling in waves. The pool holds the unplaced ops whose
	// predecessors are all placed. A wave takes the whole pool by
	// priority (then op ID) and tries each op in the current cycle; an
	// op a predecessor's placement frees waits for the next wave, and a
	// rejected op is retried there with its arrival recomputed. The
	// cycle closes after a wave that places nothing. Anti and output
	// edges gate readiness like value edges but allow the same cycle:
	// netlist construction orders the value network correctly.
	var pool, wave []int32
	for i := range ops {
		if pending[i] == 0 {
			pool = append(pool, int32(i))
		}
	}
	byPriority := func(a, b int32) int {
		if prio[a] != prio[b] {
			if prio[a] > prio[b] {
				return -1
			}
			return 1
		}
		return cmp.Compare(ops[a].ID, ops[b].ID)
	}
	remaining := n
	for cycle := int32(0); remaining > 0; cycle++ {
		if cycle > 100000 {
			return nil, fmt.Errorf("sched: runaway scheduling (%d ops left)", remaining)
		}
		res.StateCritPath = append(res.StateCritPath, 0)
		for progress := true; progress; {
			progress = false
			wave = append(wave[:0], pool...)
			pool = pool[:0]
			slices.SortFunc(wave, byPriority)
			for _, i := range wave {
				op := ops[i]
				arr := arrivalAt(i, cycle)
				fin := arr + delays[i] + commitCost(op)
				if !fitsCycle(cfg, arr, fin, &res.ClockViolations) {
					pool = append(pool, i) // retry next wave
					continue
				}
				if !cfg.Resources.Unlimited {
					cl := ClassOf(op)
					if cl != ClassFree && usage(cl, cycle, i) > cfg.Resources.available(cl) {
						pool = append(pool, i)
						continue
					}
				}
				state[i], arrival[i], finish[i] = cycle, arr, fin
				remaining--
				progress = true
				if fin > res.StateCritPath[cycle] {
					res.StateCritPath[cycle] = fin
				}
				if v := guardedDef[i]; v >= 0 {
					if guardedAt[v] != cycle+1 {
						guardedAt[v], guardedN[v] = cycle+1, 0
					}
					guardedN[v]++
				}
				for _, e := range deps.Succs[i] {
					if pending[e.To]--; pending[e.To] == 0 {
						pool = append(pool, e.To)
					}
				}
			}
		}
		if remaining > 0 && len(res.StateCritPath) > n+1 {
			return nil, fmt.Errorf("sched: no progress at cycle %d", cycle)
		}
	}
	res.NumStates = len(res.StateCritPath)
	for i := range res.StateCritPath {
		res.StateCritPath[i] += m.RegisterSetup()
	}

	res.OpState = make(map[*htg.Op]int, n)
	res.Arrival = make(map[*htg.Op]float64, n)
	res.Finish = make(map[*htg.Op]float64, n)
	// Per-state op order: program order (topological).
	res.OpOrder = make([][]*htg.Op, res.NumStates)
	for i, op := range ops {
		s := int(state[i])
		res.OpState[op], res.Arrival[op], res.Finish[op] = s, arrival[i], finish[i]
		res.OpOrder[s] = append(res.OpOrder[s], op)
	}
	for _, list := range res.OpOrder {
		sort.Slice(list, func(i, j int) bool { return list[i].ID < list[j].ID })
	}

	// Linear FSM: S0 → S1 → ... → done.
	for s := 0; s < res.NumStates-1; s++ {
		res.Transitions = append(res.Transitions, Transition{From: s, To: s + 1})
	}
	if res.NumStates > 0 {
		res.Transitions = append(res.Transitions, Transition{From: res.NumStates - 1, To: -1})
	}

	classifyVars(res)
	return res, nil
}

// classifyVars assigns Register/Wire per the rules worked out in DESIGN.md:
// a variable is a wire-variable iff it is local, written in exactly one
// state, never read in another state, never read (in op order) before its
// first write in that state, and — for re-entrant states — its first write
// is unguarded. Everything else is a register. Globals and the return
// variable are always registers (architectural state).
func classifyVars(res *Result) {
	type varInfo struct {
		defStates map[int]bool
		useStates map[int]bool
		firstDef  map[int]int // state -> op order index of first def
		firstUse  map[int]int
		guarded   bool // some def is guarded
	}
	info := map[*ir.Var]*varInfo{}
	get := func(v *ir.Var) *varInfo {
		vi := info[v]
		if vi == nil {
			vi = &varInfo{defStates: map[int]bool{}, useStates: map[int]bool{},
				firstDef: map[int]int{}, firstUse: map[int]int{}}
			info[v] = vi
		}
		return vi
	}
	for s, list := range res.OpOrder {
		for idx, op := range list {
			for _, v := range op.Reads() {
				vi := get(v)
				vi.useStates[s] = true
				if _, ok := vi.firstUse[s]; !ok {
					vi.firstUse[s] = idx
				}
			}
			// Guard conditions are reads too.
			for _, gt := range op.BB.Guard {
				vi := get(gt.Cond)
				vi.useStates[s] = true
				if _, ok := vi.firstUse[s]; !ok {
					vi.firstUse[s] = idx
				}
			}
			if w := op.Writes(); w != nil {
				vi := get(w)
				vi.defStates[s] = true
				if _, ok := vi.firstDef[s]; !ok {
					vi.firstDef[s] = idx
				}
				if len(op.BB.Guard) > 0 {
					vi.guarded = true
				}
			}
		}
	}
	// Transition conditions are cross-checked as uses at their From
	// state.
	for _, tr := range res.Transitions {
		if tr.Cond != nil {
			vi := get(tr.Cond)
			vi.useStates[tr.From] = true
		}
	}
	for v, vi := range info {
		cls := Wire
		switch {
		case v.IsGlobal || (res.G.RetVar != nil && v == res.G.RetVar):
			cls = Register
		case len(vi.defStates) == 0:
			// Never written: reads see the initial value; a local
			// reads as constant zero — keep as wire (netlist feeds
			// zero), unless global (handled above).
			cls = Wire
		case len(vi.defStates) > 1:
			cls = Register
		default:
			var ds int
			for s := range vi.defStates {
				ds = s
			}
			for us := range vi.useStates {
				if us != ds {
					cls = Register
				}
			}
			if fu, ok := vi.firstUse[ds]; ok && fu < vi.firstDef[ds] {
				cls = Register
			}
			if res.ReentrantStates[ds] && vi.guarded {
				cls = Register
			}
		}
		res.VarClass[v] = cls
	}
}
