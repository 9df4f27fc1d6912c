// Package dfa builds the data-dependence graph over HTG operations that
// drives scheduling: flow (read-after-write), anti (write-after-read),
// output (write-after-write), and guard (control value needed for
// conditional commit) dependences.
//
// Two refinements from the paper's domain are applied:
//
//   - mutual exclusion: operations in basic blocks that can never execute
//     together (contradictory path guards) need no anti/output ordering
//     (§2: mutually exclusive operations may even share a resource);
//   - constant-index array disambiguation: accesses to statically distinct
//     elements of the same array are independent, which is what makes the
//     fully-unrolled ILD's Mark[1], Mark[2], ... stores parallel.
//
// The graph is stored in compressed sparse row form with no pointers in
// the edges: an Edge names its endpoints by position in Graph.Ops and its
// variable by position in Graph.Vars, and all edges live in two flat
// arrays, one grouped by destination op and one by source op. Preds[i] and
// Succs[i] are windows into those arrays. The fully unrolled ILD has
// hundreds of thousands of edges at n = 128, so the layout keeps their
// cost to 16 bytes each and out of the garbage collector's scan.
//
// Build visits the ops in program order and adds every edge into op i
// while visiting i. Two invariants follow. Preds[i] holds i's edges in
// insertion order: guard edges, then flow edges read by read, then anti
// edges, then output edges; the scheduler's mux-penalty rule depends on
// that order. And a duplicate (from, i, kind) edge can only arise during
// the visit of i, so one stamp per (from, kind) recording the last op
// that received such an edge deduplicates in constant time. Succs[i] is
// the stable regrouping of the same edges by source, so it is ordered by
// successor position.
package dfa

import (
	"slices"

	"sparkgo/internal/htg"
	"sparkgo/internal/ir"
)

// EdgeKind classifies dependence edges.
type EdgeKind uint8

const (
	// Flow: the successor reads a value the predecessor writes.
	Flow EdgeKind = iota
	// Anti: the successor overwrites a value the predecessor reads.
	Anti
	// Output: both write the same storage; program order must hold.
	Output
	// Guard: the successor commits under a condition the predecessor
	// computes.
	Guard

	numKinds = iota
)

func (k EdgeKind) String() string {
	switch k {
	case Flow:
		return "flow"
	case Anti:
		return "anti"
	case Output:
		return "output"
	case Guard:
		return "guard"
	}
	return "?"
}

// Edge is one dependence: Ops[From] must complete before (or chain
// into) Ops[To].
type Edge struct {
	From, To int32
	// Var is the storage mediating the dependence (condition var for
	// Guard edges), as a position in Graph.Vars; -1 when none.
	Var  int32
	Kind EdgeKind
}

// Graph is the dependence graph over a set of operations in program order.
type Graph struct {
	Ops []*htg.Op
	// Vars is the side table Edge.Var indexes.
	Vars []*ir.Var
	// Preds[i] holds the edges into Ops[i] in insertion order; Succs[i]
	// holds the edges out of it, ordered by successor position. Each
	// entry is a window into one flat edge array per direction, and
	// must not be appended to.
	Preds, Succs [][]Edge
}

// NumEdges returns the number of dependence edges.
func (g *Graph) NumEdges() int {
	n := 0
	for _, es := range g.Preds {
		n += len(es)
	}
	return n
}

// FromEdges assembles a graph over ops from edges in any order. Each
// op's Preds and Succs keep the edges' relative order in the input.
// Endpoints must be positions in ops and Var positions in vars or -1.
func FromEdges(ops []*htg.Op, vars []*ir.Var, edges []Edge) *Graph {
	// Counting sorts on To and From. Input already in order is used as
	// is: Build emits its edges grouped by To.
	n := len(ops)
	predOff, succOff := make([]int32, n+1), make([]int32, n+1)
	byTo, byFrom := true, true
	for k, e := range edges {
		predOff[e.To+1]++
		succOff[e.From+1]++
		if k > 0 {
			byTo = byTo && e.To >= edges[k-1].To
			byFrom = byFrom && e.From >= edges[k-1].From
		}
	}
	for i := 0; i < n; i++ {
		predOff[i+1] += predOff[i]
		succOff[i+1] += succOff[i]
	}
	preds, succs := edges, edges
	if !byTo {
		preds = make([]Edge, len(edges))
		next := append([]int32(nil), predOff[:n]...)
		for _, e := range edges {
			preds[next[e.To]] = e
			next[e.To]++
		}
	}
	if !byFrom {
		succs = make([]Edge, len(edges))
		next := append([]int32(nil), succOff[:n]...)
		for _, e := range edges {
			succs[next[e.From]] = e
			next[e.From]++
		}
	}
	return &Graph{Ops: ops, Vars: vars, Preds: windows(preds, predOff), Succs: windows(succs, succOff)}
}

// windows cuts flat into the per-op slices [off[i], off[i+1]), capped so
// that an append cannot spill into the next op's edges.
func windows(flat []Edge, off []int32) [][]Edge {
	out := make([][]Edge, len(off)-1)
	for i := range out {
		out[i] = flat[off[i]:off[i+1]:off[i+1]]
	}
	return out
}

// Options configures graph construction.
type Options struct {
	// DisambiguateArrays skips dependences between array accesses with
	// distinct constant indices. Disable for the A-series ablations.
	DisambiguateArrays bool
	// UseExclusivity skips anti/output ordering between mutually
	// exclusive basic blocks.
	UseExclusivity bool
}

// DefaultOptions enables both refinements (the paper's configuration).
func DefaultOptions() Options {
	return Options{DisambiguateArrays: true, UseExclusivity: true}
}

// Build constructs the dependence graph for ops (which must be in program
// order, as produced by Graph.AllOps or BasicBlock.Ops).
func Build(ops []*htg.Op, opt Options) *Graph {
	var (
		vars   []*ir.Var
		varIdx = map[*ir.Var]int32{}
		// Per-variable def/use bookkeeping as op positions, scanning in
		// program order. Both lists are free of duplicates: an op is
		// appended to a variable's lists only while it is visited, and
		// a repeat read of the same variable is dropped at once.
		lastDefs  [][]int32 // defs not yet killed (guarded defs accumulate)
		lastReads [][]int32
		edges     []Edge
		// stamp[k][from] is 1 + the op that last received a kind-k
		// edge from op from.
		stamp [numKinds][]int32
		to    int32 // the op being visited
	)
	for k := range stamp {
		stamp[k] = make([]int32, len(ops))
	}
	varOf := func(v *ir.Var) int32 {
		i, ok := varIdx[v]
		if !ok {
			i = int32(len(vars))
			varIdx[v] = i
			vars = append(vars, v)
			lastDefs = append(lastDefs, nil)
			lastReads = append(lastReads, nil)
		}
		return i
	}
	addEdge := func(from int32, kind EdgeKind, v int32) {
		if from == to || stamp[kind][from] == to+1 {
			return
		}
		stamp[kind][from] = to + 1
		if len(edges) == cap(edges) {
			// Double: append's gentler growth for large slices
			// would copy the edges several times over.
			edges = slices.Grow(edges, len(edges)+64)
		}
		edges = append(edges, Edge{From: from, To: to, Kind: kind, Var: v})
	}
	addRead := func(v int32) {
		if r := lastReads[v]; len(r) == 0 || r[len(r)-1] != to {
			lastReads[v] = append(r, to)
		}
	}

	exclusive := func(a, b *htg.Op) bool {
		return opt.UseExclusivity && htg.MutuallyExclusive(a.BB, b.BB)
	}
	// distinctConstElems reports whether two array ops provably touch
	// different elements.
	distinctConstElems := func(a, b *htg.Op) bool {
		if !opt.DisambiguateArrays {
			return false
		}
		ia, ib := a.Args[0], b.Args[0]
		return ia.IsConst && ib.IsConst && ia.Const != ib.Const
	}

	for i, op := range ops {
		to = int32(i)
		// Guard dependences: the op needs its path conditions — and it
		// READS them, so later writers of a condition variable must be
		// anti-ordered after this op (a stale guard would otherwise
		// commit the wrong branch when scheduling spreads the ops over
		// several cycles).
		for _, gt := range op.BB.Guard {
			c := varOf(gt.Cond)
			for _, d := range lastDefs[c] {
				addEdge(d, Guard, c)
			}
			addRead(c)
		}
		// Flow dependences on reads.
		for _, v := range op.Reads() {
			vi, isArr := varOf(v), v.Type.IsArray()
			for _, d := range lastDefs[vi] {
				def := ops[d]
				if isArr && def.Kind == htg.OpStore && op.Kind == htg.OpLoad &&
					distinctConstElems(def, op) {
					continue
				}
				if isArr && exclusive(def, op) {
					// A store in an exclusive branch can't feed
					// this load.
					continue
				}
				addEdge(d, Flow, vi)
			}
			addRead(vi)
		}
		// Anti/output dependences on the write.
		w := op.Writes()
		if w == nil {
			continue
		}
		wi, isArr := varOf(w), w.Type.IsArray()
		for _, r := range lastReads[wi] {
			if r == to {
				continue
			}
			rd := ops[r]
			if exclusive(rd, op) {
				continue
			}
			if isArr && rd.Kind == htg.OpLoad && op.Kind == htg.OpStore &&
				distinctConstElems(rd, op) {
				continue
			}
			addEdge(r, Anti, wi)
		}
		defs := lastDefs[wi]
		kept := defs[:0] // filtered in place: kept never overtakes the scan
		for _, d := range defs {
			def := ops[d]
			if exclusive(def, op) {
				// Both writes can't happen in one run: no
				// ordering needed, and the old def still
				// reaches later readers on its own paths.
				kept = append(kept, d)
				continue
			}
			if isArr && def.Kind == htg.OpStore && op.Kind == htg.OpStore &&
				distinctConstElems(def, op) {
				kept = append(kept, d)
				continue
			}
			addEdge(d, Output, wi)
			// A killed def stops reaching later readers only
			// when the new write covers it: scalar writes whose
			// guard set is implied by the old def's guards.
			if !isArr && guardsCover(def.BB.Guard, op.BB.Guard) {
				continue // killed
			}
			kept = append(kept, d)
		}
		if !isArr && len(op.BB.Guard) == 0 {
			lastDefs[wi] = append(defs[:0], to) // unconditional def kills all
			lastReads[wi] = lastReads[wi][:0]
		} else {
			// Element stores never kill the whole array: readers at
			// other indices still need older stores.
			lastDefs[wi] = append(kept, to)
		}
	}
	return FromEdges(ops, vars, edges)
}

// guardsCover reports whether guard set a implies b (b is a prefix of a:
// every term of b appears in a). An op whose guard is implied by a later
// op's guard is killed by it.
func guardsCover(a, b []htg.GuardTerm) bool {
	for _, tb := range b {
		found := false
		for _, ta := range a {
			if ta.Cond == tb.Cond && ta.Value == tb.Value {
				found = true
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Topological returns the ops sorted topologically by dependence, breaking
// ties by program order (op ID). The input graph must be acyclic, which
// holds by construction (edges always point forward in program order).
func (g *Graph) Topological() []*htg.Op {
	out := append([]*htg.Op{}, g.Ops...)
	// Edges already point forward in program order, so program order IS
	// a topological order.
	return out
}

// CriticalPathLength returns the maximum number of flow edges on any path
// (the dataflow depth: paper Fig 3b's "two levels").
func (g *Graph) CriticalPathLength() int {
	depth := make([]int, len(g.Ops))
	max := 0
	for i := range g.Ops { // program order = topological
		d := 0
		for _, e := range g.Preds[i] {
			if e.Kind == Flow || e.Kind == Guard {
				if depth[e.From]+1 > d {
					d = depth[e.From] + 1
				}
			}
		}
		depth[i] = d
		if d > max {
			max = d
		}
	}
	return max + 1
}
