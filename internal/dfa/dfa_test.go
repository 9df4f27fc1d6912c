package dfa_test

import (
	"slices"
	"testing"

	"sparkgo/internal/core"
	"sparkgo/internal/dfa"
	"sparkgo/internal/htg"
	"sparkgo/internal/ild"
	"sparkgo/internal/ir"
	"sparkgo/internal/parser"
	"sparkgo/internal/transform"
)

func lower(t *testing.T, src string) *htg.Graph {
	t.Helper()
	p := parser.MustParse("t", src)
	if _, err := transform.Inline(nil).Run(p); err != nil {
		t.Fatal(err)
	}
	g, err := htg.Lower(p, p.Main())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func findOp(g *htg.Graph, pred func(*htg.Op) bool) *htg.Op {
	for _, op := range g.AllOps() {
		if pred(op) {
			return op
		}
	}
	return nil
}

// pos returns op's position in d.Ops, or -1.
func pos(d *dfa.Graph, op *htg.Op) int {
	for i, o := range d.Ops {
		if o == op {
			return i
		}
	}
	return -1
}

func hasEdge(d *dfa.Graph, from, to *htg.Op, kind dfa.EdgeKind) bool {
	i := pos(d, from)
	if i < 0 {
		return false
	}
	for _, e := range d.Succs[i] {
		if d.Ops[e.To] == to && e.Kind == kind {
			return true
		}
	}
	return false
}

func TestFlowDependence(t *testing.T) {
	g := lower(t, `
uint8 a;
uint8 out;
void main() {
  uint8 t;
  t = a + 1;
  out = t * 2;
}
`)
	d := dfa.Build(g.AllOps(), dfa.DefaultOptions())
	def := findOp(g, func(op *htg.Op) bool { return op.Writes() != nil && op.Writes().Name == "t" })
	use := findOp(g, func(op *htg.Op) bool {
		for _, v := range op.Reads() {
			if v.Name == "t" {
				return true
			}
		}
		return false
	})
	if def == nil || use == nil {
		t.Fatal("ops not found")
	}
	if !hasEdge(d, def, use, dfa.Flow) {
		t.Error("missing flow edge def(t) -> use(t)")
	}
}

func TestAntiAndOutputDependence(t *testing.T) {
	g := lower(t, `
uint8 a;
uint8 out;
void main() {
  uint8 t;
  t = a + 1;
  out = t;
  t = a + 2;
}
`)
	d := dfa.Build(g.AllOps(), dfa.DefaultOptions())
	var defs []*htg.Op
	for _, op := range g.AllOps() {
		if w := op.Writes(); w != nil && w.Name == "t" {
			defs = append(defs, op)
		}
	}
	if len(defs) != 2 {
		t.Fatalf("defs of t = %d, want 2", len(defs))
	}
	use := findOp(g, func(op *htg.Op) bool { return op.Writes() != nil && op.Writes().Name == "out" })
	if !hasEdge(d, defs[0], defs[1], dfa.Output) {
		t.Error("missing output edge between the two defs of t")
	}
	if !hasEdge(d, use, defs[1], dfa.Anti) {
		t.Error("missing anti edge use(t) -> redef(t)")
	}
}

func TestGuardDependenceAndGuardRead(t *testing.T) {
	g := lower(t, `
uint8 a;
uint8 out;
void main() {
  bool c;
  c = a > 1;
  if (c) {
    out = 5;
  }
  c = a > 2;
}
`)
	d := dfa.Build(g.AllOps(), dfa.DefaultOptions())
	guarded := findOp(g, func(op *htg.Op) bool { return len(op.BB.Guard) > 0 })
	if guarded == nil {
		t.Fatal("no guarded op")
	}
	var condDefs []*htg.Op
	for _, op := range g.AllOps() {
		if w := op.Writes(); w != nil && w.Name == "c" {
			condDefs = append(condDefs, op)
		}
	}
	if len(condDefs) != 2 {
		t.Fatalf("defs of c = %d, want 2", len(condDefs))
	}
	if !hasEdge(d, condDefs[0], guarded, dfa.Guard) {
		t.Error("missing guard edge cond-def -> guarded op")
	}
	// The guarded op READS c: the later redefinition of c must be
	// anti-ordered after it (the stale-guard hazard).
	if !hasEdge(d, guarded, condDefs[1], dfa.Anti) {
		t.Error("missing anti edge guarded-op -> cond redefinition")
	}
}

func TestConstIndexDisambiguation(t *testing.T) {
	g := lower(t, `
uint8 arr[4];
void main() {
  arr[0] = 1;
  arr[1] = 2;
}
`)
	opts := dfa.DefaultOptions()
	d := dfa.Build(g.AllOps(), opts)
	var stores []*htg.Op
	for _, op := range g.AllOps() {
		if op.Kind == htg.OpStore {
			stores = append(stores, op)
		}
	}
	if len(stores) != 2 {
		t.Fatalf("stores = %d", len(stores))
	}
	if hasEdge(d, stores[0], stores[1], dfa.Output) {
		t.Error("distinct constant indices should not be ordered")
	}
	// With disambiguation off, they must be ordered.
	opts.DisambiguateArrays = false
	d2 := dfa.Build(g.AllOps(), opts)
	if !hasEdge(d2, stores[0], stores[1], dfa.Output) {
		t.Error("ablation: stores must be ordered without disambiguation")
	}
}

func TestDynamicIndexConservative(t *testing.T) {
	g := lower(t, `
uint8 arr[4];
uint8 i;
uint8 out;
void main() {
  arr[i] = 1;
  out = arr[2];
}
`)
	d := dfa.Build(g.AllOps(), dfa.DefaultOptions())
	store := findOp(g, func(op *htg.Op) bool { return op.Kind == htg.OpStore })
	load := findOp(g, func(op *htg.Op) bool { return op.Kind == htg.OpLoad && op.Arr.Name == "arr" })
	if !hasEdge(d, store, load, dfa.Flow) {
		t.Error("dynamic store must order before a later load")
	}
}

func TestExclusiveBranchesUnordered(t *testing.T) {
	g := lower(t, `
uint8 a;
uint8 x;
void main() {
  if (a > 1) {
    x = 1;
  } else {
    x = 2;
  }
}
`)
	d := dfa.Build(g.AllOps(), dfa.DefaultOptions())
	var defs []*htg.Op
	for _, op := range g.AllOps() {
		if w := op.Writes(); w != nil && w.Name == "x" && op.Kind == htg.OpCopy {
			defs = append(defs, op)
		}
	}
	if len(defs) != 2 {
		t.Fatalf("defs = %d", len(defs))
	}
	if hasEdge(d, defs[0], defs[1], dfa.Output) {
		t.Error("mutually exclusive writes should not be ordered")
	}
}

func TestCriticalPathLength(t *testing.T) {
	g := lower(t, `
uint8 a;
uint8 out;
void main() {
  uint8 t1;
  uint8 t2;
  t1 = a + 1;
  t2 = t1 + 2;
  out = t2 + 3;
}
`)
	d := dfa.Build(g.AllOps(), dfa.DefaultOptions())
	if depth := d.CriticalPathLength(); depth < 3 {
		t.Errorf("dataflow depth = %d, want >= 3", depth)
	}
}

func TestEdgesPointForward(t *testing.T) {
	g := lower(t, `
uint8 a;
uint8 arr[4];
uint8 out;
void main() {
  uint8 t;
  if (a > 1) {
    arr[a & 3] = a;
    t = arr[0];
  }
  out = t + arr[1];
}
`)
	d := dfa.Build(g.AllOps(), dfa.DefaultOptions())
	for _, succs := range d.Succs {
		for _, e := range succs {
			if from, to := d.Ops[e.From], d.Ops[e.To]; from.ID >= to.ID {
				t.Errorf("edge not forward in program order: #%d -> #%d (%v)",
					from.ID, to.ID, e.Kind)
			}
		}
	}
}

// TestPredsInVisitOrder pins the order of an op's incoming edges: guard
// edges first, then flow edges read by read, then anti, then output.
// The scheduler's mux-penalty rule reads the first edge of each
// variable, so this order is part of every schedule.
func TestPredsInVisitOrder(t *testing.T) {
	g := lower(t, `
uint8 a;
uint8 out;
uint8 out2;
void main() {
  uint8 t;
  uint8 p;
  uint8 q;
  p = a + 1;
  q = a + 2;
  t = a + 3;
  out = t + 1;
  if (a > 1) {
    t = q + p;
  }
  out2 = t;
}
`)
	d := dfa.Build(g.AllOps(), dfa.DefaultOptions())
	writer := func(name string, guarded bool) *htg.Op {
		return findOp(g, func(op *htg.Op) bool {
			return op.Writes() != nil && op.Writes().Name == name && (len(op.BB.Guard) > 0) == guarded
		})
	}
	x := writer("t", true)
	cond := findOp(g, func(op *htg.Op) bool { return op.Kind == htg.OpBin && op.Bin == ir.OpGt })
	want := []struct {
		from *htg.Op
		kind dfa.EdgeKind
		v    string
	}{
		{cond, dfa.Guard, cond.Writes().Name},
		{writer("q", false), dfa.Flow, "q"},
		{writer("p", false), dfa.Flow, "p"},
		{writer("out", false), dfa.Anti, "t"},
		{writer("t", false), dfa.Output, "t"},
	}
	got := d.Preds[pos(d, x)]
	if len(got) != len(want) {
		t.Fatalf("%d preds, want %d: %+v", len(got), len(want), got)
	}
	for k, w := range want {
		e := got[k]
		if d.Ops[e.From] != w.from || e.Kind != w.kind || d.Vars[e.Var].Name != w.v || d.Ops[e.To] != x {
			t.Errorf("pred %d = %v from %s via %s, want %v from %s via %s",
				k, e.Kind, d.Ops[e.From], d.Vars[e.Var].Name, w.kind, w.from, w.v)
		}
	}
}

// TestSuccsRegroupPreds pins Succs as the stable regrouping of the
// edges by source: walking every op's Preds in position order and
// dealing each edge to its source reproduces Succs exactly, so each
// Succs list is ordered by successor position.
func TestSuccsRegroupPreds(t *testing.T) {
	p := ild.Program(8)
	opt := core.Options{Preset: core.MicroprocessorBlock}
	fa, err := core.Frontend(p, opt.FrontendOptions())
	if err != nil {
		t.Fatal(err)
	}
	g, err := htg.Lower(fa.Program, fa.Program.Main())
	if err != nil {
		t.Fatal(err)
	}
	d := dfa.Build(g.AllOps(), dfa.DefaultOptions())
	want := make([][]dfa.Edge, len(d.Ops))
	edges := 0
	for i, preds := range d.Preds {
		for _, e := range preds {
			if int(e.To) != i {
				t.Fatalf("edge %+v listed in Preds[%d]", e, i)
			}
			want[e.From] = append(want[e.From], e)
			edges++
		}
	}
	if edges == 0 || edges != d.NumEdges() {
		t.Fatalf("%d edges, NumEdges %d", edges, d.NumEdges())
	}
	for i := range d.Ops {
		if !slices.Equal(d.Succs[i], want[i]) {
			t.Fatalf("Succs[%d] = %+v, want %+v", i, d.Succs[i], want[i])
		}
	}
	// FromEdges regroups shuffled input the same way as long as each
	// op's relative order survives: feed it the Succs order.
	var flat []dfa.Edge
	for _, succs := range d.Succs {
		flat = append(flat, succs...)
	}
	d2 := dfa.FromEdges(d.Ops, d.Vars, flat)
	for i := range d.Ops {
		if !slices.Equal(d2.Succs[i], d.Succs[i]) {
			t.Fatalf("FromEdges Succs[%d] differs", i)
		}
	}
}
