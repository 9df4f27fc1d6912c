package transform

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"sparkgo/internal/ir"
)

// factOp is one step of a random program over a copy-fact table: a
// write (set, delete, kill), a scoped body, or a two-way join.
type factOp struct {
	kind      int // 0 set, 1 delete, 2 kill by source, 3 kill globals, 4 scope, 5 join
	dst, src  *ir.Var
	body, alt []factOp
}

func randomFactOps(rng *rand.Rand, vars []*ir.Var, depth int) []factOp {
	ops := make([]factOp, 4+rng.Intn(8))
	for i := range ops {
		op := factOp{kind: rng.Intn(6), dst: vars[rng.Intn(len(vars))], src: vars[rng.Intn(len(vars))]}
		if op.kind >= 4 {
			if depth == 0 {
				op.kind = 0
			} else {
				op.body = randomFactOps(rng, vars, depth-1)
				op.alt = randomFactOps(rng, vars, depth-1)
			}
		}
		if op.kind == 0 && op.dst == op.src {
			op.kind = 1
		}
		ops[i] = op
	}
	return ops
}

// refCopies is the clone-based model the table must agree with.
type refCopies map[*ir.Var]*ir.Var

func (r refCopies) run(ops []factOp) {
	for _, op := range ops {
		switch op.kind {
		case 0:
			r[op.dst] = op.src
		case 1:
			delete(r, op.dst)
		case 2:
			for k, v := range r {
				if v == op.src {
					delete(r, k)
				}
			}
		case 3:
			for k, v := range r {
				if k.IsGlobal || v.IsGlobal {
					delete(r, k)
				}
			}
		case 4:
			maps.Clone(r).run(op.body)
		case 5:
			then, els := maps.Clone(r), maps.Clone(r)
			then.run(op.body)
			els.run(op.alt)
			clear(r)
			for k, v := range then {
				if w, ok := els[k]; ok && w == v {
					r[k] = v
				}
			}
		}
	}
}

func runFactOps(t *testing.T, tab *factTable[*ir.Var, *ir.Var], ops []factOp) {
	for _, op := range ops {
		switch op.kind {
		case 0:
			tab.set(op.dst, op.src)
		case 1:
			tab.del(op.dst)
		case 2:
			tab.kill(op.src, func(_, src *ir.Var) bool { return src == op.src })
		case 3:
			tab.kill(anyGlobalMarker, func(dst, src *ir.Var) bool { return dst.IsGlobal || src.IsGlobal })
		case 4:
			facts, users := maps.Clone(tab.m), cloneUsers(tab.users)
			m := tab.mark()
			runFactOps(t, tab, op.body)
			tab.rollback(m)
			if !maps.Equal(tab.m, facts) || !usersEqual(tab.users, users) {
				t.Fatalf("rollback did not restore the table and its index")
			}
		case 5:
			m := tab.mark()
			runFactOps(t, tab, op.body)
			m = tab.restart(m)
			runFactOps(t, tab, op.alt)
			tab.merge(m)
		}
		checkIndexed(t, tab)
	}
}

func cloneUsers(u map[*ir.Var][]*ir.Var) map[*ir.Var][]*ir.Var {
	out := make(map[*ir.Var][]*ir.Var, len(u))
	for k, v := range u {
		out[k] = slices.Clone(v)
	}
	return out
}

func usersEqual(a, b map[*ir.Var][]*ir.Var) bool {
	return maps.EqualFunc(a, b, func(x, y []*ir.Var) bool { return slices.Equal(x, y) })
}

// checkIndexed asserts the index invariant kill relies on: every live
// fact is listed under every variable its index hook names.
func checkIndexed(t *testing.T, tab *factTable[*ir.Var, *ir.Var]) {
	t.Helper()
	for k, v := range tab.m {
		for _, u := range tab.index(k, v, nil) {
			if !slices.Contains(tab.users[u], k) {
				t.Fatalf("fact %s = %s missing from the index under %s", k, v, u)
			}
		}
	}
}

// TestFactTableMatchesCloneModel runs random nested programs of writes,
// kills, scopes and joins on a factTable and on a model that clones the
// map at every scope and intersects at every join. The two must agree
// exactly; rollback must restore the table and its index; and the
// index invariant must hold after every step.
func TestFactTableMatchesCloneModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vars := make([]*ir.Var, 10)
	for i := range vars {
		vars[i] = &ir.Var{Name: fmt.Sprintf("v%d", i), IsGlobal: i%4 == 0}
	}
	for trial := 0; trial < 300; trial++ {
		ops := randomFactOps(rng, vars, 3)
		ref := refCopies{}
		ref.run(ops)
		tab := newFactTable(indexCopy)
		runFactOps(t, tab, ops)
		if !maps.Equal(tab.m, map[*ir.Var]*ir.Var(ref)) {
			t.Fatalf("trial %d: table %v, clone model %v", trial, tab.m, ref)
		}
		if tab.open != 0 || len(tab.log) != 0 || len(tab.arm) != 0 {
			t.Fatalf("trial %d: scopes left open (open=%d log=%d arm=%d)", trial, tab.open, len(tab.log), len(tab.arm))
		}
	}
}
