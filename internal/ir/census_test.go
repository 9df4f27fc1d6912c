package ir_test

import (
	"testing"

	"sparkgo/internal/ild"
	"sparkgo/internal/ir"
	"sparkgo/internal/parser"
)

// walkCounts is the census taken the long way, one generic walk per
// count, as the stage reports did before ir.Count.
func walkCounts(f *ir.Func) ir.Counts {
	var c ir.Counts
	ir.WalkStmts(f.Body, func(s ir.Stmt) bool {
		c.Stmts++
		switch s.(type) {
		case *ir.IfStmt:
			c.Ifs++
		case *ir.ForStmt, *ir.WhileStmt:
			c.Loops++
		}
		ir.WalkStmtExprs(s, func(e ir.Expr) {
			ir.WalkExpr(e, func(x ir.Expr) bool {
				switch x.(type) {
				case *ir.BinExpr, *ir.UnExpr, *ir.SelExpr, *ir.IndexExpr:
					c.Ops++
				case *ir.CallExpr:
					c.Calls++
				}
				return true
			})
		})
		return true
	})
	return c
}

// TestCountMatchesWalkers pins the one-walk census to the generic
// walkers on every statement form, including for-loop init/post (whose
// expressions count twice) and calls in both statement positions.
func TestCountMatchesWalkers(t *testing.T) {
	progs := []*ir.Program{ild.Program(4), ild.NaturalProgram(4), parser.MustParse("census", `
uint8 in[4];
uint8 out;
bool c;
void note(uint8 x) {
  out = x;
}
uint8 twice(uint8 x) {
  return x + x;
}
void main() {
  uint8 i;
  uint8 s;
  s = c ? in[0] : -in[1];
  for (i = in[0] & 3; i < 4; i = i + 1) {
    if (in[i] > s) {
      s = twice(s + in[i]);
    } else {
      note(~s);
    }
  }
  #bound 4
  while (s != 0 && !c) {
    s = s >> 1;
  }
  {
    out = (uint8)(s + 1);
  }
}
`)}
	for _, p := range progs {
		for _, f := range p.Funcs {
			if got, want := ir.Count(f), walkCounts(f); got != want {
				t.Errorf("%s.%s: Count = %+v, walkers = %+v", p.Name, f.Name, got, want)
			}
		}
	}
}
