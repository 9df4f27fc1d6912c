package transform_test

import (
	"strings"
	"testing"

	"sparkgo/internal/ir"
	"sparkgo/internal/parser"
	"sparkgo/internal/transform"
)

// runMain applies one pass to src and returns the printed main function.
func runMain(t *testing.T, ps transform.Pass, src string) string {
	t.Helper()
	p := parser.MustParse("scope", src)
	if _, err := ps.Run(p); err != nil {
		t.Fatal(err)
	}
	return ir.PrintFunc(p.Main())
}

// expectLines checks that each of want appears in out as a whole
// statement line and that none of absent does.
func expectLines(t *testing.T, out string, want, absent []string) {
	t.Helper()
	lines := map[string]bool{}
	for _, l := range strings.Split(out, "\n") {
		lines[strings.TrimSpace(l)] = true
	}
	for _, w := range want {
		if !lines[w] {
			t.Errorf("missing %q in:\n%s", w, out)
		}
	}
	for _, a := range absent {
		if lines[a] {
			t.Errorf("unexpected %q in:\n%s", a, out)
		}
	}
}

// A fact killed inside the then-branch is available again in the
// else-branch, and a fact made in the then-branch never reaches the
// else-branch or the code after the join.
func TestCSEBranchScopes(t *testing.T) {
	out := runMain(t, transform.CSE(), `
uint8 a;
uint8 b;
uint8 d;
bool c;
uint8 o1;
uint8 o2;
uint8 o3;
uint8 o4;
void main() {
  uint8 t;
  uint8 u;
  uint8 v;
  uint8 w;
  uint8 x;
  uint8 y;
  t = a + b;
  if (c) {
    a = 1;
    u = a + b;
    w = b * d;
  } else {
    v = a + b;
    x = b * d;
  }
  y = b * d;
  o1 = u + v;
  o2 = w;
  o3 = x;
  o4 = y;
}
`)
	expectLines(t, out,
		[]string{"u = a + b;", "v = t;", "x = b * d;", "y = b * d;"},
		[]string{"v = a + b;", "x = w;", "y = w;", "y = x;"})
}

// A write to a fact's holder kills the fact, as does a write to any
// variable the expression reads.
func TestCSEWriteKillsHolderAndInputs(t *testing.T) {
	out := runMain(t, transform.CSE(), `
uint8 a;
uint8 b;
uint8 o1;
uint8 o2;
void main() {
  uint8 t;
  uint8 u;
  uint8 v;
  uint8 w;
  uint8 p;
  t = a + b;
  t = 7;
  u = a + b;
  p = a - b;
  a = 3;
  v = a - b;
  w = a + b;
  o1 = t + u + v;
  o2 = w + p;
}
`)
	expectLines(t, out,
		[]string{"u = a + b;", "v = a - b;", "w = a + b;"},
		[]string{"u = t;", "v = p;", "w = u;"})
}

// A call kills every fact that reads a global or is held by one; facts
// over locals only survive it.
func TestCSECallKillsGlobalFacts(t *testing.T) {
	out := runMain(t, transform.CSE(), `
uint8 g;
uint8 a;
uint8 b;
uint8 o1;
uint8 o2;
void touch() {
  g = g + 1;
}
void main() {
  uint8 p;
  uint8 q;
  uint8 t;
  uint8 x;
  uint8 u;
  uint8 y;
  uint8 z;
  p = a;
  q = b;
  t = p + g;
  o1 = p + q;
  x = p * q;
  touch();
  u = p + g;
  y = p + q;
  z = p * q;
  o2 = t + u + x + y + z;
}
`)
	expectLines(t, out,
		[]string{"u = p + g;", "y = p + q;", "z = x;"},
		[]string{"u = t;", "y = o1;"})
}

// ConstProp's join keeps exactly the constants equal on both paths:
// written alike in both branches, or in one branch to the value it
// already had.
func TestConstPropJoinKeepsFactsEqualOnBothPaths(t *testing.T) {
	out := runMain(t, transform.ConstProp(), `
uint8 a;
bool c;
uint8 o1;
uint8 o2;
uint8 o3;
uint8 o4;
uint8 o5;
void main() {
  uint8 x;
  uint8 y;
  uint8 z;
  uint8 w;
  uint8 v;
  x = 1;
  y = 2;
  z = 3;
  v = 9;
  if (c) {
    x = 5;
    y = 2;
    w = 4;
  } else {
    x = 6;
    w = 4;
    z = a;
    v = 9;
  }
  o1 = x;
  o2 = y;
  o3 = z;
  o4 = w;
  o5 = v;
}
`)
	expectLines(t, out,
		[]string{"o1 = x;", "o2 = 2;", "o3 = z;", "o4 = 4;", "o5 = 9;"}, nil)
}

// CopyProp's join keeps exactly the copies equal on both paths.
func TestCopyPropJoinKeepsFactsEqualOnBothPaths(t *testing.T) {
	out := runMain(t, transform.CopyProp(), `
uint8 a;
uint8 b;
uint8 d;
bool c;
uint8 o1;
uint8 o2;
uint8 o3;
uint8 o4;
uint8 o5;
void main() {
  uint8 x;
  uint8 y;
  uint8 z;
  uint8 w;
  uint8 v;
  x = a;
  y = b;
  z = d;
  v = a;
  if (c) {
    x = b;
    w = a;
    y = b;
  } else {
    x = d;
    w = a;
    z = b;
    v = a;
  }
  o1 = x;
  o2 = y;
  o3 = z;
  o4 = w;
  o5 = v;
}
`)
	expectLines(t, out,
		[]string{"o1 = x;", "o2 = b;", "o3 = z;", "o4 = a;", "o5 = a;"}, nil)
}
