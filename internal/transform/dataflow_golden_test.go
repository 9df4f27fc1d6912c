package transform_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"sparkgo/internal/experiments"
	"sparkgo/internal/ild"
	"sparkgo/internal/ir"
	"sparkgo/internal/parser"
	"sparkgo/internal/pass"
	"sparkgo/internal/transform"
)

// updateGolden regenerates testdata/dataflow.golden:
//
//	go test ./internal/transform -run TestDataflowGolden -update
//
// Regenerate only after an intentional change to a dataflow pass: the
// frontend fingerprints depend on this exact output.
var updateGolden = flag.Bool("update", false, "rewrite the dataflow golden file")

// scopesSource exercises what the ILD never does: a fact killed inside a
// then-branch but available in the else-branch, nested if/else, for and
// while loops, array stores, and calls that write a global (so each
// pass's call clobbering and loop scopes are pinned).
const scopesSource = `
uint8 in[8];
uint8 out[8];
uint8 g;
uint8 acc;
bool c1;
bool c2;
void bump(uint8 x) {
  g = g + x;
}
uint8 twice(uint8 x) {
  return x + x;
}
void main() {
  uint8 i;
  uint8 j;
  uint8 a;
  uint8 b;
  uint8 t;
  uint8 u;
  uint8 k;
  uint8 z;
  a = in[0] + g;
  b = in[0] + g;
  t = a;
  z = 5;
  if (c1) {
    u = in[0] + g;
    a = 3;
    z = 5;
    if (c2) {
      b = t * 2;
      out[1] = b;
    } else {
      b = in[0] + g;
      k = t * 2;
    }
  } else {
    u = in[0] + g;
    bump(a);
    b = in[0] + g;
    k = t;
  }
  for (i = 0; i < 4; i++) {
    out[i] = in[i] ^ a;
    if (out[i] > b) {
      acc = acc + t;
    } else {
      acc = acc + z;
    }
  }
  k = in[0] + g;
  j = 0;
  #bound 8
  while (j < 8 && in[j] != 0) {
    out[j] = in[j] + g;
    t = twice(t);
    j = j + 1;
  }
  u = in[0] + g;
  acc = acc + u + k + b + t + z;
  out[7] = a;
}
`

// dataflowPrograms is the golden corpus: the figure listings, the n=8
// ILD in its natural (while-loop) and classical (for-loop) forms, and
// scopesSource.
func dataflowPrograms() []struct {
	name string
	prog func() *ir.Program
} {
	type entry = struct {
		name string
		prog func() *ir.Program
	}
	figs := experiments.FigureSources()
	names := make([]string, 0, len(figs))
	for name := range figs {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []entry
	for _, name := range names {
		src := figs[name]
		out = append(out, entry{name, func() *ir.Program { return parser.MustParse(name, src) }})
	}
	return append(out,
		entry{"ild8-natural", func() *ir.Program { return ild.NaturalProgram(8) }},
		entry{"ild8-classical", func() *ir.Program { return ild.Program(8) }},
		entry{"scopes", func() *ir.Program { return parser.MustParse("scopes", scopesSource) }},
	)
}

// TestDataflowGolden pins the printed IR after each dataflow pass run
// alone and after both preset pipelines, on every program of the
// corpus. A rewrite of the passes' data structures must reproduce it
// byte for byte.
func TestDataflowGolden(t *testing.T) {
	alone := []func() transform.Pass{transform.ConstProp, transform.CopyProp, transform.CSE, transform.DCE}
	pipelines := []struct {
		name  string
		specs []string
	}{
		{"micro", pass.MicroprocessorPlan(pass.Toggles{})},
		{"classical", pass.ClassicalPlan(pass.Toggles{})},
	}
	var b strings.Builder
	for _, prog := range dataflowPrograms() {
		for _, mk := range alone {
			p := prog.prog()
			ps := mk()
			changed, err := ps.Run(p)
			if err != nil {
				t.Fatalf("%s/%s: %v", prog.name, ps.Name(), err)
			}
			fmt.Fprintf(&b, "=== %s / %s changed=%v\n%s", prog.name, ps.Name(), changed, ir.Print(p))
		}
		for _, pl := range pipelines {
			p := prog.prog()
			passes, err := pass.BuildAll(pl.specs)
			if err != nil {
				t.Fatal(err)
			}
			run := &pass.Pipeline{Passes: passes}
			if err := run.Run(p); err != nil {
				t.Fatalf("%s/%s: %v", prog.name, pl.name, err)
			}
			fmt.Fprintf(&b, "=== %s / %s rounds=%d\n%s", prog.name, pl.name, run.Rounds(), ir.Print(p))
		}
	}
	got := b.String()

	golden := filepath.Join("testdata", "dataflow.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("dataflow pass output drifted from %s; diff the two listings:\ngot:\n%s", golden, got)
	}
}
