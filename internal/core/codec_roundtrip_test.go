package core_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sparkgo/internal/core"
	"sparkgo/internal/delay"
	"sparkgo/internal/ild"
	"sparkgo/internal/ir"
	"sparkgo/internal/rtl"
	"sparkgo/internal/testutil"
)

// updateGolden regenerates the fingerprint golden files:
//
//	go test ./internal/core -run 'TestArtifactCodecRoundTrip|TestScaleFingerprints' -update
//
// Regenerate ONLY after an intentional codec or stage change — and bump
// the corresponding stage version constant, or every previously
// persisted artifact silently aliases under the new encoding.
var updateGolden = flag.Bool("update", false, "rewrite the fingerprint golden files")

// codecDesign is one synthesis configuration whose artifacts the codec
// tests round-trip: the same designs the differential harness trusts.
type codecDesign struct {
	name string
	prog *ir.Program
	opt  core.Options
	ildN int // >0: run the differential harness on the revived module
}

func codecDesigns() []codecDesign {
	var out []codecDesign
	for _, n := range []int{4, 8, 16, 32} {
		out = append(out, codecDesign{
			name: fmt.Sprintf("ild%d-micro", n),
			prog: ild.Program(n),
			opt:  core.Options{Preset: core.MicroprocessorBlock},
			ildN: n,
		})
	}
	out = append(out, codecDesign{
		name: "ild8-classical",
		prog: ild.Program(8),
		opt:  core.Options{Preset: core.ClassicalASIC},
		ildN: 8,
	})
	out = append(out, codecDesign{
		name: "ild8-natural",
		prog: ild.NaturalProgram(8),
		opt:  core.Options{Preset: core.MicroprocessorBlock, NormalizeWhile: true},
		ildN: 8,
	})
	return out
}

// stages runs the staged flow on a design, materializing every
// artifact.
func stages(t *testing.T, d codecDesign) (*core.FrontendArtifact, *core.MidendArtifact, []byte, *core.BackendArtifact, []byte) {
	t.Helper()
	fa, err := core.Frontend(d.prog, d.opt.FrontendOptions())
	if err != nil {
		t.Fatalf("%s: frontend: %v", d.name, err)
	}
	fa.Materialize()
	ma, err := core.Midend(fa, d.opt.MidendOptions())
	if err != nil {
		t.Fatalf("%s: midend: %v", d.name, err)
	}
	maEnc := ma.Materialize()
	if maEnc == nil {
		t.Fatalf("%s: midend artifact did not encode", d.name)
	}
	ba, err := core.Backend(ma, d.opt.BackendOptions())
	if err != nil {
		t.Fatalf("%s: backend: %v", d.name, err)
	}
	baEnc := ba.Materialize()
	if baEnc == nil {
		t.Fatalf("%s: backend artifact did not encode", d.name)
	}
	return fa, ma, maEnc, ba, baEnc
}

// TestArtifactCodecRoundTrip is the codec contract over every
// differential-harness design: encode → decode → encode must be
// byte-identical for midend and backend artifacts (the property
// fingerprint verification of revived artifacts rests on), the revived
// netlist must emit byte-identical HDL, behave identically under the
// interp≡rtlsim differential harness, and report the same technology
// numbers. Fingerprints are additionally pinned by a golden file so an
// accidental codec change fails loudly instead of silently retiring (or
// worse, aliasing) every persisted artifact — regenerate with -update
// and bump the stage versions when the change is intentional.
func TestArtifactCodecRoundTrip(t *testing.T) {
	var goldenLines []string
	for _, d := range codecDesigns() {
		d := d
		t.Run(d.name, func(t *testing.T) {
			fa, ma, maEnc, ba, baEnc := stages(t, d)

			// Midend: byte-stable round trip.
			ma2, err := core.DecodeMidendArtifact(maEnc)
			if err != nil {
				t.Fatalf("decode midend: %v", err)
			}
			maEnc2 := ma2.Materialize()
			if !bytes.Equal(maEnc, maEnc2) {
				t.Fatalf("midend encoding is not a round-trip fixpoint (%d vs %d bytes)",
					len(maEnc), len(maEnc2))
			}
			if ma2.Fingerprint != ma.Fingerprint {
				t.Fatalf("midend fingerprint drifted: %s vs %s", ma2.Fingerprint, ma.Fingerprint)
			}
			if ma2.Cycles != ma.Cycles {
				t.Fatalf("revived schedule: %d cycles, want %d", ma2.Cycles, ma.Cycles)
			}

			// The revived schedule must drive the backend to the same
			// design as the original.
			ba2, err := core.Backend(ma2, d.opt.BackendOptions())
			if err != nil {
				t.Fatalf("backend over revived midend: %v", err)
			}
			if rtl.EmitVHDL(ba2.Module) != rtl.EmitVHDL(ba.Module) {
				t.Error("backend over revived midend emits different VHDL")
			}

			// Backend: byte-stable round trip.
			ba3, err := core.DecodeBackendArtifact(baEnc)
			if err != nil {
				t.Fatalf("decode backend: %v", err)
			}
			baEnc2 := ba3.Materialize()
			if !bytes.Equal(baEnc, baEnc2) {
				t.Fatalf("backend encoding is not a round-trip fixpoint (%d vs %d bytes)",
					len(baEnc), len(baEnc2))
			}
			if ba3.Stats != ba.Stats {
				t.Fatalf("revived report drifted: %+v vs %+v", ba3.Stats, ba.Stats)
			}
			if got, want := rtl.EmitVHDL(ba3.Module), rtl.EmitVHDL(ba.Module); got != want {
				t.Error("revived module emits different VHDL")
			}
			if got, want := rtl.EmitVerilog(ba3.Module), rtl.EmitVerilog(ba.Module); got != want {
				t.Error("revived module emits different Verilog")
			}

			// The revived netlist must BEHAVE like the original: the
			// differential harness decodes ILD buffers through interp and
			// the revived rtlsim module.
			if d.ildN > 0 {
				if err := testutil.DifferentialILD(d.prog, ba3.Module, d.ildN, 10, int64(900+d.ildN)); err != nil {
					t.Errorf("revived module failed the differential harness: %v", err)
				}
			}

			goldenLines = append(goldenLines, fmt.Sprintf("%s frontend=%s midend=%s backend=%s",
				d.name, fa.Fingerprint, ma.Fingerprint, ba.Fingerprint))
		})
	}
	if t.Failed() {
		return
	}

	checkGolden(t, filepath.Join("testdata", "artifact_fingerprints.golden"), strings.Join(goldenLines, "\n")+"\n")
}

// checkGolden compares a fingerprint listing with its golden file, or
// rewrites the file under -update.
func checkGolden(t *testing.T, golden, got string) {
	t.Helper()
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
		t.Errorf("artifact fingerprints drifted from %s —\n"+
			"an (intentional?) codec or stage change: regenerate with -update AND bump the\n"+
			"affected stage version constants in internal/core/stages.go\ngot:\n%s\nwant:\n%s",
			golden, got, string(want))
	}
}

// TestBackendKeyUsesContentFingerprint pins the backend sharing rule:
// the key derives from the midend artifact's content fingerprint, so it
// exists exactly when the artifact is materialized, and differs across
// report models.
func TestBackendKeyUsesContentFingerprint(t *testing.T) {
	d := codecDesigns()[0]
	fa, err := core.Frontend(d.prog, d.opt.FrontendOptions())
	if err != nil {
		t.Fatal(err)
	}
	fa.Materialize()
	ma, err := core.Midend(fa, d.opt.MidendOptions())
	if err != nil {
		t.Fatal(err)
	}
	if key := core.BackendKey(ma, d.opt.BackendOptions()); key != "" {
		t.Errorf("unmaterialized midend artifact produced backend key %q, want none", key)
	}
	ma.Materialize()
	base := core.BackendKey(ma, d.opt.BackendOptions())
	if base == "" {
		t.Fatal("materialized midend artifact produced no backend key")
	}
	scaled := d.opt
	scaled.ReportModel = &delay.Model{NandDelay: 2}
	if k := core.BackendKey(ma, scaled.BackendOptions()); k == base {
		t.Error("report-model change did not change the backend key")
	}
}

// TestScaleFingerprints pins the frontend, midend and backend
// fingerprints of the ILD at n = 64 and 128 on both presets. The
// artifact golden above stops at n = 32, below the sizes where the
// dependence graph and list scheduler see hundreds of thousands of
// edges; a rewrite of those data structures must reproduce these
// fingerprints byte for byte. Regenerate (with the same care as the
// artifact golden) with
//
//	go test ./internal/core -run TestScaleFingerprints -update
func TestScaleFingerprints(t *testing.T) {
	var lines []string
	for _, n := range []int{64, 128} {
		for _, p := range []struct {
			name   string
			preset core.Preset
		}{{"micro", core.MicroprocessorBlock}, {"classical", core.ClassicalASIC}} {
			d := codecDesign{name: fmt.Sprintf("ild%d-%s", n, p.name), prog: ild.Program(n),
				opt: core.Options{Preset: p.preset}}
			fa, ma, _, ba, _ := stages(t, d)
			lines = append(lines, fmt.Sprintf("%s frontend=%s midend=%s backend=%s",
				d.name, fa.Fingerprint, ma.Fingerprint, ba.Fingerprint))
		}
	}
	checkGolden(t, filepath.Join("testdata", "scale_fingerprints.golden"), strings.Join(lines, "\n")+"\n")
}
