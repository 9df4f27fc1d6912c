package rtlsim_test

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"

	"sparkgo/internal/core"
	"sparkgo/internal/explore"
	"sparkgo/internal/ild"
	"sparkgo/internal/interp"
	"sparkgo/internal/ir"
	"sparkgo/internal/rtl"
	"sparkgo/internal/rtlsim"
)

// checkCyclesEquivalent runs trials random envs through the whole
// program (Compile + RunBatch) and through the latency program
// (CompileCycles + RunCycles) on identical envs, and requires every
// lane's cycle count and error to match. It returns the full program's
// results.
func checkCyclesEquivalent(t *testing.T, m *rtl.Module, input *ir.Program, seed int64, trials int) []rtlsim.LaneResult {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	envs := make([]*interp.Env, trials)
	stored := make([]*interp.Env, trials)
	for i := range envs {
		envs[i] = interp.RandomEnv(input, rng)
		stored[i] = envs[i].Clone()
	}
	maxCycles := rtlsim.WatchdogCycles(m.NumStates)
	want := rtlsim.Compile(m).RunBatch(input, stored, maxCycles)
	got := rtlsim.CompileCycles(m).RunCycles(input, envs, maxCycles)
	for i := range want {
		if got[i].Cycles != want[i].Cycles || fmt.Sprint(got[i].Err) != fmt.Sprint(want[i].Err) {
			t.Fatalf("trial %d: cycles-only %d cycles, err %v; full program %d cycles, err %v",
				i, got[i].Cycles, got[i].Err, want[i].Cycles, want[i].Err)
		}
	}
	return want
}

// TestCyclesOnlyMatchesFullProgramOnGrid pins the latency program on
// every design the exploration grid synthesizes from the ILD: all four
// sizes, every coordination variant with and without an unroll bound,
// and the classical-ASIC baseline (whose loop counters put registers
// in the control cone).
func TestCyclesOnlyMatchesFullProgramOnGrid(t *testing.T) {
	inputs := map[int]*ir.Program{}
	for _, c := range explore.Grid([]int{8, 16, 32, 64}, explore.Variants(), []int{0, 8}, true) {
		if inputs[c.N] == nil {
			inputs[c.N] = ild.Program(c.N)
		}
		res, err := core.Synthesize(inputs[c.N], c.Options())
		if err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		h := fnv.New64a()
		h.Write([]byte(c.String()))
		for i, lr := range checkCyclesEquivalent(t, res.Module, res.Input, int64(h.Sum64()), rtlsim.MaxLanes) {
			if lr.Err != nil {
				t.Fatalf("%s: trial %d: %v", c, i, lr.Err)
			}
		}
	}
}

// TestCyclesOnlyMatchesFullProgramOnErrors covers the lane errors the
// latency program must reproduce: the watchdog on a hung FSM, the
// no-matching-transition error, and the mixed-domain module the
// bit-sliced fuzzer drives, whose loop condition reads a register.
func TestCyclesOnlyMatchesFullProgramOnErrors(t *testing.T) {
	for _, tc := range []struct {
		name    string
		m       *rtl.Module
		wantErr string
	}{
		{"hung", hungModule(), "exceeded"},
		{"stuck", stuckModule(), "no matching transition"},
		{"mixed", mixedBoundaryModule(), ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for i, lr := range checkCyclesEquivalent(t, tc.m, portProgram(tc.m), 3, rtlsim.MaxLanes) {
				if tc.wantErr == "" && lr.Err != nil {
					t.Fatalf("trial %d: %v", i, lr.Err)
				}
				if tc.wantErr != "" && (lr.Err == nil || !strings.Contains(lr.Err.Error(), tc.wantErr)) {
					t.Fatalf("trial %d: error %v, want %q", i, lr.Err, tc.wantErr)
				}
			}
		})
	}
}

// portProgram declares one global per scalar port of m, so random envs
// drive every port.
func portProgram(m *rtl.Module) *ir.Program {
	p := ir.NewProgram(m.Name)
	for name, sig := range m.ScalarPort {
		p.Globals = append(p.Globals, &ir.Var{Name: name, Type: sig.Type})
	}
	return p
}

// TestControlConeSize pins what the cone keeps: a single-state block
// with an unconditional transition lowers no gate at all, and a
// sequential design lowers only part of its netlist.
func TestControlConeSize(t *testing.T) {
	micro, err := core.Synthesize(ild.Program(16), core.Options{Preset: core.MicroprocessorBlock})
	if err != nil {
		t.Fatal(err)
	}
	if micro.Module.NumStates != 1 {
		t.Fatalf("microprocessor-block design has %d states, want 1", micro.Module.NumStates)
	}
	if got := rtlsim.CompileCycles(micro.Module).Mix().Total(); got != 0 {
		t.Fatalf("single-state design's cone has %d instructions, want 0", got)
	}
	seq := dataDependentDesign(t)
	full := rtlsim.Compile(seq.Module).Mix().Total()
	cone := rtlsim.CompileCycles(seq.Module).Mix().Total()
	if cone == 0 || cone >= full {
		t.Fatalf("sequential design's cone has %d of %d instructions, want some but not all", cone, full)
	}
}

// badOpModule builds a one-state design with an unknown binary op on a
// gate that feeds only an output register: the gate is outside the
// control cone, and it must still fail every lane.
func badOpModule() *rtl.Module {
	m := rtl.NewModule("badop")
	a := m.Input("a", ir.U8)
	m.ScalarPort["a"] = a
	x := m.Reg("x", ir.U8, 0)
	m.ScalarPort["x"] = x
	bad := m.Bin(ir.BinOp(200), ir.U8, true, a, a)
	m.NumStates = 1
	m.RegWrites = []rtl.RegWrite{{Reg: x, State: 0, Value: bad}}
	m.Trans = []rtl.Transition{{From: 0, To: -1}}
	return m
}

// TestCyclesOnlyValidatesWholeNetlist: validation is not cut down to
// the cone. An unknown op outside it fails every lane exactly as on the
// full program, and a missing port still fails the load.
func TestCyclesOnlyValidatesWholeNetlist(t *testing.T) {
	m := badOpModule()
	for i, lr := range checkCyclesEquivalent(t, m, portProgram(m), 5, 4) {
		if lr.Err == nil || !strings.Contains(lr.Err.Error(), "unknown binary op") {
			t.Fatalf("trial %d: error %v, want the unknown binary op", i, lr.Err)
		}
	}

	b := rtlsim.CompileCycles(hungModule()).NewBatch(1)
	if err := b.SetScalar(0, "nope", 1); err == nil {
		t.Fatal("cycles-only batch accepted a port the module does not have")
	}
	if err := b.SetArray(0, "nope", nil); err == nil {
		t.Fatal("cycles-only batch accepted an array port the module does not have")
	}
}

// TestCyclesOnlyReadsFail: a cycles-only batch keeps no port values, so
// every read is an error rather than a stale value, and RunBatch's
// write-back fails every lane instead of leaving the envs as loaded.
func TestCyclesOnlyReadsFail(t *testing.T) {
	res, err := core.Synthesize(ild.Program(8), core.Options{Preset: core.ClassicalASIC})
	if err != nil {
		t.Fatal(err)
	}
	m, input := res.Module, res.Input
	if len(m.ArrayPort) == 0 {
		t.Fatal("design has no array port")
	}
	prog := rtlsim.CompileCycles(m)
	env := interp.RandomEnv(input, rand.New(rand.NewSource(1)))
	b := prog.NewBatch(1)
	if err := b.LoadEnv(0, input, env); err != nil {
		t.Fatal(err)
	}
	if err := b.Run(rtlsim.WatchdogCycles(m.NumStates)); err != nil {
		t.Fatal(err)
	}
	for name := range m.ArrayPort {
		if _, err := b.Array(0, name); !errors.Is(err, rtlsim.ErrCyclesOnly) {
			t.Fatalf("Array(%q): err %v, want ErrCyclesOnly", name, err)
		}
	}
	// The ILD has only array ports and a void main: scalar ports and a
	// return value come from the mixed-domain module.
	withRet := mixedBoundaryModule()
	withRet.RetSignal = withRet.ScalarPort["acc"]
	rb := rtlsim.CompileCycles(withRet).NewBatch(1)
	rb.Run(rtlsim.WatchdogCycles(withRet.NumStates))
	for name := range withRet.ScalarPort {
		if _, err := rb.Scalar(0, name); !errors.Is(err, rtlsim.ErrCyclesOnly) {
			t.Fatalf("Scalar(%q): err %v, want ErrCyclesOnly", name, err)
		}
	}
	if _, err := rb.Ret(0); !errors.Is(err, rtlsim.ErrCyclesOnly) {
		t.Fatalf("Ret: err %v, want ErrCyclesOnly", err)
	}
	if _, err := rtlsim.Compile(withRet).NewBatch(1).Ret(0); err != nil {
		t.Fatalf("Ret on the full program: %v", err)
	}
	stored := env.Clone()
	if err := b.StoreEnv(0, input, stored); !errors.Is(err, rtlsim.ErrCyclesOnly) {
		t.Fatalf("StoreEnv: err %v, want ErrCyclesOnly", err)
	}
	if diff := rtlsim.CompareEnvs(input, stored, env); diff != "" {
		t.Fatalf("failed StoreEnv changed the env: %s", diff)
	}
	if diff := b.CompareEnv(0, input, env); diff == "" {
		t.Fatal("CompareEnv on a cycles-only batch reported equality")
	}
	for i, lr := range prog.RunBatch(input, []*interp.Env{env.Clone(), env.Clone()}, rtlsim.WatchdogCycles(m.NumStates)) {
		if !errors.Is(lr.Err, rtlsim.ErrCyclesOnly) {
			t.Fatalf("RunBatch lane %d: err %v, want ErrCyclesOnly", i, lr.Err)
		}
	}
}
