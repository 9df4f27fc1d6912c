package explore

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"sparkgo/internal/core"
	"sparkgo/internal/ild"
	"sparkgo/internal/interp"
	"sparkgo/internal/ir"
	"sparkgo/internal/parser"
	"sparkgo/internal/rtl"
	"sparkgo/internal/rtlsim"
)

// TestSimulateWatchdogDerivedFromSchedule is the watchdog regression for
// the engine's latency measurement: a non-terminating design must error
// after the schedule-derived bound (rtlsim.WatchdogCycles) — not after
// the 1<<22-cycle budget the trial loop used to hardcode, which burned
// ~4M cycles × SimTrials per hung point.
func TestSimulateWatchdogDerivedFromSchedule(t *testing.T) {
	prog := parser.MustParse("hung", "uint8 a;\nvoid main() { a = a; }")
	m := rtl.NewModule("hung")
	a := m.Input("a", ir.U8)
	m.ScalarPort["a"] = a
	m.NumStates = 1
	m.Trans = []rtl.Transition{{From: 0, To: 0}} // self-loop forever

	e := &Engine{SimTrials: 8}
	src := &sourceEntry{prog: prog, fingerprint: "test-hung"}
	start := time.Now()
	_, _, err := e.simulate(context.Background(), src, m, Config{N: 1})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("expected watchdog error for hung FSM")
	}
	bound := rtlsim.WatchdogCycles(m.NumStates)
	if !strings.Contains(err.Error(), "exceeded") || !strings.Contains(err.Error(), fmt.Sprint(bound)) {
		t.Fatalf("error %q does not report the derived bound %d", err, bound)
	}
	// The derived bound is ~4000x smaller than the old hardcoded budget;
	// even a slow machine finishes 8 trials of 1040 cycles within seconds.
	if elapsed > 10*time.Second {
		t.Fatalf("watchdog took %v; the bound is not being derived from the schedule", elapsed)
	}
}

// TestSimulateMatchesFullProgram pins the engine's latency measurement
// to the whole-netlist simulation it replaced: on the same seed, the
// same RandomEnv draws in the same order, the worst cycle count of
// Compile + RunBatch over all trials.
func TestSimulateMatchesFullProgram(t *testing.T) {
	e := &Engine{SimTrials: 2*rtlsim.MaxLanes + 5}
	prog := ild.Program(8)
	src := &sourceEntry{prog: prog, fingerprint: "test-ild8"}
	for _, c := range Grid([]int{8}, Variants(), []int{0, 8}, true) {
		res, err := core.Synthesize(prog, c.Options())
		if err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		got, _, err := e.simulate(context.Background(), src, res.Module, c)
		if err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		rng := rand.New(rand.NewSource(simSeed(src.fingerprint, c)))
		envs := make([]*interp.Env, e.SimTrials)
		for i := range envs {
			envs[i] = interp.RandomEnv(prog, rng)
		}
		want := 0
		for _, lr := range rtlsim.Compile(res.Module).RunBatch(prog, envs, rtlsim.WatchdogCycles(res.Module.NumStates)) {
			if lr.Err != nil {
				t.Fatalf("%s: full program: %v", c, lr.Err)
			}
			want = max(want, lr.Cycles)
		}
		if got != want {
			t.Fatalf("%s: engine measured %d cycles, full program %d", c, got, want)
		}
	}
}

// TestSimulateReportsInvalidGateOutsideCone: the latency program lowers
// only the control cone, but an unknown op on a gate that feeds only an
// output register still fails the measurement, and the error text is
// what the engine files as the point's Err.
func TestSimulateReportsInvalidGateOutsideCone(t *testing.T) {
	prog := parser.MustParse("badop", "uint8 a;\nuint8 x;\nvoid main() { x = a; }")
	m := rtl.NewModule("badop")
	a := m.Input("a", ir.U8)
	m.ScalarPort["a"] = a
	x := m.Reg("x", ir.U8, 0)
	m.ScalarPort["x"] = x
	bad := m.Bin(ir.BinOp(200), ir.U8, true, a, a)
	m.NumStates = 1
	m.RegWrites = []rtl.RegWrite{{Reg: x, State: 0, Value: bad}}
	m.Trans = []rtl.Transition{{From: 0, To: -1}}

	e := &Engine{SimTrials: 8}
	src := &sourceEntry{prog: prog, fingerprint: "test-badop"}
	_, mix, err := e.simulate(context.Background(), src, m, Config{N: 1})
	if err == nil || !strings.Contains(err.Error(), "unknown binary op") {
		t.Fatalf("error %v, want the unknown binary op", err)
	}
	if mix.Total() != 0 {
		t.Fatalf("latency program lowered %d instructions, want 0 (the bad gate is outside the cone)", mix.Total())
	}
}
