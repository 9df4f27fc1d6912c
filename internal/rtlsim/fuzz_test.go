package rtlsim_test

import (
	"testing"

	"sparkgo/internal/ir"
	"sparkgo/internal/rtl"
	"sparkgo/internal/rtlsim"
)

// mixedBoundaryModule hand-builds a small design whose netlist crosses
// the bit-sliced/wide boundary in every direction the compiler handles:
// wide comparisons packing predicates (opCmpPack), packed AND/OR/NOT
// logic, a packed select steering wide words (opMuxWideSel), a packed
// bit widening into a wide adder (opWidenBit), a wide value narrowing
// to a bit (opNarrowBit), a packed mux (opBitMux), and a two-state FSM
// looping on a packed condition — the shapes the fuzzer drives with
// arbitrary stimulus.
func mixedBoundaryModule() *rtl.Module {
	m := rtl.NewModule("mixed")
	a := m.Input("a", ir.U8)
	m.ScalarPort["a"] = a
	b := m.Input("b", ir.U8)
	m.ScalarPort["b"] = b
	f := m.Input("f", ir.Bool)
	m.ScalarPort["f"] = f
	acc := m.Reg("acc", ir.U8, 0)
	m.ScalarPort["acc"] = acc
	flag := m.Reg("flag", ir.Bool, 0)
	m.ScalarPort["flag"] = flag
	cnt := m.Reg("cnt", ir.U8, 0)
	m.ScalarPort["cnt"] = cnt

	lt := m.Bin(ir.OpLt, ir.Bool, true, a, b)    // wide cmp -> packed
	eq := m.Bin(ir.OpEq, ir.Bool, false, acc, b) // wide cmp -> packed
	and := m.And(lt, f)                          // packed AND
	orr := m.Bin(ir.OpLOr, ir.Bool, false, and, eq)
	ninv := m.Not(orr) // packed NOT

	sum := m.Bin(ir.OpAdd, ir.U8, true, acc, a)
	dif := m.Bin(ir.OpSub, ir.U8, true, acc, b)
	sel := m.Mux(ir.U8, orr, sum, dif) // packed select over wide words

	wideFlag := m.Copy(ir.U8, ninv)       // bit -> wide
	lowBit := m.Copy(ir.Bool, sel)        // wide -> bit
	nf := m.Mux(ir.Bool, f, lowBit, ninv) // packed mux

	cntNext := m.Bin(ir.OpAdd, ir.U8, true, cnt, wideFlag)
	three := m.ConstSignal(3, ir.U8)
	again := m.Bin(ir.OpLt, ir.Bool, true, cntNext, three)

	m.NumStates = 2
	m.RegWrites = []rtl.RegWrite{
		{Reg: acc, State: 0, Value: sel},
		{Reg: flag, State: 0, Value: nf},
		{Reg: cnt, State: 0, Value: cntNext},
		{Reg: acc, State: 1, Value: sum},
	}
	m.Trans = []rtl.Transition{
		{From: 0, Cond: again, CondValue: true, To: 1},
		{From: 0, To: -1},
		{From: 1, To: 0},
	}
	return m
}

// FuzzBitSlicedDifferential drives the mixed-domain design with
// arbitrary stimulus across a full batch and requires the bit-sliced
// program, the SoA reference program, and the scalar Sim to agree on
// every lane's registers, done flag, error state, and cycle count. Any
// divergence in a pack/unpack boundary op, a packed retirement mask, or
// the packed commit path surfaces here as a three-way mismatch. The
// cycles-only program (CompileCycles) must agree on done flag, error
// state and cycle count; it keeps no register values to compare.
func FuzzBitSlicedDifferential(f *testing.F) {
	f.Add([]byte{0x00})
	f.Add([]byte{0x01, 0x02, 0x03})
	f.Add([]byte{0xff, 0xfe, 0x01, 0x10, 0x20, 0x00})
	// A full batch of staggered lanes: enough bytes for many lanes with
	// both flag polarities and equal/unequal operand pairs.
	seed := make([]byte, 3*rtlsim.MaxLanes)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed)

	m := mixedBoundaryModule()
	maxCycles := rtlsim.WatchdogCycles(m.NumStates)
	bit := rtlsim.Compile(m)
	soa := rtlsim.CompileSoA(m)
	cyc := rtlsim.CompileCycles(m)
	ports := []string{"acc", "flag", "cnt"}

	f.Fuzz(func(t *testing.T, data []byte) {
		lanes := len(data) / 3
		if lanes < 1 {
			return
		}
		if lanes > rtlsim.MaxLanes {
			lanes = rtlsim.MaxLanes
		}
		load := func(set func(name string, v int64) error, ln int) {
			if err := set("a", int64(data[3*ln])); err != nil {
				t.Fatal(err)
			}
			if err := set("b", int64(data[3*ln+1])); err != nil {
				t.Fatal(err)
			}
			if err := set("f", int64(data[3*ln+2]&1)); err != nil {
				t.Fatal(err)
			}
		}

		bb := bit.NewBatch(lanes)
		sb := soa.NewBatch(lanes)
		cb := cyc.NewBatch(lanes)
		for ln := 0; ln < lanes; ln++ {
			ln := ln
			load(func(n string, v int64) error { return bb.SetScalar(ln, n, v) }, ln)
			load(func(n string, v int64) error { return sb.SetScalar(ln, n, v) }, ln)
			load(func(n string, v int64) error { return cb.SetScalar(ln, n, v) }, ln)
		}
		bb.Run(maxCycles)
		sb.Run(maxCycles)
		cb.Run(maxCycles)

		for ln := 0; ln < lanes; ln++ {
			sim := rtlsim.New(m)
			load(sim.SetScalar, ln)
			wantCycles, wantErr := sim.Run(maxCycles)

			if (cb.Err(ln) != nil) != (wantErr != nil) {
				t.Fatalf("lane %d: cycles-only err=%v, scalar err=%v", ln, cb.Err(ln), wantErr)
			}
			if cb.Cycles(ln) != wantCycles || cb.Done(ln) != sim.Done() {
				t.Fatalf("lane %d: cycles-only ran %d cycles (done=%v), scalar %d (done=%v)",
					ln, cb.Cycles(ln), cb.Done(ln), wantCycles, sim.Done())
			}

			for _, batch := range []struct {
				name string
				b    *rtlsim.Batch
			}{{"bitsliced", bb}, {"soa", sb}} {
				if (batch.b.Err(ln) != nil) != (wantErr != nil) {
					t.Fatalf("lane %d: %s err=%v, scalar err=%v", ln, batch.name, batch.b.Err(ln), wantErr)
				}
				if batch.b.Cycles(ln) != wantCycles {
					t.Fatalf("lane %d: %s ran %d cycles, scalar %d",
						ln, batch.name, batch.b.Cycles(ln), wantCycles)
				}
				if batch.b.Done(ln) != sim.Done() {
					t.Fatalf("lane %d: %s done=%v, scalar done=%v",
						ln, batch.name, batch.b.Done(ln), sim.Done())
				}
				for _, port := range ports {
					got, err := batch.b.Scalar(ln, port)
					if err != nil {
						t.Fatal(err)
					}
					want, err := sim.Scalar(port)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("lane %d: %s %s=%d, scalar %s=%d",
							ln, batch.name, port, got, port, want)
					}
				}
			}
		}
	})
}
