// Batched execution of a compiled Program. One Batch steps up to
// MaxLanes independent stimulus lanes in lockstep; bit-sliced signals
// evaluate all lanes in single bitwise word operations, wide signals in
// struct-of-arrays lane loops, and all control flow — the active set,
// retirement, FSM edge selection, register-commit enables — is packed
// lane masks, one bit per lane.

package rtlsim

import (
	"errors"
	"fmt"
	"math/bits"

	"sparkgo/internal/interp"
	"sparkgo/internal/ir"
	"sparkgo/internal/rtl"
)

// Batch is one batched simulation: lanes independent stimulus vectors
// stepped in lockstep through the compiled program. Wide state is one
// flat slot-major array (vals[slot*lanes+lane]) so each wide
// instruction's inner lane loop walks contiguous memory; bit-sliced
// state is one uint64 word per signal, bit ln = lane ln. Lanes finish
// independently — a lane that reaches done (or fails) drops out of the
// packed active mask while the rest keep stepping, and nothing written
// after its retirement can touch its packed bits (commits are masked by
// the lanes actually advancing this cycle).
type Batch struct {
	p     *Program
	lanes int
	full  uint64 // mask with one bit set per lane in this batch

	vals  []int64  // wide struct-of-arrays state
	bw    []uint64 // packed bit-sliced state, one word per bit slot
	state []int32
	cycle []int32
	errs  []error

	activeMask uint64 // lanes still stepping
	doneMask   uint64 // lanes whose FSM finished cleanly

	scratchW []int64  // two-phase wide commit staging, maxWrites rows
	scratchB []uint64 // two-phase packed commit staging, maxWrites words
	edgeFire []uint64 // per-edge fired-lane masks for the group in flight

	needMask []uint64 // per-cycle union of active states' need bitmaps
	stList   []int32  // distinct active FSM states this cycle
	stMask   []uint64 // lane mask per distinct state (same index as stList)
	stIdx    []int32  // state -> index into stList, -1 outside a cycle
}

func fullMask(lanes int) uint64 {
	if lanes >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<uint(lanes) - 1
}

// NewBatch creates a batch of the given width (1..MaxLanes) with
// registers at their reset values in every lane.
func (p *Program) NewBatch(lanes int) *Batch {
	if lanes < 1 || lanes > MaxLanes {
		panic(fmt.Sprintf("rtlsim: batch width %d out of range [1,%d]", lanes, MaxLanes))
	}
	b := &Batch{
		p: p, lanes: lanes, full: fullMask(lanes),
		vals:     make([]int64, p.wideSlots*lanes),
		bw:       make([]uint64, p.bitSlots),
		state:    make([]int32, lanes),
		cycle:    make([]int32, lanes),
		errs:     make([]error, lanes),
		scratchW: make([]int64, p.maxWrites*lanes),
		scratchB: make([]uint64, p.maxWrites),
		edgeFire: make([]uint64, p.maxEdges),
		needMask: make([]uint64, p.needWords),
		stList:   make([]int32, lanes),
		stMask:   make([]uint64, lanes),
		stIdx:    make([]int32, p.numStates),
	}
	for i := range b.stIdx {
		b.stIdx[i] = -1
	}
	for _, in := range p.wideInits {
		row := b.vals[int(in.slot)*lanes : int(in.slot)*lanes+lanes]
		for ln := range row {
			row[ln] = in.val
		}
	}
	for _, in := range p.bitInits {
		b.bw[in.slot] = in.word
	}
	b.Reset()
	return b
}

// Lanes returns the batch width.
func (b *Batch) Lanes() int { return b.lanes }

// Reset returns every lane to reset state: registers at their reset
// values, the FSM at state 0, cycle counters and errors cleared. Inputs
// keep their values, matching Sim.Reset. Reset does not allocate.
func (b *Batch) Reset() {
	L := b.lanes
	for _, in := range b.p.wideRegs {
		row := b.vals[int(in.slot)*L : int(in.slot)*L+L]
		for ln := range row {
			row[ln] = in.val
		}
	}
	for _, in := range b.p.bitRegs {
		b.bw[in.slot] = in.word
	}
	b.activeMask = 0
	b.doneMask = 0
	for ln := 0; ln < L; ln++ {
		b.state[ln] = 0
		b.cycle[ln] = 0
		b.errs[ln] = nil
		if b.p.err != nil {
			b.errs[ln] = b.p.err
			b.doneMask |= 1 << uint(ln)
			continue
		}
	}
	if b.p.err == nil {
		if b.p.numStates == 0 {
			// An empty FSM is done before the first cycle, like Sim.Step.
			b.doneMask = b.full
		} else {
			b.activeMask = b.full
		}
	}
}

// fail records a lane-level error and drops the lane from the active set.
func (b *Batch) fail(lane int, err error) {
	if b.errs[lane] != nil {
		return
	}
	b.errs[lane] = err
	b.activeMask &^= 1 << uint(lane)
}

// setBit drives one lane's bit in a packed word from a canonical value.
func (b *Batch) setBit(slot int32, lane int, v int64) {
	bit := uint64(1) << uint(lane)
	if v&1 != 0 {
		b.bw[slot] |= bit
	} else {
		b.bw[slot] &^= bit
	}
}

func (b *Batch) getBit(slot int32, lane int) int64 {
	return int64(b.bw[slot] >> uint(lane) & 1)
}

// laneRead reads one lane of a slot in either domain.
func (b *Batch) laneRead(sr slotRef, lane int) int64 {
	if sr.bit {
		return b.getBit(sr.idx, lane)
	}
	return b.vals[int(sr.idx)*b.lanes+lane]
}

// laneWrite writes one lane of a slot in either domain, canonicalizing
// to the output type (a bit slot's canonical form is the low bit).
func (b *Batch) laneWrite(sr slotRef, lane int, v int64, cn canonDesc) {
	if sr.bit {
		b.setBit(sr.idx, lane, v)
		return
	}
	b.vals[int(sr.idx)*b.lanes+lane] = cn.canon(v)
}

// SetScalar drives a scalar architectural port in one lane. A port a
// cycles-only program has no slot for accepts the write and drops it.
func (b *Batch) SetScalar(lane int, name string, v int64) error {
	ps, ok := b.p.scalarPort[name]
	if !ok {
		return fmt.Errorf("rtlsim: no scalar port %q", name)
	}
	if ps.slot.idx >= 0 {
		b.laneWrite(ps.slot, lane, ps.cn.canon(v), ps.cn)
	}
	return nil
}

// SetArray drives an array port element-wise in one lane (elements past
// the end of vals are driven to zero, matching Sim.SetArray).
func (b *Batch) SetArray(lane int, name string, vals []int64) error {
	elems, ok := b.p.arrayPort[name]
	if !ok {
		return fmt.Errorf("rtlsim: no array port %q", name)
	}
	for i, ps := range elems {
		if ps.slot.idx < 0 {
			continue
		}
		var v int64
		if i < len(vals) {
			v = vals[i]
		}
		b.laneWrite(ps.slot, lane, ps.cn.canon(v), ps.cn)
	}
	return nil
}

// ErrCyclesOnly is returned by every port read on a CompileCycles
// program, which keeps no port values.
var ErrCyclesOnly = errors.New("rtlsim: cycles-only program keeps no port values")

// Scalar reads a scalar port's current value in one lane.
func (b *Batch) Scalar(lane int, name string) (int64, error) {
	ps, ok := b.p.scalarPort[name]
	if !ok {
		return 0, fmt.Errorf("rtlsim: no scalar port %q", name)
	}
	if b.p.cyclesOnly {
		return 0, ErrCyclesOnly
	}
	return b.laneRead(ps.slot, lane), nil
}

// Array reads an array port's current contents in one lane.
func (b *Batch) Array(lane int, name string) ([]int64, error) {
	elems, ok := b.p.arrayPort[name]
	if !ok {
		return nil, fmt.Errorf("rtlsim: no array port %q", name)
	}
	if b.p.cyclesOnly {
		return nil, ErrCyclesOnly
	}
	out := make([]int64, len(elems))
	for i, ps := range elems {
		out[i] = b.laneRead(ps.slot, lane)
	}
	return out, nil
}

// Ret reads the design's return-value register in one lane (0 when void).
func (b *Batch) Ret(lane int) (int64, error) {
	if b.p.cyclesOnly {
		return 0, ErrCyclesOnly
	}
	if b.p.retSlot.idx < 0 {
		return 0, nil
	}
	return b.laneRead(b.p.retSlot, lane), nil
}

// Done reports whether a lane's FSM has finished.
func (b *Batch) Done(lane int) bool { return b.doneMask>>uint(lane)&1 != 0 }

// Cycles returns a lane's clock cycle count since reset.
func (b *Batch) Cycles(lane int) int { return int(b.cycle[lane]) }

// Err returns a lane's simulation error (nil while healthy).
func (b *Batch) Err(lane int) error { return b.errs[lane] }

// LoadEnv drives one lane's architectural ports from an interpreter
// environment, matching globals by name (see Sim.LoadEnv). A failed load
// poisons the lane: it stops stepping and reports the error.
func (b *Batch) LoadEnv(lane int, p *ir.Program, env *interp.Env) error {
	for _, g := range p.Globals {
		var err error
		if g.Type.IsArray() {
			err = b.SetArray(lane, g.Name, env.Array(g))
		} else {
			err = b.SetScalar(lane, g.Name, env.Scalar(g))
		}
		if err != nil {
			b.fail(lane, err)
			return err
		}
	}
	return nil
}

// StoreEnv writes one lane's final architectural port values back into an
// interpreter environment (the inverse of LoadEnv), so batched results
// can be compared env-to-env. On a cycles-only program it returns
// ErrCyclesOnly and leaves env untouched.
func (b *Batch) StoreEnv(lane int, p *ir.Program, env *interp.Env) error {
	if b.p.cyclesOnly {
		return ErrCyclesOnly
	}
	for _, g := range p.Globals {
		if g.Type.IsArray() {
			vals, err := b.Array(lane, g.Name)
			if err != nil {
				return err
			}
			env.SetArray(g, vals)
		} else {
			v, err := b.Scalar(lane, g.Name)
			if err != nil {
				return err
			}
			env.SetScalar(g, v)
		}
	}
	return nil
}

// CompareEnv checks one lane's architectural ports against an interpreter
// environment, returning the first mismatch description or "" when
// identical. Array-length divergence between the module's port and the
// program's type is reported as a mismatch, never indexed past.
func (b *Batch) CompareEnv(lane int, p *ir.Program, env *interp.Env) string {
	for _, g := range p.Globals {
		if g.Type.IsArray() {
			got, err := b.Array(lane, g.Name)
			if err != nil {
				return err.Error()
			}
			if diff := compareArray(g.Name, got, env.Array(g)); diff != "" {
				return diff
			}
		} else {
			got, err := b.Scalar(lane, g.Name)
			if err != nil {
				return err.Error()
			}
			if want := env.Scalar(g); got != want {
				return fmt.Sprintf("%s: rtl=%d behavioral=%d", g.Name, got, want)
			}
		}
	}
	return ""
}

// compareArray diffs one array port against its behavioral contents,
// guarding the length first: a port-width/array-length divergence is a
// reportable mismatch, not an index panic.
func compareArray(name string, got, want []int64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%s: length mismatch: rtl has %d elements, behavioral has %d",
			name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Sprintf("%s[%d]: rtl=%d behavioral=%d", name, i, got[i], want[i])
		}
	}
	return ""
}

// CompareEnvs diffs two interpreter environments over p's globals — the
// env-to-env form of CompareEnv, for callers that StoreEnv batched
// results and compare against a behavioral reference.
func CompareEnvs(p *ir.Program, got, want *interp.Env) string {
	for _, g := range p.Globals {
		if g.Type.IsArray() {
			if diff := compareArray(g.Name, got.Array(g), want.Array(g)); diff != "" {
				return diff
			}
		} else if gv, wv := got.Scalar(g), want.Scalar(g); gv != wv {
			return fmt.Sprintf("%s: rtl=%d behavioral=%d", g.Name, gv, wv)
		}
	}
	return ""
}

// Run steps all active lanes until each is done, failed, or at maxCycles
// (which marks the lane with a watchdog error, mirroring Sim.Run). It
// returns the first lane error, if any; per-lane errors remain readable
// via Err. Run does not allocate on the per-cycle path.
func (b *Batch) Run(maxCycles int) error {
	for b.activeMask != 0 {
		// Active lanes step in lockstep, so they share one cycle count.
		first := bits.TrailingZeros64(b.activeMask)
		if int(b.cycle[first]) >= maxCycles {
			for r := b.activeMask; r != 0; r &= r - 1 {
				ln := bits.TrailingZeros64(r)
				b.errs[ln] = fmt.Errorf("rtlsim: exceeded %d cycles (state %d)",
					maxCycles, b.state[ln])
			}
			b.activeMask = 0
			break
		}
		b.step()
	}
	for _, err := range b.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// step executes one clock cycle across every active lane: combinational
// evaluation (all instructions — packed words for bit-sliced signals,
// struct-of-arrays loops for wide ones), then FSM transition decisions
// and two-phase register commits per group of lanes sharing an FSM
// state, all masked by the lanes actually advancing. A lane whose state
// has no matching transition fails with its registers, cycle counter,
// and FSM state untouched (the pre-commit picture, matching the scalar
// Sim); a retired or failed lane's packed bits are frozen — every later
// commit word is masked to the surviving lanes.
func (b *Batch) step() {
	// Group active lanes by FSM state first: the state set decides
	// which instructions this cycle can observe. Group masks are
	// snapshots taken before any transition applies, so a lane that
	// moves into a later group's state this cycle is not stepped twice.
	ns := 0
	for r := b.activeMask; r != 0; r &= r - 1 {
		ln := bits.TrailingZeros64(r)
		st := b.state[ln]
		gi := b.stIdx[st]
		if gi < 0 {
			gi = int32(ns)
			b.stIdx[st] = gi
			b.stList[ns] = st
			b.stMask[ns] = 0
			ns++
		}
		b.stMask[gi] |= 1 << uint(ln)
	}
	if b.p.need != nil {
		// Evaluate only the union of the active states' need sets, in
		// instruction (= topological) order.
		nm := b.needMask
		for w := range nm {
			nm[w] = 0
		}
		for i := 0; i < ns; i++ {
			sb := b.p.need[b.stList[i]]
			for w := range nm {
				nm[w] |= sb[w]
			}
		}
		for w := range nm {
			for r := nm[w]; r != 0; r &= r - 1 {
				b.evalInsn(&b.p.insns[w<<6|bits.TrailingZeros64(r)])
			}
		}
	} else {
		for ii := range b.p.insns {
			b.evalInsn(&b.p.insns[ii])
		}
	}
	for i := 0; i < ns; i++ {
		st := b.stList[i]
		b.stIdx[st] = -1
		b.stepState(int(st), b.stMask[i])
	}
}

// evalInsn evaluates one combinational instruction across all lanes.
func (b *Batch) evalInsn(ins *insn) {
	L := b.lanes
	vals := b.vals
	bw := b.bw
	switch ins.op {
	case opBitAnd:
		bw[ins.out.idx] = bw[ins.a.idx] & bw[ins.b.idx]
	case opBitOr:
		bw[ins.out.idx] = bw[ins.a.idx] | bw[ins.b.idx]
	case opBitXor:
		bw[ins.out.idx] = bw[ins.a.idx] ^ bw[ins.b.idx]
	case opBitXnor:
		bw[ins.out.idx] = ^(bw[ins.a.idx] ^ bw[ins.b.idx])
	case opBitAndNot:
		bw[ins.out.idx] = bw[ins.a.idx] &^ bw[ins.b.idx]
	case opBitOrNot:
		bw[ins.out.idx] = bw[ins.a.idx] | ^bw[ins.b.idx]
	case opBitNot:
		bw[ins.out.idx] = ^bw[ins.a.idx]
	case opBitCopy:
		bw[ins.out.idx] = bw[ins.a.idx]
	case opBitMux:
		sel := bw[ins.a.idx]
		bw[ins.out.idx] = sel&bw[ins.b.idx] | ^sel&bw[ins.c.idx]
	case opCmpPack:
		b.evalCmpPack(ins)
	case opMuxWideSel:
		sel := bw[ins.a.idx]
		av := vals[int(ins.b.idx)*L : int(ins.b.idx)*L+L]
		bv := vals[int(ins.c.idx)*L : int(ins.c.idx)*L+L]
		out := vals[int(ins.out.idx)*L : int(ins.out.idx)*L+L : int(ins.out.idx)*L+L]
		cn := ins.cn
		for ln := 0; ln < L; ln++ {
			// Branchless steer: av when the lane's select bit is
			// set, bv otherwise.
			m := -(sel >> uint(ln) & 1)
			out[ln] = cn.canon(bv[ln] ^ (av[ln]^bv[ln])&int64(m))
		}
	case opWidenBit:
		w := bw[ins.a.idx]
		out := vals[int(ins.out.idx)*L : int(ins.out.idx)*L+L : int(ins.out.idx)*L+L]
		cn := ins.cn
		for ln := 0; ln < L; ln++ {
			out[ln] = cn.canon(int64(w >> uint(ln) & 1))
		}
	case opNarrowBit:
		av := vals[int(ins.a.idx)*L : int(ins.a.idx)*L+L]
		var w uint64
		for ln := 0; ln < L; ln++ {
			w |= uint64(av[ln]&1) << uint(ln)
		}
		bw[ins.out.idx] = w
	case opWideBin:
		out := vals[int(ins.out.idx)*L : int(ins.out.idx)*L+L : int(ins.out.idx)*L+L]
		b.evalBin(ins, out)
	case opWideUn:
		out := vals[int(ins.out.idx)*L : int(ins.out.idx)*L+L : int(ins.out.idx)*L+L]
		av := vals[int(ins.a.idx)*L : int(ins.a.idx)*L+L]
		switch ins.un {
		case ir.OpNeg:
			for ln := 0; ln < L; ln++ {
				out[ln] = ins.cn.canon(-av[ln])
			}
		case ir.OpNot:
			for ln := 0; ln < L; ln++ {
				out[ln] = ins.cn.canon(^av[ln])
			}
		case ir.OpLNot:
			for ln := 0; ln < L; ln++ {
				out[ln] = ins.cn.canon(b2i(av[ln] == 0))
			}
		}
	case opWideMux:
		out := vals[int(ins.out.idx)*L : int(ins.out.idx)*L+L : int(ins.out.idx)*L+L]
		sel := vals[int(ins.a.idx)*L : int(ins.a.idx)*L+L]
		av := vals[int(ins.b.idx)*L : int(ins.b.idx)*L+L]
		bv := vals[int(ins.c.idx)*L : int(ins.c.idx)*L+L]
		for ln := 0; ln < L; ln++ {
			if sel[ln] != 0 {
				out[ln] = ins.cn.canon(av[ln])
			} else {
				out[ln] = ins.cn.canon(bv[ln])
			}
		}
	case opWideCopy:
		out := vals[int(ins.out.idx)*L : int(ins.out.idx)*L+L : int(ins.out.idx)*L+L]
		av := vals[int(ins.a.idx)*L : int(ins.a.idx)*L+L]
		for ln := 0; ln < L; ln++ {
			out[ln] = ins.cn.canon(av[ln])
		}
	case opWideArrayRead:
		out := vals[int(ins.out.idx)*L : int(ins.out.idx)*L+L : int(ins.out.idx)*L+L]
		idxv := vals[int(ins.a.idx)*L : int(ins.a.idx)*L+L]
		for ln := 0; ln < L; ln++ {
			idx := idxv[ln]
			if idx >= 0 && idx < int64(len(ins.elems)) {
				out[ln] = ins.cn.canon(vals[int(ins.elems[idx].idx)*L+ln])
			} else {
				out[ln] = 0
			}
		}
	default:
		b.evalLane(ins)
	}
}

// evalBin evaluates one wide binary-operator instruction across all
// lanes, bit-identical to interp.EvalBinOp (whose semantics are inlined
// here so the per-lane cost is one arithmetic op plus the canon shift).
func (b *Batch) evalBin(ins *insn, out []int64) {
	L := b.lanes
	av := b.vals[int(ins.a.idx)*L : int(ins.a.idx)*L+L]
	bv := b.vals[int(ins.b.idx)*L : int(ins.b.idx)*L+L]
	cn := ins.cn
	switch ins.bin {
	case ir.OpAdd:
		for ln := 0; ln < L; ln++ {
			out[ln] = cn.canon(av[ln] + bv[ln])
		}
	case ir.OpSub:
		for ln := 0; ln < L; ln++ {
			out[ln] = cn.canon(av[ln] - bv[ln])
		}
	case ir.OpMul:
		for ln := 0; ln < L; ln++ {
			out[ln] = cn.canon(av[ln] * bv[ln])
		}
	case ir.OpDiv:
		for ln := 0; ln < L; ln++ {
			var v int64
			switch {
			case bv[ln] == 0:
				// Division by zero yields zero (hardware convention).
			case ins.uns:
				v = int64(uint64(av[ln]) / uint64(bv[ln]))
			default:
				v = av[ln] / bv[ln]
			}
			out[ln] = cn.canon(v)
		}
	case ir.OpRem:
		for ln := 0; ln < L; ln++ {
			var v int64
			switch {
			case bv[ln] == 0:
			case ins.uns:
				v = int64(uint64(av[ln]) % uint64(bv[ln]))
			default:
				v = av[ln] % bv[ln]
			}
			out[ln] = cn.canon(v)
		}
	case ir.OpAnd:
		for ln := 0; ln < L; ln++ {
			out[ln] = cn.canon(av[ln] & bv[ln])
		}
	case ir.OpOr:
		for ln := 0; ln < L; ln++ {
			out[ln] = cn.canon(av[ln] | bv[ln])
		}
	case ir.OpXor:
		for ln := 0; ln < L; ln++ {
			out[ln] = cn.canon(av[ln] ^ bv[ln])
		}
	case ir.OpShl:
		for ln := 0; ln < L; ln++ {
			var v int64
			if s := uint64(bv[ln]); s < 64 {
				v = int64(uint64(av[ln]) << s)
			}
			out[ln] = cn.canon(v)
		}
	case ir.OpShr:
		for ln := 0; ln < L; ln++ {
			var v int64
			s := uint64(bv[ln])
			switch {
			case s >= 64:
				if !ins.uns && av[ln] < 0 {
					v = -1
				}
			case ins.uns:
				v = int64(uint64(av[ln]) >> s)
			default:
				v = av[ln] >> s
			}
			out[ln] = cn.canon(v)
		}
	case ir.OpEq:
		for ln := 0; ln < L; ln++ {
			out[ln] = cn.canon(b2i(av[ln] == bv[ln]))
		}
	case ir.OpNe:
		for ln := 0; ln < L; ln++ {
			out[ln] = cn.canon(b2i(av[ln] != bv[ln]))
		}
	case ir.OpLt:
		if ins.uns {
			for ln := 0; ln < L; ln++ {
				out[ln] = cn.canon(b2i(uint64(av[ln]) < uint64(bv[ln])))
			}
		} else {
			for ln := 0; ln < L; ln++ {
				out[ln] = cn.canon(b2i(av[ln] < bv[ln]))
			}
		}
	case ir.OpLe:
		if ins.uns {
			for ln := 0; ln < L; ln++ {
				out[ln] = cn.canon(b2i(uint64(av[ln]) <= uint64(bv[ln])))
			}
		} else {
			for ln := 0; ln < L; ln++ {
				out[ln] = cn.canon(b2i(av[ln] <= bv[ln]))
			}
		}
	case ir.OpGt:
		if ins.uns {
			for ln := 0; ln < L; ln++ {
				out[ln] = cn.canon(b2i(uint64(av[ln]) > uint64(bv[ln])))
			}
		} else {
			for ln := 0; ln < L; ln++ {
				out[ln] = cn.canon(b2i(av[ln] > bv[ln]))
			}
		}
	case ir.OpGe:
		if ins.uns {
			for ln := 0; ln < L; ln++ {
				out[ln] = cn.canon(b2i(uint64(av[ln]) >= uint64(bv[ln])))
			}
		} else {
			for ln := 0; ln < L; ln++ {
				out[ln] = cn.canon(b2i(av[ln] >= bv[ln]))
			}
		}
	case ir.OpLAnd:
		for ln := 0; ln < L; ln++ {
			out[ln] = cn.canon(b2i(av[ln] != 0 && bv[ln] != 0))
		}
	case ir.OpLOr:
		for ln := 0; ln < L; ln++ {
			out[ln] = cn.canon(b2i(av[ln] != 0 || bv[ln] != 0))
		}
	}
}

// evalCmpPack evaluates one wide comparison (or logical combine) across
// all lanes and packs the 1-bit predicates into the output word.
func (b *Batch) evalCmpPack(ins *insn) {
	L := b.lanes
	av := b.vals[int(ins.a.idx)*L : int(ins.a.idx)*L+L]
	bv := b.vals[int(ins.b.idx)*L : int(ins.b.idx)*L+L]
	var w uint64
	switch ins.bin {
	case ir.OpEq:
		for ln := 0; ln < L; ln++ {
			if av[ln] == bv[ln] {
				w |= 1 << uint(ln)
			}
		}
	case ir.OpNe:
		for ln := 0; ln < L; ln++ {
			if av[ln] != bv[ln] {
				w |= 1 << uint(ln)
			}
		}
	case ir.OpLt:
		if ins.uns {
			for ln := 0; ln < L; ln++ {
				if uint64(av[ln]) < uint64(bv[ln]) {
					w |= 1 << uint(ln)
				}
			}
		} else {
			for ln := 0; ln < L; ln++ {
				if av[ln] < bv[ln] {
					w |= 1 << uint(ln)
				}
			}
		}
	case ir.OpLe:
		if ins.uns {
			for ln := 0; ln < L; ln++ {
				if uint64(av[ln]) <= uint64(bv[ln]) {
					w |= 1 << uint(ln)
				}
			}
		} else {
			for ln := 0; ln < L; ln++ {
				if av[ln] <= bv[ln] {
					w |= 1 << uint(ln)
				}
			}
		}
	case ir.OpGt:
		if ins.uns {
			for ln := 0; ln < L; ln++ {
				if uint64(av[ln]) > uint64(bv[ln]) {
					w |= 1 << uint(ln)
				}
			}
		} else {
			for ln := 0; ln < L; ln++ {
				if av[ln] > bv[ln] {
					w |= 1 << uint(ln)
				}
			}
		}
	case ir.OpGe:
		if ins.uns {
			for ln := 0; ln < L; ln++ {
				if uint64(av[ln]) >= uint64(bv[ln]) {
					w |= 1 << uint(ln)
				}
			}
		} else {
			for ln := 0; ln < L; ln++ {
				if av[ln] >= bv[ln] {
					w |= 1 << uint(ln)
				}
			}
		}
	case ir.OpLAnd:
		for ln := 0; ln < L; ln++ {
			if av[ln] != 0 && bv[ln] != 0 {
				w |= 1 << uint(ln)
			}
		}
	case ir.OpLOr:
		for ln := 0; ln < L; ln++ {
			if av[ln] != 0 || bv[ln] != 0 {
				w |= 1 << uint(ln)
			}
		}
	}
	b.bw[ins.out.idx] = w
}

// evalLane is the generic per-lane fallback covering any mix of packed
// and wide operands, bit-identical to the specialized forms.
func (b *Batch) evalLane(ins *insn) {
	L := b.lanes
	for ln := 0; ln < L; ln++ {
		var v int64
		switch ins.kind {
		case rtl.GateBin:
			v = scalarBin(ins.bin, ins.uns, b.laneRead(ins.a, ln), b.laneRead(ins.b, ln))
		case rtl.GateUn:
			a := b.laneRead(ins.a, ln)
			switch ins.un {
			case ir.OpNeg:
				v = -a
			case ir.OpNot:
				v = ^a
			case ir.OpLNot:
				v = b2i(a == 0)
			}
		case rtl.GateMux:
			if b.laneRead(ins.a, ln) != 0 {
				v = b.laneRead(ins.b, ln)
			} else {
				v = b.laneRead(ins.c, ln)
			}
		case rtl.GateCopy:
			v = b.laneRead(ins.a, ln)
		case rtl.GateArrayRead:
			idx := b.laneRead(ins.a, ln)
			if idx >= 0 && idx < int64(len(ins.elems)) {
				v = b.laneRead(ins.elems[idx], ln)
			}
		}
		b.laneWrite(ins.out, ln, v, ins.cn)
	}
}

// scalarBin evaluates one binary op on one lane's values, bit-identical
// to interp.EvalBinOp before canonicalization (division by zero yields
// zero; shifts saturate past the word width).
func scalarBin(op ir.BinOp, uns bool, a, bv int64) int64 {
	switch op {
	case ir.OpAdd:
		return a + bv
	case ir.OpSub:
		return a - bv
	case ir.OpMul:
		return a * bv
	case ir.OpDiv:
		switch {
		case bv == 0:
			return 0
		case uns:
			return int64(uint64(a) / uint64(bv))
		}
		return a / bv
	case ir.OpRem:
		switch {
		case bv == 0:
			return 0
		case uns:
			return int64(uint64(a) % uint64(bv))
		}
		return a % bv
	case ir.OpAnd:
		return a & bv
	case ir.OpOr:
		return a | bv
	case ir.OpXor:
		return a ^ bv
	case ir.OpShl:
		if s := uint64(bv); s < 64 {
			return int64(uint64(a) << s)
		}
		return 0
	case ir.OpShr:
		s := uint64(bv)
		switch {
		case s >= 64:
			if !uns && a < 0 {
				return -1
			}
			return 0
		case uns:
			return int64(uint64(a) >> s)
		}
		return a >> s
	case ir.OpEq:
		return b2i(a == bv)
	case ir.OpNe:
		return b2i(a != bv)
	case ir.OpLt:
		if uns {
			return b2i(uint64(a) < uint64(bv))
		}
		return b2i(a < bv)
	case ir.OpLe:
		if uns {
			return b2i(uint64(a) <= uint64(bv))
		}
		return b2i(a <= bv)
	case ir.OpGt:
		if uns {
			return b2i(uint64(a) > uint64(bv))
		}
		return b2i(a > bv)
	case ir.OpGe:
		if uns {
			return b2i(uint64(a) >= uint64(bv))
		}
		return b2i(a >= bv)
	case ir.OpLAnd:
		return b2i(a != 0 && bv != 0)
	case ir.OpLOr:
		return b2i(a != 0 || bv != 0)
	}
	return 0
}

// condWord packs "this lane's condition net is nonzero" for the lanes
// in need into one word (bit-sliced conditions are already packed; wide
// ones test per lane).
func (b *Batch) condWord(sr slotRef, need uint64) uint64 {
	if sr.bit {
		return b.bw[sr.idx]
	}
	L := b.lanes
	row := b.vals[int(sr.idx)*L : int(sr.idx)*L+L]
	var w uint64
	for r := need; r != 0; r &= r - 1 {
		ln := bits.TrailingZeros64(r)
		if row[ln] != 0 {
			w |= 1 << uint(ln)
		}
	}
	return w
}

// stepState resolves one FSM state's group of lanes (mask m): edge
// selection, no-transition errors, two-phase register commit, cycle
// accounting, and retirement — all on packed masks. Commits are masked
// to the lanes that actually advance, so a lane that errored (or
// retired in an earlier cycle) keeps its packed register bits frozen.
func (b *Batch) stepState(st int, m uint64) {
	p := b.p
	edges := p.trans[st]
	rem := m
	for ei := range edges {
		e := &edges[ei]
		var fm uint64
		if e.cond.idx < 0 {
			fm = rem
		} else {
			cw := b.condWord(e.cond, rem)
			if e.condVal != 0 {
				fm = rem & cw
			} else {
				fm = rem &^ cw
			}
		}
		b.edgeFire[ei] = fm
		rem &^= fm
	}
	if rem != 0 {
		// No matching transition: report before committing anything,
		// leaving those lanes' pre-transition state intact.
		for r := rem; r != 0; r &= r - 1 {
			ln := bits.TrailingZeros64(r)
			if b.errs[ln] == nil {
				b.errs[ln] = fmt.Errorf("rtlsim: state %d has no matching transition", st)
			}
		}
		b.activeMask &^= rem
	}
	ok := m &^ rem
	if ok == 0 {
		return
	}
	// Two-phase commit: read every source into scratch first, then
	// write, so swap-style write sets see consistent pre-cycle values.
	ws := p.writes[st]
	L := b.lanes
	for i := range ws {
		w := &ws[i]
		if w.val.bit {
			b.scratchB[i] = b.bw[w.val.idx]
		} else {
			copy(b.scratchW[i*L:i*L+L], b.vals[int(w.val.idx)*L:int(w.val.idx)*L+L])
		}
	}
	for i := range ws {
		w := &ws[i]
		switch {
		case w.reg.bit && w.val.bit:
			b.bw[w.reg.idx] = b.bw[w.reg.idx]&^ok | b.scratchB[i]&ok
		case w.reg.bit:
			var word uint64
			sr := b.scratchW[i*L : i*L+L]
			for r := ok; r != 0; r &= r - 1 {
				ln := bits.TrailingZeros64(r)
				word |= uint64(sr[ln]&1) << uint(ln)
			}
			b.bw[w.reg.idx] = b.bw[w.reg.idx]&^ok | word
		case w.val.bit:
			word := b.scratchB[i]
			row := b.vals[int(w.reg.idx)*L : int(w.reg.idx)*L+L]
			for r := ok; r != 0; r &= r - 1 {
				ln := bits.TrailingZeros64(r)
				row[ln] = w.cn.canon(int64(word >> uint(ln) & 1))
			}
		default:
			row := b.vals[int(w.reg.idx)*L : int(w.reg.idx)*L+L]
			sr := b.scratchW[i*L : i*L+L]
			for r := ok; r != 0; r &= r - 1 {
				ln := bits.TrailingZeros64(r)
				row[ln] = w.cn.canon(sr[ln])
			}
		}
	}
	for r := ok; r != 0; r &= r - 1 {
		b.cycle[bits.TrailingZeros64(r)]++
	}
	for ei := range edges {
		fm := b.edgeFire[ei] & ok
		if fm == 0 {
			continue
		}
		e := &edges[ei]
		if e.to == -1 {
			b.doneMask |= fm
			b.activeMask &^= fm
		} else if int(e.to) != st {
			for r := fm; r != 0; r &= r - 1 {
				b.state[bits.TrailingZeros64(r)] = e.to
			}
		}
	}
}

func b2i(v bool) int64 {
	if v {
		return 1
	}
	return 0
}

// LaneResult is one lane's outcome from RunBatch.
type LaneResult struct {
	Cycles int
	Err    error
}

// RunBatch simulates one lane per environment: each env's globals drive
// one lane's ports, every lane steps to completion (bounded by
// maxCycles), and each lane's final port values are stored back into its
// env for comparison against a behavioral reference. Environments beyond
// MaxLanes are chunked into successive batches, so callers simply pass
// their whole trial set. On a cycles-only program the write-back fails,
// so every lane that ran cleanly reports ErrCyclesOnly.
func (p *Program) RunBatch(prog *ir.Program, envs []*interp.Env, maxCycles int) []LaneResult {
	return p.run(prog, envs, maxCycles, true)
}

// RunCycles is RunBatch without the write-back: each lane reports its
// cycle count and error, and the envs are only read. It is how a
// CompileCycles program runs.
func (p *Program) RunCycles(prog *ir.Program, envs []*interp.Env, maxCycles int) []LaneResult {
	return p.run(prog, envs, maxCycles, false)
}

func (p *Program) run(prog *ir.Program, envs []*interp.Env, maxCycles int, store bool) []LaneResult {
	out := make([]LaneResult, len(envs))
	for start := 0; start < len(envs); start += MaxLanes {
		end := min(start+MaxLanes, len(envs))
		b := p.NewBatch(end - start)
		for i := start; i < end; i++ {
			// A failed load marks the lane; Run skips it.
			_ = b.LoadEnv(i-start, prog, envs[i])
		}
		b.Run(maxCycles)
		for i := start; i < end; i++ {
			ln := i - start
			out[i] = LaneResult{Cycles: b.Cycles(ln), Err: b.Err(ln)}
			if store && out[i].Err == nil {
				out[i].Err = b.StoreEnv(ln, prog, envs[i])
			}
		}
	}
	return out
}
