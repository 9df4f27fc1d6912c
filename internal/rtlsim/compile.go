// Compiled, batched execution. Compile lowers a netlist once into a
// dense instruction slice — signals keyed by Signal.ID into flat state
// arrays, no maps, no pointer chasing — and a Batch steps up to MaxLanes
// independent stimulus lanes through each instruction, so gate dispatch,
// FSM transition lookup, and register-commit bookkeeping are paid once
// per instruction per cycle instead of once per trial.
//
// The compiler classifies every signal by width into one of two
// execution domains:
//
//   - 1-bit signals (booleans and unsigned 1-bit integers: guards, FSM
//     condition nets, comparison outputs, mux selects — the majority of
//     nets in control-dominated blocks) are BIT-SLICED: all lanes of
//     one signal pack into a single uint64 word, one bit per lane, so
//     AND/OR/NOT/XOR/select over them evaluate the whole batch in one
//     bitwise instruction instead of a per-lane loop.
//   - multi-bit datapath signals keep the struct-of-arrays layout
//     (vals[slot*lanes+lane]), one int64 per lane.
//
// Explicit boundary instructions bridge the domains: a wide comparison
// packs its predicate (opCmpPack), a packed select steers wide words
// (opMuxWideSel), and width-converting copies pack or unpack
// (opNarrowBit / opWidenBit). CompileSoA disables the classification —
// every signal stays struct-of-arrays — and serves as the reference
// batch oracle the bit-sliced path is differentially pinned against,
// alongside the scalar Sim and package interp. CompileCycles keeps the
// bit-sliced model but lowers only the FSM control cone, for callers
// that measure cycle counts and never read a port.
package rtlsim

import (
	"fmt"

	"sparkgo/internal/ir"
	"sparkgo/internal/rtl"
)

// MaxLanes is the widest stimulus batch one Batch steps in lockstep.
const MaxLanes = 64

// WatchdogCycles derives the simulation cycle bound from the FSM size:
// generous headroom for loop trip counts (the sequential baselines need
// roughly numStates × trips cycles), but small enough that a
// non-terminating design errors after thousands of cycles, not millions.
// Every trial loop in the system — core.Verify, the exploration engine's
// latency measurement, the differential harness — derives its bound here,
// so a hung FSM costs the same bounded work everywhere.
func WatchdogCycles(numStates int) int {
	if numStates < 1 {
		numStates = 1
	}
	return numStates*1024 + 16
}

// canonDesc is the precomputed canonicalization of one signal type:
// Type.Canon reduced to a shift pair (mask to width, then sign- or
// zero-extend), so the hot loop never touches *ir.Type.
type canonDesc struct {
	shift  uint8 // 64 - width; 0 for full-width values (canon = identity)
	signed bool
	isBool bool
}

func canonOf(t *ir.Type) canonDesc {
	if t.IsBool() {
		return canonDesc{isBool: true}
	}
	w := t.Width()
	if w >= 64 {
		return canonDesc{}
	}
	return canonDesc{shift: uint8(64 - w), signed: t.Signed}
}

func (c canonDesc) canon(v int64) int64 {
	if c.isBool {
		return v & 1
	}
	if c.shift == 0 {
		return v
	}
	if c.signed {
		return v << c.shift >> c.shift
	}
	return int64(uint64(v) << c.shift >> c.shift)
}

// isBitType reports whether a signal of this type can be bit-sliced:
// its canonical values are exactly {0, 1}. Booleans and unsigned 1-bit
// integers qualify; a signed 1-bit integer does not (its canonical
// values are {0, -1}) and stays in the wide domain.
func isBitType(t *ir.Type) bool {
	if t == nil {
		return false
	}
	if t.IsBool() {
		return true
	}
	return t.Kind == ir.KindInt && !t.Signed && t.Bits == 1
}

// slotRef locates one signal's storage: a word index into the packed
// bit array when bit is set, else a row index into the wide
// struct-of-arrays state. idx < 0 means "absent" (unused operand,
// unconditional FSM edge, void return).
type slotRef struct {
	idx int32
	bit bool
}

var noSlot = slotRef{idx: -1}

// opcode selects one compiled instruction form. The packed group
// evaluates all lanes in a single bitwise word operation; the wide
// group is the struct-of-arrays lane loop; the boundary group converts
// between the domains; the lane group is the fully generic per-lane
// fallback for rare mixed-domain shapes.
type opcode uint8

const (
	// Wide struct-of-arrays ops (all operands and the output are wide).
	opWideBin opcode = iota
	opWideUn
	opWideMux
	opWideCopy
	opWideArrayRead

	// Packed bit-sliced ops (single uint64 word per operand).
	opBitAnd    // out = a & b
	opBitOr     // out = a | b
	opBitXor    // out = a ^ b (also Ne over bits)
	opBitXnor   // out = ^(a ^ b) (Eq over bits)
	opBitAndNot // out = a &^ b (Gt over bits; Lt with swapped operands)
	opBitOrNot  // out = a | ^b (Ge over bits; Le with swapped operands)
	opBitNot    // out = ^a
	opBitCopy   // out = a
	opBitMux    // out = sel&a | ^sel&b

	// Boundary ops bridging the domains.
	opCmpPack    // wide comparison/logical test -> packed predicate
	opMuxWideSel // packed select steering wide words -> wide
	opWidenBit   // packed bit -> wide word (canonicalized to out type)
	opNarrowBit  // wide word -> packed bit

	// Generic per-lane fallback (any operand/output domain mix).
	opLaneBin
	opLaneUn
	opLaneMux
	opLaneCopy
	opLaneArrayRead
)

// class buckets opcodes for the instruction-mix counters surfaced in
// /metrics.
func (op opcode) class() string {
	switch {
	case op >= opBitAnd && op <= opBitMux:
		return MixPacked
	case op >= opCmpPack && op <= opNarrowBit:
		return MixBoundary
	case op >= opLaneBin:
		return MixLane
	}
	return MixWide
}

// Instruction-mix class names (label values of the
// sparkgo_sim_insns_total metric).
const (
	MixPacked   = "packed"
	MixBoundary = "boundary"
	MixWide     = "wide"
	MixLane     = "lane"
)

// InsnMix counts a compiled program's instructions per execution class.
type InsnMix struct {
	// Packed instructions evaluate all lanes in one bitwise word op.
	Packed int `json:"packed"`
	// Boundary instructions pack or unpack between the domains
	// (wide comparison -> predicate, packed select over wide words,
	// widening/narrowing copies).
	Boundary int `json:"boundary"`
	// Wide instructions are struct-of-arrays lane loops over
	// multi-bit values.
	Wide int `json:"wide"`
	// Lane instructions are the generic per-lane fallback for rare
	// mixed-domain shapes.
	Lane int `json:"lane"`
}

// Total returns the instruction count across all classes.
func (m InsnMix) Total() int { return m.Packed + m.Boundary + m.Wide + m.Lane }

// insn is one compiled gate: operands resolved to slots in their
// domains, output canonicalization resolved to a shift pair.
// Instructions retain the module's topological gate order.
type insn struct {
	op    opcode
	kind  rtl.GateKind // generic-fallback dispatch
	bin   ir.BinOp
	un    ir.UnOp
	uns   bool // unsigned semantics for cmp/div/rem/shr
	cn    canonDesc
	out   slotRef
	a     slotRef
	b     slotRef
	c     slotRef
	elems []slotRef // GateArrayRead element slots
}

// slotInit seeds one wide slot (constants, register resets).
type slotInit struct {
	slot int32
	val  int64
}

// bitInit seeds one packed word: all lanes of a 1-bit constant or
// register reset at once (word is 0 or all-ones).
type bitInit struct {
	slot int32
	word uint64
}

// regCommit is one compiled register write: commit val into reg at the
// end of every cycle spent in its state. cn is the register type's
// canonicalization, applied on cross-domain commits.
type regCommit struct {
	reg slotRef
	val slotRef
	cn  canonDesc
}

// transEdge is one compiled FSM edge. cond.idx < 0 means unconditional.
type transEdge struct {
	cond    slotRef
	condVal int64 // 1 when the edge fires on true, 0 on false
	to      int32 // -1: done
}

// portSlot locates one architectural port in the state arrays.
type portSlot struct {
	slot slotRef
	cn   canonDesc
}

// Program is a netlist compiled for batched execution. Compile once,
// then run any number of Batches (a Program is immutable and safe for
// concurrent Batches).
type Program struct {
	M *rtl.Module

	wideSlots int
	bitSlots  int
	numStates int
	insns     []insn
	wideInits []slotInit // wide constant drivers + register resets
	bitInits  []bitInit  // packed constant drivers + register resets
	wideRegs  []slotInit // wide register resets only (for Reset)
	bitRegs   []bitInit  // packed register resets only (for Reset)
	writes    [][]regCommit
	trans     [][]transEdge
	maxWrites int
	maxEdges  int
	mix       InsnMix

	// need[st] is a bitmap over insns: the transitive producer closure
	// of state st's register-write sources and transition conditions.
	// Each cycle only the union over active states evaluates (nil on
	// the SoA reference path, which keeps the full combinational
	// sweep of the original batch model).
	need      [][]uint64
	needWords int

	// scalarPort and arrayPort name every architectural port, so a
	// load fails on the same names under every compile; a port outside
	// a cycles-only program's cone has no slot, and writes to it are
	// dropped.
	scalarPort map[string]portSlot
	arrayPort  map[string][]portSlot
	retSlot    slotRef // idx < 0 when the design is void

	// cyclesOnly marks a CompileCycles program: it computes cycle
	// counts and lane errors only, so every port read is an error.
	cyclesOnly bool

	err error // compile-time validation failure, surfaced per lane
}

// Compile lowers a module into a bit-sliced Program: 1-bit signals pack
// all lanes into single words, multi-bit signals stay struct-of-arrays.
// An op the simulator does not implement is reported at run time (every
// lane errors), mirroring the scalar Sim's behaviour; the gate network
// itself is validated here.
func Compile(m *rtl.Module) *Program { return compileProgram(m, true, false) }

// CompileSoA lowers a module with bit-slicing disabled: every signal
// keeps the struct-of-arrays layout. This is the reference batch
// execution model the bit-sliced path is differentially tested against,
// and the baseline the BENCH_sim bit-parallel ratchet measures.
func CompileSoA(m *rtl.Module) *Program { return compileProgram(m, false, false) }

// CompileCycles lowers only a module's FSM control cone (see
// controlCone) into a bit-sliced Program. Its lanes report exactly the
// cycle counts and errors a Compile program's lanes report on the same
// stimulus, for a fraction of the work: only cone gates become
// instructions and only cone registers commit. Every gate is still
// validated, so a bad op anywhere in the netlist fails every lane, and
// every port name is kept, so LoadEnv fails exactly as under Compile.
// The program holds no port values: Scalar, Array, Ret, StoreEnv and
// RunBatch's write-back return an error. Run it with RunCycles.
func CompileCycles(m *rtl.Module) *Program { return compileProgram(m, true, true) }

// Mix returns the compiled instruction counts per execution class.
func (p *Program) Mix() InsnMix { return p.mix }

// BitSlots returns how many signals were packed into bit-sliced words.
func (p *Program) BitSlots() int { return p.bitSlots }

// WideSlots returns how many signals use the struct-of-arrays layout.
func (p *Program) WideSlots() int { return p.wideSlots }

// compileProgram lowers m. A cycles-only compile gives state slots
// only to the control cone's signals, lowers only its gates and
// commits only writes to its registers.
func compileProgram(m *rtl.Module, bitSliced, cyclesOnly bool) *Program {
	p := &Program{
		M:          m,
		numStates:  m.NumStates,
		scalarPort: map[string]portSlot{},
		arrayPort:  map[string][]portSlot{},
		retSlot:    noSlot,
		cyclesOnly: cyclesOnly,
	}
	maxID := -1
	for _, s := range m.Signals {
		if s.ID > maxID {
			maxID = s.ID
		}
	}
	var keep *cone
	if cyclesOnly {
		keep = controlCone(m, maxID)
	}
	slot := make([]slotRef, maxID+1)
	for _, s := range m.Signals {
		switch {
		case keep != nil && !keep.sig[s.ID]:
			slot[s.ID] = noSlot
		case bitSliced && isBitType(s.Type):
			slot[s.ID] = slotRef{idx: int32(p.bitSlots), bit: true}
			p.bitSlots++
		default:
			slot[s.ID] = slotRef{idx: int32(p.wideSlots)}
			p.wideSlots++
		}
	}
	at := func(s *rtl.Signal) slotRef {
		if s == nil {
			return noSlot
		}
		return slot[s.ID]
	}
	for _, s := range m.Signals {
		sr := slot[s.ID]
		if sr.idx < 0 {
			continue
		}
		switch s.Kind {
		case rtl.SigConst:
			if sr.bit {
				p.bitInits = append(p.bitInits, bitInit{sr.idx, bitWord(s.Const)})
			} else {
				p.wideInits = append(p.wideInits, slotInit{sr.idx, s.Const})
			}
		case rtl.SigReg:
			if sr.bit {
				in := bitInit{sr.idx, bitWord(s.Init)}
				p.bitInits = append(p.bitInits, in)
				p.bitRegs = append(p.bitRegs, in)
			} else {
				in := slotInit{sr.idx, s.Init}
				p.wideInits = append(p.wideInits, in)
				p.wideRegs = append(p.wideRegs, in)
			}
		}
	}
	gates := m.Gates
	if keep != nil {
		gates = nil
		for i, g := range m.Gates {
			if keep.gate[i] {
				gates = append(gates, g)
			}
		}
	}
	for _, g := range m.Gates {
		if err := gateErr(g); err != nil {
			p.err = err
		}
	}
	p.insns = make([]insn, 0, len(gates))
	for _, g := range gates {
		p.insns = append(p.insns, lowerGate(g, at))
	}
	for i := range p.insns {
		switch p.insns[i].op.class() {
		case MixPacked:
			p.mix.Packed++
		case MixBoundary:
			p.mix.Boundary++
		case MixLane:
			p.mix.Lane++
		default:
			p.mix.Wide++
		}
	}
	p.writes = make([][]regCommit, m.NumStates)
	for _, rw := range m.RegWrites {
		// A register outside the cone has no slot and nothing reads it.
		if rw.State >= 0 && rw.State < m.NumStates && at(rw.Reg).idx >= 0 {
			p.writes[rw.State] = append(p.writes[rw.State],
				regCommit{reg: at(rw.Reg), val: at(rw.Value), cn: canonOf(rw.Reg.Type)})
		}
	}
	for _, ws := range p.writes {
		if len(ws) > p.maxWrites {
			p.maxWrites = len(ws)
		}
	}
	p.trans = make([][]transEdge, m.NumStates)
	for _, tr := range m.Trans {
		if tr.From < 0 || tr.From >= m.NumStates {
			continue
		}
		e := transEdge{cond: noSlot, to: int32(tr.To)}
		if tr.Cond != nil {
			e.cond = at(tr.Cond)
			if tr.CondValue {
				e.condVal = 1
			}
		}
		p.trans[tr.From] = append(p.trans[tr.From], e)
	}
	for _, es := range p.trans {
		if len(es) > p.maxEdges {
			p.maxEdges = len(es)
		}
	}
	for name, sig := range m.ScalarPort {
		p.scalarPort[name] = portSlot{at(sig), canonOf(sig.Type)}
	}
	for name, elems := range m.ArrayPort {
		ps := make([]portSlot, len(elems))
		for i, sig := range elems {
			ps[i] = portSlot{at(sig), canonOf(sig.Type)}
		}
		p.arrayPort[name] = ps
	}
	if m.RetSignal != nil {
		p.retSlot = at(m.RetSignal)
	}
	// A single-state FSM observes its whole netlist every cycle, so
	// per-state need sets would only add iteration overhead there.
	if bitSliced && m.NumStates > 1 && len(gates) > 0 {
		p.buildNeedSets(m, gates, maxID, at)
	}
	return p
}

// producers maps each signal ID to the position in gates of the gate
// driving it, -1 for signals no gate drives (inputs, registers,
// constants).
func producers(gates []*rtl.Gate, maxID int) []int32 {
	producer := make([]int32, maxID+1)
	for i := range producer {
		producer[i] = -1
	}
	for i, g := range gates {
		producer[g.Out.ID] = int32(i)
	}
	return producer
}

// cone is the keep-set of a cycles-only compile.
type cone struct {
	gate []bool // by position in Module.Gates
	sig  []bool // by Signal.ID
}

// controlCone computes a module's FSM control cone. It starts from
// every transition condition and follows two kinds of link until
// nothing new is added: the inputs of each gate in the cone, and the
// value of every RegWrite, in any state, to a register in the cone.
//
// A lane's cycle count depends only on which transitions fire, and so
// only on this cone: cone gates read only cone signals, and cone
// registers are written only from cone signals. Its errors depend on
// nothing else either: the watchdog and the no-matching-transition
// error are decided by the transitions, and a gate never errors at run
// time (division by zero and an out-of-range array index yield 0).
// A single-state design whose one transition is unconditional has an
// empty cone.
func controlCone(m *rtl.Module, maxID int) *cone {
	producer := producers(m.Gates, maxID)
	// writes to each register as linked lists over m.RegWrites.
	firstWrite := make([]int32, maxID+1)
	for i := range firstWrite {
		firstWrite[i] = -1
	}
	nextWrite := make([]int32, len(m.RegWrites))
	for i, rw := range m.RegWrites {
		nextWrite[i] = firstWrite[rw.Reg.ID]
		firstWrite[rw.Reg.ID] = int32(i)
	}
	c := &cone{gate: make([]bool, len(m.Gates)), sig: make([]bool, maxID+1)}
	var stack []*rtl.Signal
	add := func(s *rtl.Signal) {
		if s != nil && !c.sig[s.ID] {
			c.sig[s.ID] = true
			stack = append(stack, s)
		}
	}
	for _, tr := range m.Trans {
		add(tr.Cond)
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if gi := producer[s.ID]; gi >= 0 {
			c.gate[gi] = true
			for _, in := range m.Gates[gi].In {
				add(in)
			}
		}
		for wi := firstWrite[s.ID]; wi >= 0; wi = nextWrite[wi] {
			add(m.RegWrites[wi].Value)
		}
	}
	return c
}

// buildNeedSets computes, per FSM state, the bitmap of instructions
// whose outputs that state can observe: the transitive producer closure
// of its register-write sources and its outgoing transition conditions.
// A cycle then evaluates only the union over active states — in a
// many-state sequential design most of the netlist is dead on any given
// cycle, and the bit-sliced stepper skips it entirely. gates are the
// lowered gates in instruction order; writes to registers without a
// slot (outside a cycles-only cone) are not roots.
func (p *Program) buildNeedSets(m *rtl.Module, gates []*rtl.Gate, maxID int, at func(*rtl.Signal) slotRef) {
	producer := producers(gates, maxID)
	words := (len(gates) + 63) / 64
	p.needWords = words
	p.need = make([][]uint64, m.NumStates)
	flat := make([]uint64, words*m.NumStates)
	stack := make([]int32, 0, len(gates))
	var bm []uint64
	mark := func(s *rtl.Signal) {
		if s == nil {
			return
		}
		pi := producer[s.ID]
		if pi < 0 || bm[pi>>6]&(1<<uint(pi&63)) != 0 {
			return
		}
		bm[pi>>6] |= 1 << uint(pi&63)
		stack = append(stack, pi)
	}
	for st := 0; st < m.NumStates; st++ {
		bm = flat[st*words : (st+1)*words]
		stack = stack[:0]
		for _, rw := range m.RegWrites {
			if rw.State == st && at(rw.Reg).idx >= 0 {
				mark(rw.Value)
			}
		}
		for _, tr := range m.Trans {
			if tr.From == st {
				mark(tr.Cond)
			}
		}
		for len(stack) > 0 {
			pi := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, in := range gates[pi].In {
				mark(in)
			}
		}
		p.need[st] = bm
	}
}

// bitWord expands a canonical 1-bit value to its packed word: every
// lane of a constant (or register reset) holds the same bit.
func bitWord(v int64) uint64 {
	if v&1 != 0 {
		return ^uint64(0)
	}
	return 0
}

// lowerGate classifies one gate by the domains of its operands and
// output and picks the strongest instruction form that covers it:
// packed single-word ops when everything is bit-sliced, the
// struct-of-arrays loop when everything is wide, a specialized boundary
// op on the common crossings, and the generic per-lane fallback for the
// rest.
func lowerGate(g *rtl.Gate, at func(*rtl.Signal) slotRef) insn {
	in := insn{
		kind: g.Kind, bin: g.Bin, un: g.Un, uns: g.UnsignedOps,
		cn: canonOf(g.Out.Type), out: at(g.Out),
		a: noSlot, b: noSlot, c: noSlot,
	}
	switch g.Kind {
	case rtl.GateBin:
		in.a, in.b = at(g.In[0]), at(g.In[1])
		in.op = classifyBin(&in)
	case rtl.GateUn:
		in.a = at(g.In[0])
		in.op = classifyUn(&in)
	case rtl.GateMux:
		in.a, in.b, in.c = at(g.In[0]), at(g.In[1]), at(g.In[2])
		in.op = classifyMux(&in)
	case rtl.GateCopy:
		in.a = at(g.In[0])
		in.op = classifyCopy(&in)
	case rtl.GateArrayRead:
		in.a = at(g.In[0])
		in.elems = make([]slotRef, len(g.In)-1)
		allWide := !in.a.bit && !in.out.bit
		for i, e := range g.In[1:] {
			in.elems[i] = at(e)
			if in.elems[i].bit {
				allWide = false
			}
		}
		if allWide {
			in.op = opWideArrayRead
		} else {
			in.op = opLaneArrayRead
		}
	default:
		// Unknown kind: gateErr fails every lane before this runs.
		in.op = opLaneCopy
	}
	return in
}

// gateErr validates one gate: an op or gate kind the simulator does not
// implement. Every gate of the module is validated, lowered or not, and
// the error is reported at run time (every lane errors), mirroring the
// scalar Sim's behaviour.
func gateErr(g *rtl.Gate) error {
	switch g.Kind {
	case rtl.GateBin:
		if !binOpKnown(g.Bin) {
			return fmt.Errorf("rtlsim: gate %s: unknown binary op %v", g.Out.Name, g.Bin)
		}
	case rtl.GateUn, rtl.GateMux, rtl.GateCopy, rtl.GateArrayRead:
	default:
		return fmt.Errorf("rtlsim: gate %s: unknown gate kind %v", g.Out.Name, g.Kind)
	}
	return nil
}

// classifyBin maps a binary gate onto an opcode. Over packed 1-bit
// operands every comparison and logical op reduces to one or two
// bitwise word instructions (values are exactly {0,1}, so signed and
// unsigned comparison agree); a wide comparison producing a 1-bit
// predicate packs at the boundary; pure-wide ops keep the SoA loop.
func classifyBin(in *insn) opcode {
	if in.out.bit && in.a.bit && in.b.bit {
		switch in.bin {
		case ir.OpAnd, ir.OpLAnd, ir.OpMul:
			return opBitAnd
		case ir.OpOr, ir.OpLOr:
			return opBitOr
		case ir.OpXor, ir.OpNe:
			return opBitXor
		case ir.OpEq:
			return opBitXnor
		case ir.OpGt:
			return opBitAndNot // a > b over bits: a &^ b
		case ir.OpLt:
			in.a, in.b = in.b, in.a
			return opBitAndNot // a < b == b &^ a
		case ir.OpGe:
			return opBitOrNot // a >= b over bits: a | ^b
		case ir.OpLe:
			in.a, in.b = in.b, in.a
			return opBitOrNot // a <= b == b | ^a
		}
		return opLaneBin
	}
	if in.out.bit && !in.a.bit && !in.b.bit {
		switch in.bin {
		case ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe, ir.OpLAnd, ir.OpLOr:
			return opCmpPack
		}
		return opLaneBin
	}
	if !in.out.bit && !in.a.bit && !in.b.bit {
		return opWideBin
	}
	return opLaneBin
}

func classifyUn(in *insn) opcode {
	if in.out.bit && in.a.bit {
		switch in.un {
		case ir.OpNot, ir.OpLNot:
			return opBitNot
		case ir.OpNeg:
			// -v canonicalized to 1 bit is v itself.
			return opBitCopy
		}
		return opLaneUn
	}
	if !in.out.bit && !in.a.bit {
		return opWideUn
	}
	return opLaneUn
}

func classifyMux(in *insn) opcode {
	if in.a.bit {
		if in.out.bit && in.b.bit && in.c.bit {
			return opBitMux
		}
		if !in.out.bit && !in.b.bit && !in.c.bit {
			return opMuxWideSel
		}
		return opLaneMux
	}
	if !in.out.bit && !in.b.bit && !in.c.bit {
		return opWideMux
	}
	return opLaneMux
}

func classifyCopy(in *insn) opcode {
	switch {
	case in.out.bit && in.a.bit:
		return opBitCopy
	case in.out.bit:
		return opNarrowBit
	case in.a.bit:
		return opWidenBit
	}
	return opWideCopy
}

func binOpKnown(op ir.BinOp) bool {
	switch op {
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem,
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr,
		ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe,
		ir.OpLAnd, ir.OpLOr:
		return true
	}
	return false
}
