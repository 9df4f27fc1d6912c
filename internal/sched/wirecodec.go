package sched

import (
	"fmt"

	"sparkgo/internal/wire"
)

// The binary wire framing of the flattened schedule form (see codec.go
// for the flattening): fixed field order, varint lengths, float maps
// flattened to AllOps-ordered fixed-width slices. Identical schedules
// encode to identical bytes.

// resultTag versions the schedule wire layout.
const resultTag = "sched/1"

// encodeResultWire frames the flattened schedule in the deterministic
// binary layout.
func encodeResultWire(rc *resultCode) []byte {
	// Size for the bulk: per op a state and two floats, per edge four
	// small varints.
	e := wire.NewEncoder(512 + len(rc.Graph) + 20*len(rc.OpState) + 6*len(rc.DepEdges))
	e.Tag(resultTag)
	e.Bytes(rc.Graph)
	e.Int(rc.Mode)
	e.Bool(rc.HasModel)
	if rc.HasModel {
		e.Float64(rc.NandDelay)
		e.Float64(rc.ClockPeriod)
	}
	e.Int(rc.NumStates)
	e.Ints(rc.OpState)
	e.Float64s(rc.Arrival)
	e.Float64s(rc.Finish)
	e.Uvarint(uint64(len(rc.OpOrder)))
	for _, list := range rc.OpOrder {
		e.Ints(list)
	}
	e.Uvarint(uint64(len(rc.Transitions)))
	for _, tr := range rc.Transitions {
		e.Int(tr.From)
		e.Int(tr.Cond)
		e.Bool(tr.CondValue)
		e.Int(tr.To)
	}
	e.Uvarint(uint64(len(rc.VarClass)))
	for _, vc := range rc.VarClass {
		e.Int(vc.Var)
		e.Int(vc.Class)
	}
	e.Float64s(rc.StateCritPath)
	e.Ints(rc.ReentrantStates)
	e.Int(rc.ClockViolations)
	e.Bool(rc.HasDeps)
	if rc.HasDeps {
		e.Ints(rc.DepOps)
		e.Uvarint(uint64(len(rc.DepEdges)))
		for _, ec := range rc.DepEdges {
			e.Int(ec.From)
			e.Int(ec.To)
			e.Int(ec.Kind)
			e.Int(ec.Var)
		}
	}
	return e.Data()
}

// decodeResultWire parses the binary layout back into the flattened
// form, rejecting truncation, trailing bytes, and inflated lengths.
func decodeResultWire(data []byte) (*resultCode, error) {
	d := wire.NewDecoder(data)
	d.Tag(resultTag)
	rc := &resultCode{
		Graph: d.Bytes(),
		Mode:  d.Int(),
	}
	if rc.HasModel = d.Bool(); rc.HasModel {
		rc.NandDelay = d.Float64()
		rc.ClockPeriod = d.Float64()
	}
	rc.NumStates = d.Int()
	rc.OpState = d.Ints()
	rc.Arrival = d.Float64s()
	rc.Finish = d.Float64s()
	if n := d.Len(1); n > 0 {
		rc.OpOrder = make([][]int, 0, n)
		for i := 0; i < n && d.Err() == nil; i++ {
			rc.OpOrder = append(rc.OpOrder, d.Ints())
		}
	}
	if n := d.Len(4); n > 0 { // a transition is >= 4 bytes
		rc.Transitions = make([]schedTransCode, 0, n)
		for i := 0; i < n && d.Err() == nil; i++ {
			rc.Transitions = append(rc.Transitions, schedTransCode{
				From: d.Int(), Cond: d.Int(), CondValue: d.Bool(), To: d.Int()})
		}
	}
	if n := d.Len(2); n > 0 { // a var-class entry is >= 2 bytes
		rc.VarClass = make([]varClassCode, 0, n)
		for i := 0; i < n && d.Err() == nil; i++ {
			rc.VarClass = append(rc.VarClass, varClassCode{Var: d.Int(), Class: d.Int()})
		}
	}
	rc.StateCritPath = d.Float64s()
	rc.ReentrantStates = d.Ints()
	rc.ClockViolations = d.Int()
	if rc.HasDeps = d.Bool(); rc.HasDeps {
		rc.DepOps = d.Ints()
		if n := d.Len(4); n > 0 { // a dependence edge is >= 4 bytes
			rc.DepEdges = make([]depEdgeCode, 0, n)
			for i := 0; i < n && d.Err() == nil; i++ {
				rc.DepEdges = append(rc.DepEdges, depEdgeCode{
					From: d.Int(), To: d.Int(), Kind: d.Int(), Var: d.Int()})
			}
		}
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("result: %w", err)
	}
	return rc, nil
}
