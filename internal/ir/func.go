package ir

import (
	"fmt"
	"sort"
)

// Func is an IR function: the unit of behavioral description. The top-level
// function of a design (conventionally "main") describes the functional
// block itself; other functions are leaf computations that the inliner
// absorbs before scheduling.
type Func struct {
	Name   string
	Params []*Var
	Ret    *Type
	Locals []*Var // every local and temporary, including params' shadows
	Body   *Block

	tempCounter int
}

// NewFunc constructs an empty function.
func NewFunc(name string, ret *Type, params ...*Var) *Func {
	for _, p := range params {
		p.IsParam = true
	}
	return &Func{Name: name, Params: params, Ret: ret, Body: &Block{},
		Locals: append([]*Var(nil), params...)}
}

// NewLocal declares a new local variable in f with the exact given name.
func (f *Func) NewLocal(name string, t *Type) *Var {
	v := &Var{Name: name, Type: t}
	f.Locals = append(f.Locals, v)
	return v
}

// NewTemp declares a fresh synthetic temporary with a unique name derived
// from prefix. Transformation passes use this for speculation temps, wire
// variables, and inlining copies.
func (f *Func) NewTemp(prefix string, t *Type) *Var {
	return f.newTemp(prefix, t, func(name string) bool { return f.Lookup(name) != nil })
}

// TempNamer returns a NewTemp for callers that declare many temporaries
// in a row: it indexes the local names once instead of scanning them per
// temporary, and yields exactly the names NewTemp would. It is valid
// only while f.Locals changes through it alone.
func (f *Func) TempNamer() func(prefix string, t *Type) *Var {
	taken := make(map[string]bool, len(f.Locals))
	for _, v := range f.Locals {
		taken[v.Name] = true
	}
	return func(prefix string, t *Type) *Var {
		v := f.newTemp(prefix, t, func(name string) bool { return taken[name] })
		taken[v.Name] = true
		return v
	}
}

func (f *Func) newTemp(prefix string, t *Type, taken func(string) bool) *Var {
	for {
		f.tempCounter++
		name := fmt.Sprintf("%s_%d", prefix, f.tempCounter)
		if !taken(name) {
			v := &Var{Name: name, Type: t, Synthetic: true}
			f.Locals = append(f.Locals, v)
			return v
		}
	}
}

// Lookup finds a local (or parameter) by name, or nil.
func (f *Func) Lookup(name string) *Var {
	for _, v := range f.Locals {
		if v.Name == name {
			return v
		}
	}
	return nil
}

// RemoveLocal deletes v from the locals list (used by DCE once a variable
// becomes unreferenced).
func (f *Func) RemoveLocal(v *Var) {
	for i, w := range f.Locals {
		if w == v {
			f.Locals = append(f.Locals[:i], f.Locals[i+1:]...)
			return
		}
	}
}

// Program is a complete behavioral description: global storage plus
// functions. Globals model the block's architectural state: input buffers,
// output vectors, and any state carried between activations.
type Program struct {
	Name    string
	Globals []*Var
	Funcs   []*Func
}

// NewProgram constructs an empty program.
func NewProgram(name string) *Program { return &Program{Name: name} }

// NewGlobal declares a module-level variable.
func (p *Program) NewGlobal(name string, t *Type) *Var {
	v := &Var{Name: name, Type: t, IsGlobal: true}
	p.Globals = append(p.Globals, v)
	return v
}

// Global finds a global by name, or nil.
func (p *Program) Global(name string) *Var {
	for _, v := range p.Globals {
		if v.Name == name {
			return v
		}
	}
	return nil
}

// Func finds a function by name, or nil.
func (p *Program) Func(name string) *Func {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// AddFunc appends a function to the program and returns it.
func (p *Program) AddFunc(f *Func) *Func {
	p.Funcs = append(p.Funcs, f)
	return f
}

// Main returns the design's top-level function (named "main"), or the sole
// function if only one exists.
func (p *Program) Main() *Func {
	if f := p.Func("main"); f != nil {
		return f
	}
	if len(p.Funcs) == 1 {
		return p.Funcs[0]
	}
	return nil
}

// SortedGlobals returns the globals ordered by name (deterministic
// iteration for printing and RTL port ordering).
func (p *Program) SortedGlobals() []*Var {
	gs := append([]*Var(nil), p.Globals...)
	sort.Slice(gs, func(i, j int) bool { return gs[i].Name < gs[j].Name })
	return gs
}
