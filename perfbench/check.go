package main

import (
	"fmt"
	"math/rand"

	"sparkgo/internal/core"
	"sparkgo/internal/explore"
	"sparkgo/internal/ild"
	"sparkgo/internal/ir"
	"sparkgo/internal/rtl"
	"sparkgo/internal/rtlsim"
	"sparkgo/internal/wire"
)

// ildCase is one seeded instruction buffer and the reference decoder's
// answer for it.
type ildCase struct {
	buf   []byte
	marks []bool
	lens  []int
}

// ildCases draws k instruction buffers for an n-byte window, half of
// them uniformly random bytes and half whole random instructions, and
// decodes each with the hand-written reference decoder ild.Decode.
func ildCases(rng *rand.Rand, n, k int) []ildCase {
	cases := make([]ildCase, k)
	for i := range cases {
		var buf []byte
		if i%2 == 0 {
			buf = ild.RandomBuffer(rng, n)
		} else {
			buf, _ = ild.RandomInstructions(rng, n)
		}
		marks, lens := ild.Decode(buf, n)
		cases[i] = ildCase{buf: buf, marks: marks, lens: lens}
	}
	return cases
}

// corruptCases flips the first reference mark, the injected mismatch
// the self-check tests use to prove the gate trips.
func corruptCases(cases []ildCase) {
	if len(cases) > 0 && len(cases[0].marks) > 0 {
		cases[0].marks[0] = !cases[0].marks[0]
	}
}

// checkILD simulates a synthesized ILD netlist on the cases, in lanes of
// the compiled simulator, and compares its Mark and Len outputs with the
// reference decoder: Mark at every position, Len at every instruction
// start.
func checkILD(mod *rtl.Module, n int, cases []ildCase) error {
	prog := rtlsim.Compile(mod)
	maxCycles := rtlsim.WatchdogCycles(mod.NumStates)
	for start := 0; start < len(cases); start += rtlsim.MaxLanes {
		chunk := cases[start:min(start+rtlsim.MaxLanes, len(cases))]
		b := prog.NewBatch(len(chunk))
		for ln, c := range chunk {
			vals := make([]int64, len(c.buf))
			for i, x := range c.buf {
				vals[i] = int64(x)
			}
			if err := b.SetArray(ln, "B", vals); err != nil {
				return fmt.Errorf("n=%d: load B: %w", n, err)
			}
		}
		if err := b.Run(maxCycles); err != nil {
			return fmt.Errorf("n=%d: simulate: %w", n, err)
		}
		for ln, c := range chunk {
			if err := b.Err(ln); err != nil {
				return fmt.Errorf("n=%d case %d: %w", n, start+ln, err)
			}
			marks, err := b.Array(ln, "Mark")
			if err != nil {
				return err
			}
			lens, err := b.Array(ln, "Len")
			if err != nil {
				return err
			}
			for i := 0; i < n; i++ {
				if (marks[i] != 0) != c.marks[i] {
					return fmt.Errorf("n=%d case %d: Mark[%d] = %d, reference %v", n, start+ln, i, marks[i], c.marks[i])
				}
				if c.marks[i] && lens[i] != int64(c.lens[i]) {
					return fmt.Errorf("n=%d case %d: Len[%d] = %d, reference %d", n, start+ln, i, lens[i], c.lens[i])
				}
			}
		}
	}
	return nil
}

// storedNetlist follows the engine's stage chain for one configuration
// through its local blob tiers and decodes the netlist at the end of
// it, as the engine revives one: the frontend key comes from the input
// program, the midend and backend keys from the fingerprint each stored
// artifact carries. The gate checks this netlist, the one the engine
// produced or revived, rather than a fresh synthesis. It reads the
// engine's blob framing (a tag, the artifact's encoding, the printed
// source for a frontend, then the fingerprint); a change to that
// framing makes it return an error, so the gate fails instead of
// passing unchecked.
func storedNetlist(eng *explore.Engine, input *ir.Program, c explore.Config) (*rtl.Module, error) {
	opt := c.Options()
	_, feFP, err := storedBlob(eng, "frontend", "expfe/1", core.FrontendKey(input, opt.FrontendOptions()))
	if err != nil {
		return nil, err
	}
	mk := core.MidendKey(&core.FrontendArtifact{Fingerprint: feFP}, opt.MidendOptions())
	_, meFP, err := storedBlob(eng, "midend", "expme/1", mk)
	if err != nil {
		return nil, err
	}
	bk := core.BackendKey(&core.MidendArtifact{Fingerprint: meFP}, opt.BackendOptions())
	enc, _, err := storedBlob(eng, "backend", "expbe/1", bk)
	if err != nil {
		return nil, err
	}
	ba, err := core.ReviveBackendArtifact(enc)
	if err != nil {
		return nil, err
	}
	return ba.Mod()
}

// storedBlob reads one stage blob and returns the artifact encoding
// and fingerprint it frames.
func storedBlob(eng *explore.Engine, kind, tag, key string) ([]byte, string, error) {
	data, ok, err := eng.BlobGet(kind, key)
	if err != nil {
		return nil, "", fmt.Errorf("%s artifact: %w", kind, err)
	}
	if !ok {
		return nil, "", fmt.Errorf("no %s artifact under key %.16s", kind, key)
	}
	d := wire.NewDecoder(data)
	d.Tag(tag)
	enc := d.Bytes()
	if kind == "frontend" {
		_ = d.String() // the printed source
	}
	fp := d.String()
	if err := d.Err(); err != nil {
		return nil, "", fmt.Errorf("%s artifact: %w", kind, err)
	}
	return enc, fp, nil
}

// samePoint reports how a point's design metrics differ from a
// reference point's (cycles, area, critical path, muxes, FUs), or "" if
// they agree. Simulated latency is compared by the callers that know
// the simulation depth.
func samePoint(got, want explore.Point) string {
	switch {
	case got.Err != "":
		return "evaluation failed: " + got.Err
	case got.Cycles != want.Cycles:
		return fmt.Sprintf("cycles %d, reference %d", got.Cycles, want.Cycles)
	case got.Area != want.Area:
		return fmt.Sprintf("area %g, reference %g", got.Area, want.Area)
	case got.CritPath != want.CritPath:
		return fmt.Sprintf("critical path %g, reference %g", got.CritPath, want.CritPath)
	case got.Muxes != want.Muxes:
		return fmt.Sprintf("muxes %d, reference %d", got.Muxes, want.Muxes)
	case got.FUs != want.FUs:
		return fmt.Sprintf("FUs %d, reference %d", got.FUs, want.FUs)
	}
	return ""
}
