package analysis

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"probedis/internal/superset"
	"probedis/internal/synth"
	"probedis/internal/x86"
)

// The full-walk references below visit every offset of the section
// instead of the graph's anchor sites. The jump-table and literal-pool
// references share the per-offset matchers with production, so what they
// check is that no match starts off an anchor site; the call-target and
// prologue references repeat their analysis whole, the prologue one with
// a byte-by-byte pattern compare.

func callTargetHintsRef(g *superset.Graph, viable []bool) []Hint {
	counts := map[int]int32{}
	for off := 0; off < g.Len(); off++ {
		if !viable[off] || g.At(off).Flow() != x86.FlowCall {
			continue
		}
		if t := g.TargetOff(off); t >= 0 && viable[t] {
			counts[t]++
		}
	}
	var hs []Hint
	for t := 0; t < g.Len(); t++ {
		if n := counts[t]; n > 0 {
			hs = append(hs, callTargetHint(t, n))
		}
	}
	return hs
}

func findJumpTablesRef(g *superset.Graph, viable []bool) []JumpTable {
	var out []JumpTable
	for off := 0; off < g.Len(); off++ {
		if jt, ok := jumpTableAt(g, viable, off); ok {
			out = append(out, jt)
		}
	}
	return out
}

func literalPoolHintsRef(g *superset.Graph, viable []bool) []Hint {
	var hs []Hint
	for off := 0; off < g.Len(); off++ {
		hs = literalPoolAt(g, viable, off, hs)
	}
	return hs
}

// prologueFirstByte marks the bytes that begin some prologue pattern.
var prologueFirstByte = func() (t [256]bool) {
	for _, p := range prologuePatterns {
		t[p[0]] = true
	}
	return
}()

func prologueHintsRef(g *superset.Graph, viable []bool) []Hint {
	var hs []Hint
	code := g.Code
	for off := range code {
		if !viable[off] || !prologueFirstByte[code[off]] {
			continue
		}
		matched := false
		for _, p := range prologuePatterns {
			if off+len(p) <= len(code) && string(code[off:off+len(p)]) == string(p) {
				matched = true
				break
			}
		}
		if !matched {
			continue
		}
		plausible := off == 0 || off%16 == 0
		if !plausible {
			switch code[off-1] {
			case 0xc3, 0xcc, 0x00, 0x90:
				plausible = true
			}
		}
		if plausible {
			hs = append(hs, Hint{Kind: HintCode, Off: off, Prio: PrioMedium, Score: 4, Src: "prologue"})
		}
	}
	return hs
}

// checkAnchoredMatchesReference compares the anchored analyses with their
// full-walk references on g.
func checkAnchoredMatchesReference(t *testing.T, name string, g *superset.Graph) {
	t.Helper()
	viable := Viability(g)
	if got, want := CallTargetHints(g, viable), callTargetHintsRef(g, viable); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: call-target hints %+v, reference %+v", name, got, want)
	}
	if got, want := FindJumpTables(g, viable), findJumpTablesRef(g, viable); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: jump tables %+v, reference %+v", name, got, want)
	}
	if got, want := PrologueHints(g, viable), prologueHintsRef(g, viable); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: prologue hints %+v, reference %+v", name, got, want)
	}
	if got, want := LiteralPoolHints(g, viable), literalPoolHintsRef(g, viable); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: literal-pool hints %+v, reference %+v", name, got, want)
	}
}

// anchoredCase is a crafted section for the anchored-analysis
// differential, built by viabilityGraph.
type anchoredCase struct {
	name string
	code []byte
	ext  bool
}

// anchoredCases returns the crafted sections: a prologue in the last
// three bytes, direct FP loads of a constant pool through the scan
// kernel's VEX fallback and its table path, and generated sections that
// hold jump tables, calls and prologues.
func anchoredCases(tb testing.TB) []anchoredCase {
	// vmovsd xmm0, [rip+16] (VEX: the scan kernel falls back to the full
	// decoder, which groups it as AVX) and movsd xmm0, [rip+8], both
	// referencing the pool at 24; ret and the zero run aligning the pool.
	pool := []byte{
		0xc5, 0xfb, 0x10, 0x05, 0x10, 0x00, 0x00, 0x00,
		0xf2, 0x0f, 0x10, 0x05, 0x08, 0x00, 0x00, 0x00,
		0xc3, 0, 0, 0, 0, 0, 0, 0,
	}
	pool = binary.LittleEndian.AppendUint64(pool, math.Float64bits(3.14159))
	pool = binary.LittleEndian.AppendUint64(pool, math.Float64bits(-2.5e3))

	cases := []anchoredCase{
		// ret; push r12; push rbp, falling off the section end into the
		// extern range above it.
		{name: "prologue in the last 3 bytes", code: []byte{0x90, 0xc3, 0x41, 0x54, 0x55}, ext: true},
		{name: "same without extern ranges", code: []byte{0x90, 0xc3, 0x41, 0x54, 0x55}},
		// The first three bytes of a four-byte pattern end the section.
		{name: "cut-off prologue", code: []byte{0xc3, 0x55, 0x48, 0x89}, ext: true},
		{name: "four-byte prologue at the end", code: []byte{0xc3, 0x55, 0x48, 0x89, 0xe5}, ext: true},
		{name: "VEX and SSE pool loads", code: pool},
	}
	for i, p := range []synth.Profile{synth.ProfileComplex, synth.ProfileO2, synth.ProfileAdvObf} {
		bin, err := synth.Generate(synth.Config{Seed: int64(61 + i), Profile: p, NumFuncs: 3})
		if err != nil {
			tb.Fatal(err)
		}
		cases = append(cases, anchoredCase{name: p.Name, code: bin.Code[:min(len(bin.Code), 4<<10)]})
	}
	return cases
}

// TestAnchoredMatchesReference runs the anchored analyses against their
// full-walk references on the crafted cases and the range-test graphs.
// The crafted cases must produce what they were built for, and the
// generated graphs must hold jump tables and call targets, so the
// differential is not vacuous.
func TestAnchoredMatchesReference(t *testing.T) {
	for _, c := range anchoredCases(t) {
		g := viabilityGraph(c.code, viabilityBase, c.ext)
		viable := Viability(g)
		switch c.name {
		case "prologue in the last 3 bytes":
			if hs := PrologueHints(g, viable); len(hs) != 1 || hs[0].Off != 2 {
				t.Fatalf("%s: prologue hints %+v, want one at offset 2", c.name, hs)
			}
		case "VEX and SSE pool loads":
			if g.ScanFallbackCount() == 0 || g.NextAnchor(0) != 0 {
				t.Fatalf("%s: the VEX load at offset 0 must take the scan fallback and be an anchor site", c.name)
			}
			// The movsd at 8 and the movups it overlaps at 9 both prove it.
			if hs := LiteralPoolHints(g, viable); len(hs) != 2 || hs[0].Off != 17 || hs[0].Len != 23 {
				t.Fatalf("%s: literal-pool hints %+v, want the pool [17, 40) twice", c.name, hs)
			}
		}
		checkAnchoredMatchesReference(t, c.name, g)
	}
	var tables, calls int
	for _, g := range rangeTestGraphs(t) {
		viable := Viability(g)
		tables += len(FindJumpTables(g, viable))
		calls += len(CallTargetHints(g, viable))
		checkAnchoredMatchesReference(t, "generated", g)
	}
	if tables == 0 || calls == 0 {
		t.Fatalf("generated sections hold %d jump tables and %d call targets, want some of each", tables, calls)
	}
}

// FuzzAnchoredMatchesReference extends the differential to fuzzed bytes,
// with and without extern ranges around the section. Run with
// `go test -fuzz=FuzzAnchoredMatchesReference ./internal/analysis`.
func FuzzAnchoredMatchesReference(f *testing.F) {
	for _, c := range anchoredCases(f) {
		f.Add(c.code, c.ext)
	}
	f.Fuzz(func(t *testing.T, code []byte, ext bool) {
		if len(code) > 4<<10 {
			return
		}
		checkAnchoredMatchesReference(t, "fuzz", viabilityGraph(code, viabilityBase, ext))
	})
}
