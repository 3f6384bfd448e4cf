package analysis

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"probedis/internal/superset"
	"probedis/internal/synth"
	"probedis/internal/x86"
)

// The full-walk references below visit every offset of [from, to)
// instead of the graph's anchor sites. The jump-table and literal-pool
// references share the per-offset matchers with production, so what they
// check is that no match starts off an anchor site; the call-target and
// prologue references repeat their analysis whole, the prologue one with
// a byte-by-byte pattern compare.

func callTargetCountsRef(g *superset.Graph, viable []bool, from, to int) map[int]int32 {
	counts := map[int]int32{}
	for off := from; off < to; off++ {
		if !viable[off] || g.At(off).Flow != x86.FlowCall {
			continue
		}
		if t := g.TargetOff(off); t >= 0 && viable[t] {
			counts[t]++
		}
	}
	return counts
}

func findJumpTablesRef(g *superset.Graph, viable []bool, from, to int) []JumpTable {
	var out []JumpTable
	for off := from; off < to; off++ {
		if jt, ok := jumpTableAt(g, viable, off); ok {
			out = append(out, jt)
		}
	}
	return out
}

func literalPoolHintsRef(g *superset.Graph, viable []bool, from, to int) []Hint {
	var hs []Hint
	for off := from; off < to; off++ {
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

func prologueHintsRef(g *superset.Graph, viable []bool, from, to int) []Hint {
	var hs []Hint
	code := g.Code
	for off := from; off < to; off++ {
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
// full-walk references over [from, to) of g, and the whole-section entry
// points with the references over the whole section.
func checkAnchoredMatchesReference(t *testing.T, name string, g *superset.Graph, from, to int) {
	t.Helper()
	viable := Viability(g)

	counts := map[int]int32{}
	CallTargetCountsRange(g, viable, from, to, counts)
	if want := callTargetCountsRef(g, viable, from, to); !reflect.DeepEqual(counts, want) {
		t.Fatalf("%s [%d,%d): call-target counts %v, reference %v", name, from, to, counts, want)
	}
	if got, want := FindJumpTablesRange(g, viable, from, to, nil), findJumpTablesRef(g, viable, from, to); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s [%d,%d): jump tables %+v, reference %+v", name, from, to, got, want)
	}
	if got, want := PrologueHintsRange(g, viable, from, to, nil), prologueHintsRef(g, viable, from, to); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s [%d,%d): prologue hints %+v, reference %+v", name, from, to, got, want)
	}
	if got, want := LiteralPoolHintsRange(g, viable, from, to, nil), literalPoolHintsRef(g, viable, from, to); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s [%d,%d): literal-pool hints %+v, reference %+v", name, from, to, got, want)
	}

	n := g.Len()
	if got, want := CallTargetHints(g, viable), CallTargetHintsFromCounts(callTargetCountsRef(g, viable, 0, n)); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: call-target hints %+v, reference %+v", name, got, want)
	}
	if got, want := FindJumpTables(g, viable), findJumpTablesRef(g, viable, 0, n); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: jump tables %+v, reference %+v", name, got, want)
	}
	if got, want := PrologueHints(g, viable), prologueHintsRef(g, viable, 0, n); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: prologue hints %+v, reference %+v", name, got, want)
	}
	if got, want := LiteralPoolHints(g, viable), literalPoolHintsRef(g, viable, 0, n); !reflect.DeepEqual(got, want) {
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
// full-walk references on the crafted cases and the range-test graphs,
// over the whole section and over sub-ranges: every sub-range of the
// short crafted cases, random ones of the rest. The crafted cases must
// produce what they were built for, so the differential is not vacuous.
func TestAnchoredMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	var graphs []*superset.Graph
	for _, c := range anchoredCases(t) {
		g := viabilityGraph(c.code, c.ext)
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
		if g.Len() > 64 {
			graphs = append(graphs, g)
			continue
		}
		for from := 0; from <= g.Len(); from++ {
			for to := from; to <= g.Len(); to++ {
				checkAnchoredMatchesReference(t, c.name, g, from, to)
			}
		}
	}
	var tables, calls int
	for _, g := range append(graphs, rangeTestGraphs(t)...) {
		viable := Viability(g)
		tables += len(FindJumpTables(g, viable))
		calls += len(CallTargetHints(g, viable))
		for i := 0; i < 8; i++ {
			from := rng.Intn(g.Len() + 1)
			checkAnchoredMatchesReference(t, "generated", g, from, from+rng.Intn(g.Len()-from+1))
		}
		checkAnchoredMatchesReference(t, "generated", g, 0, g.Len())
	}
	if tables == 0 || calls == 0 {
		t.Fatalf("generated sections hold %d jump tables and %d call targets, want some of each", tables, calls)
	}
}

// FuzzAnchoredMatchesReference extends the differential to fuzzed bytes,
// with and without extern ranges around the section, over the whole
// section and over a fuzzed [from, to). Run with
// `go test -fuzz=FuzzAnchoredMatchesReference ./internal/analysis`.
func FuzzAnchoredMatchesReference(f *testing.F) {
	for _, c := range anchoredCases(f) {
		f.Add(c.code, c.ext, uint16(1), uint16(len(c.code)-1))
	}
	f.Fuzz(func(t *testing.T, code []byte, ext bool, a, b uint16) {
		if len(code) > 4<<10 {
			return
		}
		from, to := int(a)%(len(code)+1), int(b)%(len(code)+1)
		if from > to {
			from, to = to, from
		}
		checkAnchoredMatchesReference(t, "fuzz", viabilityGraph(code, ext), from, to)
	})
}
