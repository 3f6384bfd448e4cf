package superset

import (
	"math/rand"
	"slices"
	"testing"

	"probedis/internal/ctxutil"
	"probedis/internal/synth"
	"probedis/internal/x86"
)

func TestBuildSimple(t *testing.T) {
	// 0: push rbp; 1: mov rbp,rsp; 4: ret
	code := []byte{0x55, 0x48, 0x89, 0xe5, 0xc3}
	g := Build(code, 0x1000)
	if g.Len() != 5 {
		t.Fatalf("len = %d", g.Len())
	}
	for off, wantOp := range map[int]x86.Op{0: x86.PUSH, 1: x86.MOV, 4: x86.RET} {
		if !g.Valid(off) || g.Info[off].Op != wantOp {
			t.Errorf("offset %d: valid=%v op=%v, want %v", off, g.Valid(off), g.Info[off].Op, wantOp)
		}
	}
	// Offset 2 decodes 0x89 0xe5 = mov ebp, esp (overlapping decode).
	if !g.Valid(2) || g.Info[2].Op != x86.MOV {
		t.Errorf("offset 2 should decode as overlapping mov")
	}
	// Truncated tail: offset 3 is 0xe5 0xc3 = in eax, 0xc3 (valid, rare).
	if !g.Valid(3) || g.Info[3].Op != x86.IN {
		t.Errorf("offset 3 = %v valid=%v", g.Info[3].Op, g.Valid(3))
	}
	if !g.Info[3].Rare() {
		t.Errorf("in eax, imm8 should be flagged rare")
	}
}

func TestForcedSuccs(t *testing.T) {
	// jmp +0 (to offset 5); ret; call rel32 self+...
	code := []byte{0xe9, 0x00, 0x00, 0x00, 0x00, 0xc3}
	g := Build(code, 0x2000)
	succs := g.ForcedSuccs(nil, 0)
	if len(succs) != 1 || succs[0] != 5 {
		t.Errorf("jmp succs = %v, want [5]", succs)
	}
	// ret has no successors.
	if s := g.ForcedSuccs(nil, 5); len(s) != 0 {
		t.Errorf("ret succs = %v", s)
	}

	// Conditional branch: fallthrough + target.
	code = []byte{0x74, 0x01, 0xc3, 0xc3}
	g = Build(code, 0)
	succs = g.ForcedSuccs(nil, 0)
	if len(succs) != 2 || succs[0] != 2 || succs[1] != 3 {
		t.Errorf("jcc succs = %v, want [2 3]", succs)
	}

	// Branch out of section: forced successor is -1.
	code = []byte{0xe9, 0x00, 0x10, 0x00, 0x00}
	g = Build(code, 0)
	succs = g.ForcedSuccs(nil, 0)
	if len(succs) != 1 || succs[0] != -1 {
		t.Errorf("out-of-section jmp succs = %v, want [-1]", succs)
	}

	// Fallthrough off the end of the section is also -1.
	code = []byte{0x90}
	g = Build(code, 0)
	succs = g.ForcedSuccs(nil, 0)
	if len(succs) != 1 || succs[0] != -1 {
		t.Errorf("end-of-section fallthrough = %v, want [-1]", succs)
	}
}

func TestAddressing(t *testing.T) {
	g := Build(make([]byte, 16), 0x400000)
	if g.OffsetOf(0x400000) != 0 || g.OffsetOf(0x40000f) != 15 {
		t.Error("OffsetOf inside")
	}
	if g.OffsetOf(0x3fffff) != -1 || g.OffsetOf(0x400010) != -1 {
		t.Error("OffsetOf outside")
	}
	if !g.Contains(0x400008) || g.Contains(0x400010) {
		t.Error("Contains")
	}
}

// TestSupersetCoversTruth: every ground-truth instruction of a generated
// binary must be valid in the superset graph with the exact same length.
func TestSupersetCoversTruth(t *testing.T) {
	b, err := synth.Generate(synth.Config{Seed: 21, Profile: synth.ProfileComplex, NumFuncs: 30})
	if err != nil {
		t.Fatal(err)
	}
	g := Build(b.Code, b.Base)
	for off, isStart := range b.Truth.InstStart {
		if !isStart {
			continue
		}
		if !g.Valid(off) {
			t.Fatalf("truth instruction at +%#x invalid in superset", off)
		}
	}
	// Superset density: most offsets in x86 decode as something.
	if d := float64(g.ValidCount()) / float64(g.Len()); d < 0.5 {
		t.Errorf("superset density suspiciously low: %.2f", d)
	}
}

func TestZerosDecode(t *testing.T) {
	// 00 00 = add [rax], al — zeros are valid x86, which is exactly why
	// zero padding is hard for naive disassemblers.
	g := Build(make([]byte, 8), 0)
	if !g.Valid(0) || g.Info[0].Op != x86.ADD || g.Info[0].Len != 2 {
		t.Errorf("zeros decoded as %v len=%d", g.Info[0].Op, g.Info[0].Len)
	}
}

// TestForcedSuccsFallthroughAtSectionBoundary: a fallthrough instruction
// ending exactly at the section end is impossible in isolation (execution
// would run off into nothing), but legitimate when a registered external
// executable range begins right there — two adjacent text sections laid
// out back to back. Regression test: the boundary fallthrough used to be
// marked -1 unconditionally, poisoning the last instructions of every
// section that abuts another.
func TestForcedSuccsFallthroughAtSectionBoundary(t *testing.T) {
	const base = 0x1000
	code := []byte{0x90} // nop at the last byte: fallthrough lands at len(code)
	g := Build(code, base)

	if succs := g.ForcedSuccs(nil, 0); len(succs) != 1 || succs[0] != -1 {
		t.Fatalf("no extern: succs = %v, want [-1]", succs)
	}

	// Contiguous adjacent section: execution continues into it.
	g.SetExtern([]Range{{Start: base + 1, End: base + 0x100}})
	if succs := g.ForcedSuccs(nil, 0); len(succs) != 0 {
		t.Errorf("adjacent extern: succs = %v, want []", succs)
	}

	// Non-contiguous extern (gap after the section): still impossible.
	g.SetExtern([]Range{{Start: base + 0x40, End: base + 0x100}})
	if succs := g.ForcedSuccs(nil, 0); len(succs) != 1 || succs[0] != -1 {
		t.Errorf("gapped extern: succs = %v, want [-1]", succs)
	}
}

// anchorsOf lists g's anchor sites by walking NextAnchor.
func anchorsOf(g *Graph) []int {
	var out []int
	for off := g.NextAnchor(0); off < g.Len(); off = g.NextAnchor(off + 1) {
		out = append(out, off)
	}
	return out
}

// TestAnchorSites: the anchor sites are exactly the valid direct calls,
// memory-indirect jumps and RIP-relative operands, scan-kernel fallbacks
// included, and any tiling of Decode marks the same sites as Build.
func TestAnchorSites(t *testing.T) {
	code := make([]byte, 3*ctxutil.CheckInterval+77)
	rand.New(rand.NewSource(5)).Read(code)
	// vmovsd xmm0, [rip+0]: VEX, so the scan kernel falls back to the
	// full decoder.
	copy(code[100:], []byte{0xc5, 0xfb, 0x10, 0x05, 0, 0, 0, 0})
	g := Build(code, 0x400000)
	if g.ScanFallbackCount() == 0 {
		t.Fatal("precondition: no scan fallback")
	}
	var want []int
	for off := range g.Info {
		e := &g.Info[off]
		if e.Valid() && (e.Flow == x86.FlowCall || e.MemBaseRIP() ||
			e.Flow == x86.FlowIndirectJump && e.HasMem()) {
			want = append(want, off)
		}
	}
	got := anchorsOf(g)
	if !slices.Equal(got, want) {
		t.Fatalf("anchor sites differ from the records: %d sites, want %d", len(got), len(want))
	}
	if !slices.Contains(got, 100) {
		t.Fatal("the VEX fallback decode at offset 100 is not an anchor site")
	}
	for _, cuts := range [][]int{{1}, {63, 64, 65}, {100, 4095, 4097, 8191}} {
		tg := New(code, 0x400000)
		from := 0
		for _, c := range append(cuts, len(code)) {
			tg.Decode(nil, from, c)
			from = c
		}
		if !slices.Equal(anchorsOf(tg), want) {
			t.Errorf("tiling %v marks different anchor sites", cuts)
		}
	}
	for _, c := range []struct{ off, want int }{
		{-5, want[0]}, {len(code), len(code)}, {len(code) + 100, len(code)},
		{want[len(want)-1], want[len(want)-1]}, {want[len(want)-1] + 1, len(code)},
	} {
		if got := g.NextAnchor(c.off); got != c.want {
			t.Errorf("NextAnchor(%d) = %d, want %d", c.off, got, c.want)
		}
	}
	if got := Build(nil, 0).NextAnchor(0); got != 0 {
		t.Errorf("empty graph: NextAnchor(0) = %d, want 0", got)
	}
}
