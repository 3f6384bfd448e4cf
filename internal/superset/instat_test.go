package superset

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"probedis/internal/synth"
	"probedis/internal/x86"
)

// fuzzSeedInputs parses the []byte literal out of every Go fuzz-corpus
// seed file under testdata/fuzz/FuzzPipeline, so the packed-vs-eager
// comparison runs over the same inputs the pipeline fuzzer exercises.
func fuzzSeedInputs(t *testing.T) map[string][]byte {
	t.Helper()
	dir := filepath.Join("..", "..", "testdata", "fuzz", "FuzzPipeline")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fuzz seed corpus: %v", err)
	}
	out := map[string][]byte{}
	for _, ent := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(raw), "\n") {
			line = strings.TrimSpace(line)
			if !strings.HasPrefix(line, "[]byte(") || !strings.HasSuffix(line, ")") {
				continue
			}
			lit := strings.TrimSuffix(strings.TrimPrefix(line, "[]byte("), ")")
			s, err := strconv.Unquote(lit)
			if err != nil {
				t.Fatalf("%s: unquoting %q: %v", ent.Name(), lit, err)
			}
			out[ent.Name()] = []byte(s)
		}
	}
	if len(out) == 0 {
		t.Fatal("no fuzz seeds parsed")
	}
	return out
}

// checkGraphMatchesEagerDecode verifies, for every offset of g, that the
// packed side-table agrees field-by-field with a fresh full decode, and
// that InstAt materializes exactly that decode; outside the section it
// must report FlowInvalid.
func checkGraphMatchesEagerDecode(t *testing.T, g *Graph) {
	t.Helper()
	for _, off := range []int{-1, g.Len()} {
		if got := g.InstAt(off); got.Flow != x86.FlowInvalid {
			t.Fatalf("InstAt(%d) = %+v, want FlowInvalid", off, got)
		}
	}
	for off := range g.Code {
		inst, err := x86.Decode(g.Code[off:], g.Base+uint64(off))
		e := &g.Info[off]
		if err != nil {
			if e.Valid() {
				t.Fatalf("+%#x: eager decode invalid but packed entry valid: %+v", off, *e)
			}
			if got := g.InstAt(off); got.Flow != x86.FlowInvalid {
				t.Fatalf("+%#x: InstAt on invalid offset returned %+v", off, got)
			}
			continue
		}
		if !e.Valid() {
			t.Fatalf("+%#x: eager decode valid (%v) but packed entry invalid", off, inst.Op)
		}
		if *e != x86.PackLean(&inst) {
			t.Fatalf("+%#x: packed entry %+v != repack of eager decode %+v", off, *e, x86.PackLean(&inst))
		}
		if e.Len() != inst.Len || e.Flow() != inst.Flow || e.Op() != inst.Op ||
			e.Tok() != int(inst.TokenID()) || e.StackDelta() != inst.StackDelta {
			t.Fatalf("+%#x: packed fields %+v disagree with decode %+v", off, *e, inst)
		}
		_, resolved := inst.MemAddr()
		if e.Rare() != inst.Rare || e.IsNop() != inst.IsNop() ||
			e.HasMem() != inst.HasMem || e.HasImm() != inst.HasImm ||
			e.SegPrefix() != (inst.Prefix&x86.PrefixSeg != 0) ||
			e.MemBaseRIP() != (inst.HasMem && inst.Mem.Base == x86.RIP) ||
			e.MemResolved() != resolved {
			t.Fatalf("+%#x: packed flags %+v disagree with decode %+v", off, *e, inst)
		}
		if got := g.InstAt(off); got != inst {
			t.Fatalf("+%#x: InstAt = %+v, want eager decode %+v", off, got, inst)
		}
		// Delta-based accessors must match the materialized answers.
		switch inst.Flow {
		case x86.FlowJump, x86.FlowCondJump, x86.FlowCall:
			if tgt, _ := g.target(off, e); tgt != inst.Target {
				t.Fatalf("+%#x: packed target %#x != decode target %#x", off, tgt, inst.Target)
			}
		}
		wantAddr, wantOK := inst.MemAddr()
		if addr, ok := g.MemAddrAt(off); ok != wantOK || addr != wantAddr {
			t.Fatalf("+%#x: MemAddrAt = (%#x, %v), want (%#x, %v)", off, addr, ok, wantAddr, wantOK)
		}
	}
}

// TestInstAtMatchesEagerDecode: over the fuzz-seed corpus and a generated
// binary, every valid offset's packed record must equal the repack of a
// full re-decode (and InstAt must return that decode); invalid offsets,
// and the offsets just outside the section, must stay invalid.
func TestInstAtMatchesEagerDecode(t *testing.T) {
	for name, code := range fuzzSeedInputs(t) {
		name, code := name, code
		t.Run(name, func(t *testing.T) {
			checkGraphMatchesEagerDecode(t, Build(code, 0x401000))
		})
	}
	t.Run("synth", func(t *testing.T) {
		b, err := synth.Generate(synth.Config{Seed: 97, Profile: synth.ProfileComplex, NumFuncs: 25})
		if err != nil {
			t.Fatal(err)
		}
		checkGraphMatchesEagerDecode(t, Build(b.Code, b.Base))
	})
}

// TestDeltaRedecodeUsesInstAt pins the re-decode sentinel: a memory
// operand whose true self-relative delta is exactly -2^31 (mov eax, [0]
// at 0x80000000), one whose delta overflows int32, and a branch whose
// delta overflows int32 store x86.DeltaRedecode, and MemAddrAt and the
// branch target then come from InstAt with the same answer a full
// decode gives.
func TestDeltaRedecodeUsesInstAt(t *testing.T) {
	code := []byte{
		0x8b, 0x04, 0x25, 0x00, 0x00, 0x00, 0x00, // mov eax, [0]
		0xe9, 0xfd, 0xff, 0xff, 0x7f, // jmp rel32: len+disp > MaxInt32
		0x8b, 0x04, 0x25, 0x00, 0x00, 0x00, 0x90, // mov eax, [0xffffffff90000000]
	}
	g := Build(code, 0x80000000)
	for _, off := range []int{0, 7, 12} {
		if d := g.Info[off].Delta; d != x86.DeltaRedecode {
			t.Fatalf("+%d: Delta = %d, want the re-decode sentinel", off, d)
		}
	}
	for _, c := range []struct {
		off  int
		addr uint64
	}{{0, 0}, {12, 0xffffffff90000000}} {
		if addr, ok := g.MemAddrAt(c.off); addr != c.addr || !ok {
			t.Fatalf("MemAddrAt(%d) = (%#x, %v), want (%#x, true)", c.off, addr, ok, c.addr)
		}
	}
	checkGraphMatchesEagerDecode(t, g)
}

// TestSetExternNormalizes pins the sort+merge contract behind the
// binary-searched ExternTarget: overlapping, touching, unsorted and empty
// input ranges collapse into sorted disjoint ones, and membership answers
// match a linear scan of the original input.
func TestSetExternNormalizes(t *testing.T) {
	g := Build([]byte{0x90}, 0x1000)
	in := []Range{
		{Start: 0x5000, End: 0x5004},
		{Start: 0x2000, End: 0x2010},
		{Start: 0x200c, End: 0x2020}, // overlaps previous
		{Start: 0x2020, End: 0x2024}, // touches previous
		{Start: 0x7000, End: 0x7000}, // empty: dropped
	}
	orig := append([]Range(nil), in...)
	g.SetExtern(in)
	linear := func(addr uint64) bool {
		for _, r := range orig {
			if r.Contains(addr) {
				return true
			}
		}
		return false
	}
	for addr := uint64(0x1ff0); addr < 0x7010; addr++ {
		if got, want := g.ExternTarget(addr), linear(addr); got != want {
			t.Fatalf("ExternTarget(%#x) = %v, want %v", addr, got, want)
		}
	}
	if g.ExternTarget(0) || g.ExternTarget(^uint64(0)) {
		t.Error("extremes must not be extern")
	}
}
