package superset

import (
	"testing"

	"probedis/internal/x86"
)

// TestAddressWraparound pins the modular-arithmetic behaviour of the
// address/offset conversions when Base+len overflows uint64 (a section
// mapped at the top of the address space). Before the fix, Contains
// compared addr < Base+len with the wrapped (tiny) sum, so every
// legitimate in-section address was reported outside; and target()
// happily followed branch displacements across the wrap, letting a
// "branch" to a tiny address resolve to an in-section offset or an
// extern range.
func TestAddressWraparound(t *testing.T) {
	const base = 0xFFFF_FFFF_FFFF_F000
	code := make([]byte, 0x1800) // Base+len wraps to 0x800
	for i := range code {
		code[i] = 0x90
	}
	g := Build(code, base)

	t.Run("contains", func(t *testing.T) {
		b := uint64(base) // run-time value: sums below wrap instead of failing to compile
		cases := []struct {
			addr uint64
			want bool
		}{
			{b, true},
			{b + 1, true},
			{b + 0xFFE, true},
			{b + 0xFFF, true},   // last byte below the wrap
			{b - 1, false},      // just below the section
			{b + 0x1800, false}, // past the end (wrapped to 0x800)
			{0, false},          // wrapped addresses are never legitimate,
			{0x7FF, false},      // even where section bytes nominally map
			{0x800, false},
		}
		for _, c := range cases {
			if got := g.Contains(c.addr); got != c.want {
				t.Errorf("Contains(%#x) = %v, want %v", c.addr, got, c.want)
			}
			wantOff := -1
			if c.want {
				wantOff = int(c.addr - base)
			}
			if got := g.OffsetOf(c.addr); got != wantOff {
				t.Errorf("OffsetOf(%#x) = %d, want %d", c.addr, got, wantOff)
			}
		}
	})

	t.Run("branch-across-wrap", func(t *testing.T) {
		// jmp rel8 near the top of the address space whose target wraps
		// past 0: must never resolve, not even via an extern range
		// registered at the wrapped address.
		wrap := make([]byte, 0x1000)
		for i := range wrap {
			wrap[i] = 0x90
		}
		wrap[0xFFE] = 0xEB // +0xFFE: jmp +0x10 -> target 0x10 (wrapped)
		wrap[0xFFF] = 0x10
		wg := Build(wrap, base)
		wg.SetExtern([]Range{{Start: 0x0, End: 0x1000}})
		off := 0xFFE
		if !wg.Valid(off) || wg.Info[off].Flow() != x86.FlowJump {
			t.Fatalf("precondition: +%#x should decode as a direct jmp", off)
		}
		if got := wg.TargetOff(off); got != -1 {
			t.Errorf("TargetOff(jmp across wrap) = %d, want -1", got)
		}
		if ft, tgt := wg.ForcedSuccs(off); ft != NoSucc || tgt != Escape {
			t.Errorf("ForcedSuccs(jmp across wrap) = (%d, %d), want (NoSucc, Escape)", ft, tgt)
		}
	})

	t.Run("backward-wrap", func(t *testing.T) {
		// A backward branch at a tiny base whose displacement underflows
		// past 0 wraps to the top of the address space: equally illegal.
		low := []byte{0x90, 0x90, 0xEB, 0xF0} // +2: jmp -16 -> 0xFFFF...F4
		lg := Build(low, 0x0)
		if got := lg.TargetOff(2); got != -1 {
			t.Errorf("TargetOff(backward wrap) = %d, want -1", got)
		}
	})

	t.Run("fallthrough-past-wrap", func(t *testing.T) {
		// The final instruction's fallthrough address wraps to 0; that is
		// an escape even when an extern range covers address 0.
		top := make([]byte, 0x1000)
		for i := range top {
			top[i] = 0x90
		}
		tg := Build(top, base)
		tg.SetExtern([]Range{{Start: 0x0, End: 0x1000}})
		if ft, tgt := tg.ForcedSuccs(0xFFF); ft != Escape || tgt != NoSucc {
			t.Errorf("ForcedSuccs(last nop, fallthrough wraps) = (%d, %d), want (Escape, NoSucc)", ft, tgt)
		}
	})

	t.Run("in-section-branches-still-work", func(t *testing.T) {
		// Branches that stay inside the wrapped-mapping section resolve
		// normally even though their absolute addresses are near 2^64.
		sec := make([]byte, 0x20)
		for i := range sec {
			sec[i] = 0x90
		}
		sec[0x00] = 0xEB // jmp +0x10 -> offset 0x12
		sec[0x01] = 0x10
		sec[0x12] = 0xEB // jmp -4 -> offset 0x10
		sec[0x13] = 0xFC
		sg := Build(sec, base)
		if got := sg.TargetOff(0x00); got != 0x12 {
			t.Errorf("forward TargetOff = %d, want 0x12", got)
		}
		if got := sg.TargetOff(0x12); got != 0x10 {
			t.Errorf("backward TargetOff = %d, want 0x10", got)
		}
	})
}

// FuzzWrapGraph drives the graph's address conversions at bases near the
// top of the address space, where Base+len overflows: for every offset,
// the address<->offset round trip must hold, and every resolved branch
// target must be a real in-section offset whose address did not cross
// the wrap.
func FuzzWrapGraph(f *testing.F) {
	f.Add([]byte{0xEB, 0x10, 0x90, 0xC3}, uint64(0xFFFF_FFFF_FFFF_F000))
	f.Add([]byte{0xEB, 0xF0, 0x90, 0xC3}, uint64(0xFFFF_FFFF_FFFF_FFFC))
	f.Add([]byte{0xE9, 0xFF, 0xFF, 0xFF, 0x7F}, uint64(0xFFFF_FFFF_0000_0000))
	f.Add([]byte{0xE8, 0x00, 0x00, 0x00, 0x80, 0x90}, uint64(0x10))
	f.Fuzz(func(t *testing.T, code []byte, base uint64) {
		if len(code) == 0 || len(code) > 1<<12 {
			t.Skip()
		}
		g := Build(code, base)
		for off := 0; off < g.Len(); off++ {
			addr := base + uint64(off)
			if addr >= base { // offset reachable without wrapping
				if !g.Contains(addr) {
					t.Fatalf("Contains(Base+%#x) = false", off)
				}
				if got := g.OffsetOf(addr); got != off {
					t.Fatalf("OffsetOf(Base+%#x) = %d", off, got)
				}
			} else if g.Contains(addr) {
				t.Fatalf("Contains(%#x) = true for wrapped offset %#x", addr, off)
			}
			if !g.Valid(off) {
				continue
			}
			if tgt := g.TargetOff(off); tgt != -1 {
				if tgt < 0 || tgt >= g.Len() {
					t.Fatalf("TargetOff(+%#x) = %d out of range", off, tgt)
				}
				tAddr := base + uint64(tgt)
				if (tAddr >= addr) != (tgt >= off) {
					t.Fatalf("TargetOff(+%#x) = %d crossed the wrap", off, tgt)
				}
			}
			ft, tgt := g.ForcedSuccs(off)
			for _, s := range [2]int{ft, tgt} {
				if s < NoSucc || s >= g.Len() {
					t.Fatalf("ForcedSuccs(+%#x) yielded %d", off, s)
				}
			}
		}
		checkStraight(t, g)
	})
}

// TestStraightLimit checks StraightLimit's bound and, through
// checkStraight, that LocalTarget decides ForcedSuccs' target below it,
// on nop-and-branch sections at the bottom of the address space, ending
// exactly at 2^64, and wrapping past it.
func TestStraightLimit(t *testing.T) {
	code := make([]byte, 0x40)
	for i := range code {
		code[i] = 0x90
	}
	code[0x10], code[0x11] = 0xEB, 0x80 // jmp -128: below offset 0
	// jmp rel32 0x7fffffff: the delta does not fit the record.
	copy(code[0x18:], []byte{0xE9, 0xFF, 0xFF, 0xFF, 0x7F})
	code[0x20], code[0x21] = 0xEB, 0x7F // jmp +127: past the end
	code[0x30], code[0x31] = 0x74, 0xF0 // je -16: in the section
	for _, c := range []struct {
		base uint64
		want int
	}{
		{0, 0x40 - x86.MaxInstLen},
		{0x1000, 0x40 - x86.MaxInstLen},
		{1<<64 - 0x40, 0x40 - x86.MaxInstLen}, // ends at 2^64
		{1<<64 - 0x20, 0},                     // wraps past 2^64
	} {
		g := Build(code, c.base)
		if g.Info[0x18].Delta != x86.DeltaRedecode {
			t.Fatalf("precondition: far jmp's Delta = %d, want DeltaRedecode", g.Info[0x18].Delta)
		}
		if lim, extern := g.StraightLimit(); lim != c.want || extern {
			t.Errorf("base %#x: StraightLimit = (%d, %v), want (%d, false)", c.base, lim, extern, c.want)
		}
		checkStraight(t, g)
		g.SetExtern([]Range{{Start: 0, End: 0x100}})
		if _, extern := g.StraightLimit(); !extern {
			t.Errorf("base %#x: StraightLimit reports no extern ranges", c.base)
		}
		checkStraight(t, g)
	}
	if lim, _ := Build(code[:4], 0x1000).StraightLimit(); lim != 0 {
		t.Errorf("4-byte section: StraightLimit = %d, want 0", lim)
	}
}

// checkStraight fails unless every valid record below g's StraightLimit
// has the forced successors the viability sweep reads off it: a
// fallthrough at off+Len, and for a direct branch, a target at
// LocalTarget's offset when that lies in the section, and otherwise never
// an offset, and an escape when no extern range is registered.
func checkStraight(t *testing.T, g *Graph) {
	t.Helper()
	lim, extern := g.StraightLimit()
	for off := 0; off < lim; off++ {
		e := g.Info[off]
		if !e.Valid() {
			continue
		}
		ft, tgt := g.ForcedSuccs(off)
		if e.Flow().HasFallthrough() && ft != off+e.Len() {
			t.Fatalf("+%#x: fallthrough %d below StraightLimit %d, want %d", off, ft, lim, off+e.Len())
		}
		if x86.DirectFlows>>e.Flow()&1 == 0 {
			continue
		}
		lt, in := g.LocalTarget(off, e)
		if in && tgt != lt || !in && tgt >= 0 || !in && !extern && tgt != Escape {
			t.Fatalf("+%#x: ForcedSuccs target %d, LocalTarget (%d, %v), extern %v", off, tgt, lt, in, extern)
		}
	}
}
