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
		var succs []int
		succs = wg.ForcedSuccs(succs, off)
		for _, s := range succs {
			if s != -1 {
				t.Errorf("ForcedSuccs(jmp across wrap) contains %d, want only escapes", s)
			}
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
		var succs []int
		succs = tg.ForcedSuccs(succs, 0xFFF)
		if len(succs) != 1 || succs[0] != -1 {
			t.Errorf("ForcedSuccs(last nop, fallthrough wraps) = %v, want [-1]", succs)
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
		var succs []int
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
			succs = g.ForcedSuccs(succs[:0], off)
			for _, s := range succs {
				if s < -1 || s >= g.Len() {
					t.Fatalf("ForcedSuccs(+%#x) yielded %d", off, s)
				}
			}
		}
	})
}
