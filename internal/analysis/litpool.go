package analysis

import (
	"probedis/internal/superset"
	"probedis/internal/x86"
)

// isFPLoadOp reports whether op loads floating-point/vector data from
// memory — the instruction class that references literal pools.
func isFPLoadOp(op x86.Op) bool {
	switch op {
	case x86.MOVUPS, x86.MOVAPS, x86.MOVLPS, x86.MOVHPS, x86.MOVD, x86.MOVQ,
		x86.MOVDQ, x86.SSEAR, x86.CVT, x86.COMIS, x86.X87, x86.PARITH,
		x86.PCMP, x86.PACK:
		return true
	}
	return false
}

// looksLikeDouble reports whether the 8 bytes at b[0:8] plausibly encode a
// float64 literal: a biased exponent in the range covering magnitudes
// ~1e-75..1e+76 (where virtually all program constants live), or zero.
func looksLikeDouble(b []byte) bool {
	exp := (uint16(b[7]&0x7f)<<4 | uint16(b[6])>>4)
	if exp == 0 {
		// Accept only true zero/denormal-zero patterns.
		for _, x := range b[:7] {
			if x != 0 {
				return false
			}
		}
		return true
	}
	return exp >= 0x300 && exp <= 0x4ff
}

// LiteralPoolHints proves embedded floating-point constant pools: a
// RIP-relative memory operand on an SSE/x87 instruction, or a RIP-relative
// lea whose register is then dereferenced by an SSE/x87 load, pins the
// referenced bytes as data. Every referencing instruction has a
// RIP-relative operand, so it is an anchor site of the graph, and the
// loop visits those alone.
func LiteralPoolHints(g *superset.Graph, viable []bool) []Hint {
	var hs []Hint
	for off := g.NextAnchor(0); off < g.Len(); off = g.NextAnchor(off + 1) {
		hs = literalPoolAt(g, viable, off, hs)
	}
	return hs
}

// literalPoolAt appends to hs the pool hint of the reference anchored at
// off, if there is one.
func literalPoolAt(g *superset.Graph, viable []bool, off int, hs []Hint) []Hint {
	// Both idioms start at a RIP-relative operand. The packed record
	// rules out most anchor sites before viability is read.
	e := g.At(off)
	if !e.Valid() || !e.HasMem() || !e.MemBaseRIP() || !isFPLoadOp(e.Op()) && e.Op() != x86.LEA || !viable[off] {
		return hs
	}

	// Direct rip-relative FP load: movsd xmm, [rip+disp].
	if isFPLoadOp(e.Op()) {
		if addr, ok := g.MemAddrAt(off); ok {
			hs = addPool(g, hs, g.OffsetOf(addr), 8)
		}
		return hs
	}

	// lea r, [rip+pool]; ... fpload [r] within a short chain.
	addr, ok := g.MemAddrAt(off)
	if !ok {
		return hs
	}
	poolOff := g.OffsetOf(addr)
	if poolOff < 0 {
		return hs
	}
	lea := g.InstAt(off)
	baseReg := lea.Writes
	p := off + e.Len()
	for step := 0; step < 6 && p < g.Len() && g.Valid(p); step++ {
		// Short chain (≤6 steps) only behind a rip-relative lea:
		// materializing each step stays off the hot path.
		ni := g.InstAt(p)
		if ni.HasMem && ni.Mem.Base != x86.RegNone &&
			ni.Mem.Base.Bit()&baseReg != 0 && ni.Mem.Index == x86.RegNone &&
			isFPLoadOp(ni.Op) {
			return addPool(g, hs, poolOff+int(ni.Mem.Disp), 8)
		}
		if ni.Writes&baseReg != 0 || !ni.Flow.HasFallthrough() {
			break
		}
		p += ni.Len
	}
	return hs
}

// addPool appends the hint proving the pool referenced at off: n bytes,
// extended across adjacent 8-byte words that look like floating-point
// constants (code references only some of a pool's literals) and
// backwards across the short zero run that aligns the pool.
func addPool(g *superset.Graph, hs []Hint, off, n int) []Hint {
	if off < 0 || off >= g.Len() {
		return hs
	}
	for off+n+8 <= g.Len() && looksLikeDouble(g.Code[off+n:]) {
		n += 8
	}
	for pad := 0; pad < 7 && off > 0 && g.Code[off-1] == 0; pad++ {
		off--
		n++
	}
	if off+n > g.Len() {
		n = g.Len() - off
	}
	return append(hs, Hint{Kind: HintData, Off: off, Len: n,
		Prio: PrioStrong, Score: float64(n), Src: "litpool"})
}
