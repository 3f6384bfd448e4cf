package analysis

import (
	"encoding/binary"
	"slices"

	"probedis/internal/superset"
	"probedis/internal/x86"
)

// JumpTable is a discovered jump table: a proven-data region plus the
// proven-code targets its entries dispatch to.
type JumpTable struct {
	Site    int // offset of the dispatching instruction sequence
	Table   int // offset of the first entry
	EntrySz int // 4 (PIC offsets) or 8 (absolute pointers)
	Entries int
	Targets []int // distinct, in-section target offsets, ascending
}

// maxTableEntries bounds table scanning.
const maxTableEntries = 1024

// FindJumpTables recognises the three switch-dispatch idioms compilers
// emit and validates their tables entry-by-entry against viability:
//
//  1. jmp [table + idx*8]            (absolute table, non-PIC)
//  2. lea r,[rip+table]; mov r2,[r+idx*8]; jmp r2          (absolute)
//  3. lea r,[rip+table]; movsxd r2,[r+idx*4]; add r2,r; jmp r2 (PIC)
//
// A validated table proves its bytes are data and its targets are code.
func FindJumpTables(g *superset.Graph, viable []bool) []JumpTable {
	return FindJumpTablesRange(g, viable, 0, g.Len(), nil)
}

// FindJumpTablesRange is FindJumpTables restricted to dispatch sites
// anchored in [from, to), appending to dst. Only the anchor is bounded:
// the dispatch chain, the bounds-check lookback and the table scan all
// read the graph globally, so a table whose parts straddle a shard seam
// is recovered identically by whichever shard owns its anchor —
// concatenating shard outputs in shard order reproduces FindJumpTables'
// sequence verbatim. Every dispatch anchor (a memory-indirect jump or a
// RIP-relative lea) is an anchor site of the graph, so the loop visits
// those alone.
func FindJumpTablesRange(g *superset.Graph, viable []bool, from, to int, dst []JumpTable) []JumpTable {
	out := dst
	for off := g.NextAnchor(from); off < to; off = g.NextAnchor(off + 1) {
		if jt, ok := jumpTableAt(g, viable, off); ok {
			out = append(out, jt)
		}
	}
	return out
}

// jumpTableAt matches the dispatch idioms anchored at off.
func jumpTableAt(g *superset.Graph, viable []bool, off int) (JumpTable, bool) {
	// Idiom 1 starts at a memory-indirect jump, idioms 2 and 3 at a
	// RIP-relative lea. The packed record rules out most anchor sites
	// before viability is read.
	e := g.At(off)
	ijmp := e.Flow == x86.FlowIndirectJump && e.HasMem()
	ripLea := e.Op == x86.LEA && e.HasMem() && e.MemBaseRIP()
	if !e.Valid() || !ijmp && !ripLea || !viable[off] {
		return JumpTable{}, false
	}

	// Idiom 1: indirect jmp with scaled-index, no base, abs32 disp. The
	// operand shape needs the materialized instruction.
	if ijmp {
		inst := g.InstAt(off)
		if inst.Mem.Index != x86.RegNone && inst.Mem.Scale == 8 &&
			inst.Mem.Base == x86.RegNone {
			if tbl := g.OffsetOf(uint64(inst.Mem.Disp)); tbl >= 0 {
				return scanTable(g, viable, off, tbl, 8)
			}
		}
		return JumpTable{}, false
	}

	// Idioms 2 and 3: the lea loads the table address.
	addr, ok := g.MemAddrAt(off)
	if !ok {
		return JumpTable{}, false
	}
	tbl := g.OffsetOf(addr)
	if tbl < 0 {
		return JumpTable{}, false
	}
	lea := g.InstAt(off)
	base := lea.Writes // the register holding the table address
	return matchLeaDispatch(g, viable, off, tbl, base)
}

// matchLeaDispatch walks the chain after a lea to find the scaled load and
// the indirect jump through the loaded register.
func matchLeaDispatch(g *superset.Graph, viable []bool, leaOff, tbl int, baseReg uint32) (JumpTable, bool) {
	off := leaOff + int(g.At(leaOff).Len)
	var loadedReg uint32
	entrySz := 0
	for step := 0; step < 8 && off < g.Len() && g.Valid(off); step++ {
		// At most 8 steps per lea candidate: materializing each is cheap.
		inst := g.InstAt(off)
		switch {
		case entrySz == 0 && inst.HasMem && inst.Mem.Base != x86.RegNone &&
			inst.Mem.Base.Bit()&baseReg != 0 && inst.Mem.Index != x86.RegNone:
			switch {
			case inst.Op == x86.MOV && inst.Mem.Scale == 8:
				entrySz = 8
				loadedReg = inst.Writes
			case inst.Op == x86.MOVSXD && inst.Mem.Scale == 4:
				entrySz = 4
				loadedReg = inst.Writes
			}
		case entrySz == 4 && inst.Op == x86.ADD &&
			inst.Writes&loadedReg != 0 && inst.Reads&baseReg != 0:
			// add target, base: keep tracking the same register.
		case entrySz != 0 && inst.Flow == x86.FlowIndirectJump && !inst.HasMem &&
			inst.Reads&loadedReg != 0:
			return scanTable(g, viable, leaOff, tbl, entrySz)
		}
		if !inst.Flow.HasFallthrough() {
			break
		}
		off += inst.Len
	}
	return JumpTable{}, false
}

// boundFrom looks for the bounds check guarding a dispatch at site: a
// `cmp reg, imm` shortly before it whose fallthrough chain reaches site.
// Returns the entry count (imm+1), or maxTableEntries when not found.
func boundFrom(g *superset.Graph, site int) int {
	lo := site - 24
	if lo < 0 {
		lo = 0
	}
	for o := lo; o < site; o++ {
		e := g.At(o)
		if !e.Valid() || e.Op != x86.CMP || !e.HasImm() {
			continue
		}
		inst := g.InstAt(o) // immediate value lives only on the full decode
		if inst.Imm < 0 || inst.Imm >= maxTableEntries {
			continue
		}
		// Does the chain from o reach site?
		p := o
		for step := 0; step < 6 && p < site; step++ {
			if !g.Valid(p) || !g.At(p).Flow.HasFallthrough() {
				p = -1
				break
			}
			p += int(g.At(p).Len)
		}
		if p == site {
			return int(inst.Imm) + 1
		}
	}
	return maxTableEntries
}

// scanTable validates the table at tbl entry by entry: entrySz 8 reads
// absolute pointers, entrySz 4 PIC offsets relative to tbl. It counts
// the valid entries, up to the guarding bounds check, and accepts a
// table of two or more; only then does it collect the targets, sorted
// and distinct, into one slice.
func scanTable(g *superset.Graph, viable []bool, site, tbl, entrySz int) (JumpTable, bool) {
	jt := JumpTable{Site: site, Table: tbl, EntrySz: entrySz}
	bound := boundFrom(g, site)
	for jt.Entries < bound && entryTarget(g, viable, tbl, jt.Entries, entrySz) >= 0 {
		jt.Entries++
	}
	if jt.Entries < 2 {
		return jt, false
	}
	jt.Targets = make([]int, jt.Entries)
	for i := range jt.Targets {
		jt.Targets[i] = entryTarget(g, viable, tbl, i, entrySz)
	}
	slices.Sort(jt.Targets)
	jt.Targets = slices.Compact(jt.Targets)
	return jt, true
}

// entryTarget decodes entry i of the table at tbl to its target offset,
// or returns -1 when the entry runs past the section or its target is
// outside the section or not viable. A zero PIC offset (a table pointing
// at itself) is never a target.
func entryTarget(g *superset.Graph, viable []bool, tbl, i, entrySz int) int {
	at := tbl + i*entrySz
	if at+entrySz > g.Len() {
		return -1
	}
	var t int
	if entrySz == 8 {
		t = g.OffsetOf(binary.LittleEndian.Uint64(g.Code[at:]))
	} else {
		v := int(int32(binary.LittleEndian.Uint32(g.Code[at:])))
		if v == 0 {
			return -1
		}
		t = tbl + v
	}
	if t < 0 || t >= g.Len() || !viable[t] {
		return -1
	}
	return t
}

// JumpTableHints converts discovered tables into proof-priority hints.
func JumpTableHints(tables []JumpTable) []Hint {
	n := 0
	for _, jt := range tables {
		n += 2 + len(jt.Targets)
	}
	hs := make([]Hint, 0, n)
	for _, jt := range tables {
		hs = append(hs, Hint{
			Kind: HintData, Off: jt.Table, Len: jt.Entries * jt.EntrySz,
			Prio: PrioProof, Score: float64(jt.Entries), Src: "jumptable",
		})
		hs = append(hs, Hint{
			Kind: HintCode, Off: jt.Site,
			Prio: PrioProof, Score: float64(jt.Entries), Src: "jumptable-site",
		})
		for _, t := range jt.Targets {
			hs = append(hs, Hint{
				Kind: HintCode, Off: t,
				Prio: PrioProof, Score: float64(jt.Entries), Src: "jumptable-target",
			})
		}
	}
	return hs
}
