// Package superset implements superset (exhaustive) disassembly: decoding a
// candidate instruction at every byte offset of a text section. The
// resulting graph — each offset's decode result plus its forced successor
// edges — is the substrate every downstream analysis and the error
// corrector operate on.
//
// The per-offset decode result is stored packed (see Info): a full
// x86.Inst is ~128 bytes and the superset needs one record per byte, so
// storing instructions eagerly costs >100x the section size and turns
// every downstream scan into a cache-miss parade. Instead Decode keeps
// the 8 bytes of properties the hot analyses actually read, and InstAt
// re-decodes the full instruction at the few offsets cold paths (the
// jump-table and literal-pool shape checks, the rewriter and the
// x86.DeltaRedecode fallbacks) inspect in detail.
//
// Once decoded, a graph is read-only: it holds no cache, no lock and no
// process-wide state. The package starts no goroutines. Build decodes
// serially; a caller that wants a parallel decode allocates the graph
// with New and runs Decode over disjoint ranges on its own scheduler
// (internal/core puts them on the request's work pool).
package superset

import (
	"context"
	"math/bits"
	"sort"
	"sync/atomic"

	"probedis/internal/ctxutil"
	"probedis/internal/x86"
)

// Range is a half-open virtual address range [Start, End).
type Range struct {
	Start, End uint64
}

// Contains reports whether addr falls in the range.
func (r Range) Contains(addr uint64) bool { return addr >= r.Start && addr < r.End }

// Info is the packed per-offset decode record: 8 bytes covering
// everything the hot per-offset scans (viability, statistical scoring,
// behaviour penalties, hint pattern prefilters, the corrector) read.
// Anything else — operand shapes, immediates, register effects — is
// materialized on demand with Graph.InstAt.
//
// It is an alias for x86.Info: the definition lives beside the decoder
// so the batch x86.Scan kernel can emit records directly from its
// dispatch tables, without an import cycle or a copy.
type Info = x86.Info

// Graph is the superset disassembly of one text section. Graphs come
// only from New (or Build, which calls it): the side table and the
// anchor bitmap are sized there.
type Graph struct {
	Base uint64
	Code []byte

	// Info[i] is the packed decode record at offset i, 8 bytes per
	// section byte, filled by Decode for every offset; check
	// Info[i].Valid() (or Graph.Valid(i)) before using the other fields.
	Info []Info

	// extern lists other executable ranges of the binary: direct branches
	// landing there are legitimate (cross-section tail calls, PLT stubs)
	// rather than evidence of a misdecode. Kept sorted by Start and
	// merged disjoint by SetExtern so ExternTarget can binary-search —
	// it sits inside ForcedSuccs, which the corrector calls per placement.
	extern []Range

	// anchors holds one bit per offset, set by Decode for every anchor
	// site (see anchorSite): the offsets where a call-target, jump-table
	// or literal-pool match can start. NextAnchor walks it.
	anchors []uint64

	// scanFB counts this graph's scan-kernel fallbacks (see
	// ScanFallbackCount). Atomic, since Decode ranges may run
	// concurrently.
	scanFB atomic.Int64
}

// ScanFallbackCount returns the number of offsets of this graph that
// Decode filled through the scan kernel's general-decoder fallback (the
// VEX/EVEX escapes; see x86.Scan) rather than its table-driven fast
// path. The pipeline reports it as the superset span's scan_fallbacks
// counter, so a table-coverage regression shows rather than silently
// eating the kernel's speedup.
func (g *Graph) ScanFallbackCount() int64 { return g.scanFB.Load() }

// SetExtern registers additional executable ranges (see Graph.extern).
// The input is copied, sorted and merged into disjoint ascending ranges.
func (g *Graph) SetExtern(ranges []Range) {
	norm := make([]Range, 0, len(ranges))
	for _, r := range ranges {
		if r.Start < r.End {
			norm = append(norm, r)
		}
	}
	sort.Slice(norm, func(i, j int) bool { return norm[i].Start < norm[j].Start })
	merged := norm[:0]
	for _, r := range norm {
		if n := len(merged); n > 0 && r.Start <= merged[n-1].End {
			if r.End > merged[n-1].End {
				merged[n-1].End = r.End
			}
			continue
		}
		merged = append(merged, r)
	}
	g.extern = merged
}

// ExternTarget reports whether addr lies in a registered external
// executable range. The ranges are sorted and disjoint (SetExtern), so
// this is a binary search for the last range starting at or before addr.
func (g *Graph) ExternTarget(addr uint64) bool {
	lo, hi := 0, len(g.extern)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if g.extern[mid].Start <= addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo > 0 && addr < g.extern[lo-1].End
}

// Build decodes an instruction at every offset of code, packing each
// result into the 8-byte side-table in the same pass via the x86.Scan
// length-only kernel: New plus one Decode over the whole section. It
// runs serially on the calling goroutine; the pipeline instead splits
// Decode into ranges on its own work pool.
func Build(code []byte, base uint64) *Graph {
	g := New(code, base)
	g.Decode(nil, 0, len(code))
	return g
}

// New returns the graph of code with its side table and anchor bitmap
// allocated but not yet decoded: every offset reads as invalid, and as
// no anchor, until Decode fills it.
func New(code []byte, base uint64) *Graph {
	return &Graph{
		Base: base, Code: code,
		Info:    make([]Info, len(code)),
		anchors: make([]uint64, (len(code)+63)/64),
	}
}

// Decode fills g.Info and the anchor bitmap over offsets [from, to)
// through the x86.Scan table-driven kernel. Offsets decode
// independently, so disjoint ranges may be decoded concurrently, and any
// tiling yields the same table and bitmap as one whole-section pass. ctx
// is polled every ctxutil.CheckInterval offsets, outside the per-offset
// loop; once it is done Decode returns with the rest of the range
// unfilled, and the caller must check ctx and discard the graph.
func (g *Graph) Decode(ctx context.Context, from, to int) {
	fallbacks := 0
	for off := from; off < to; {
		// Chunks end on multiples of 64, so only the range's own first and
		// last bitmap words can be shared with a neighbouring range.
		chunkEnd := min((off+ctxutil.CheckInterval)&^63, to)
		fallbacks += x86.Scan(g.Info[off:chunkEnd], g.Code, g.Base, off, chunkEnd)
		g.markAnchors(off, chunkEnd)
		off = chunkEnd
		if off < to && ctxutil.Cancelled(ctx) {
			break
		}
	}
	if fallbacks != 0 {
		g.scanFB.Add(int64(fallbacks))
	}
}

// anchorSite reports whether the decoded record e can start a
// call-target, jump-table or literal-pool match: a direct call, a
// memory-indirect jump (jump-table idiom 1) or an instruction with a
// RIP-relative operand (the lea of idioms 2 and 3, and every literal-pool
// reference). It reads the final record, so scan-kernel fallbacks count
// like any other decode. An invalid offset holds the zero record
// (FlowSeq, no flags), which never matches, so validity needs no test of
// its own.
func anchorSite(e Info) bool {
	flow := e.Flow()
	return flow == x86.FlowCall || e.MemBaseRIP() ||
		flow == x86.FlowIndirectJump && e.HasMem()
}

// markAnchors sets the anchor bits of the decoded offsets [from, to). A
// bitmap word the range covers whole belongs to this call alone and is
// stored plainly; a word it covers only in part may be shared with a
// concurrent Decode of the neighbouring range, so its bits are merged in
// with a CompareAndSwap loop.
func (g *Graph) markAnchors(from, to int) {
	for w := from >> 6; w<<6 < to; w++ {
		lo, hi := max(w<<6, from), min(w<<6+64, to)
		var word uint64
		info := g.Info[lo:hi]
		for i := range info {
			if anchorSite(info[i]) {
				word |= 1 << ((lo + i) & 63)
			}
		}
		if hi-lo == 64 {
			g.anchors[w] = word
			continue
		}
		for p := &g.anchors[w]; word != 0; {
			old := atomic.LoadUint64(p)
			if atomic.CompareAndSwapUint64(p, old, old|word) {
				break
			}
		}
	}
}

// NextAnchor returns the first anchor site at or after off (see
// anchorSite), or Len() when there is none. Walking the sites of
// [from, to) is
//
//	for off := g.NextAnchor(from); off < to; off = g.NextAnchor(off + 1)
func (g *Graph) NextAnchor(off int) int {
	off = max(off, 0)
	w := off >> 6
	if w >= len(g.anchors) {
		return len(g.Code)
	}
	word := g.anchors[w] &^ (1<<(off&63) - 1)
	for word == 0 {
		if w++; w == len(g.anchors) {
			return len(g.Code)
		}
		word = g.anchors[w]
	}
	return w<<6 + bits.TrailingZeros64(word)
}

// Len returns the section size.
func (g *Graph) Len() int { return len(g.Code) }

// At returns the packed decode record at offset off: a pointer into the
// Info side table, so a read never allocates. Callers must not write
// through it.
func (g *Graph) At(off int) *Info { return &g.Info[off] }

// Valid reports whether offset off decodes to a valid instruction that
// fits within the section.
func (g *Graph) Valid(off int) bool { return g.Info[off].Valid() }

// DecodeCacheStats reports (0, 0): InstAt no longer caches decodes.
//
// Deprecated: kept only for the benchmark's replay, which still reads
// it; it goes when that replay does.
func DecodeCacheStats() (hits, misses int64) { return 0, 0 }

// InstAt materializes the full decoded instruction at off by re-decoding
// its bytes. Offsets without a valid decode return a zero instruction
// with Flow == FlowInvalid. This is the cold path: downstream consumers
// call it only at the offsets they inspect in detail (committed
// instructions, dispatch-idiom candidates, rewrite emission), a tiny
// fraction of the superset.
func (g *Graph) InstAt(off int) x86.Inst {
	var inst x86.Inst
	if off < 0 || off >= len(g.Code) || !g.At(off).Valid() ||
		x86.DecodeInto(&inst, g.Code[off:], g.Base+uint64(off)) != nil {
		return x86.Inst{Flow: x86.FlowInvalid}
	}
	return inst
}

// Contains reports whether addr falls inside the section. Computed as an
// offset comparison (addr-Base < len), never as Base+len: for sections
// ending near the top of the address space, Base+len(Code) overflows
// uint64 and the naive form either rejects every in-section address or
// accepts wrapped-around ones.
func (g *Graph) Contains(addr uint64) bool {
	return addr >= g.Base && addr-g.Base < uint64(len(g.Code))
}

// OffsetOf converts a virtual address to a section offset (-1 if outside).
func (g *Graph) OffsetOf(addr uint64) int {
	if !g.Contains(addr) {
		return -1
	}
	return int(addr - g.Base)
}

// target returns the absolute target address of the direct branch at off.
// Callers must have checked that e is valid with a direct-branch flow.
// ok is false when the displacement arithmetic wrapped around the 64-bit
// address space: a branch "past the wrap" is never a legitimate local
// target and must not be legitimized by an extern range it happens to
// wrap into.
func (g *Graph) target(off int, e *Info) (tgt uint64, ok bool) {
	src := g.Base + uint64(off)
	if e.Delta != x86.DeltaRedecode {
		tgt = src + uint64(int64(e.Delta))
	} else {
		// Displacement too wide for the packed delta: materialize.
		tgt = g.InstAt(off).Target
	}
	// Branch reach is far below 2^63, so the modular difference recovers
	// the true signed displacement; the unsigned comparison then detects
	// whether the addition wrapped (d > 0 must move the target up).
	d := int64(tgt - src)
	if d >= 0 {
		return tgt, tgt >= src
	}
	return tgt, tgt <= src
}

// TargetOff returns the section offset of a direct branch target, or -1
// (outside the section, or wrapped around the address space).
func (g *Graph) TargetOff(off int) int {
	e := g.At(off)
	if !e.Valid() {
		return -1
	}
	switch e.Flow() {
	case x86.FlowJump, x86.FlowCondJump, x86.FlowCall:
		if tgt, ok := g.target(off, e); ok {
			return g.OffsetOf(tgt)
		}
	}
	return -1
}

// MemAddrAt resolves the address of a RIP-relative or absolute memory
// operand at off (mirrors x86.Inst.MemAddr on the packed table). ok is
// false for invalid offsets and operands that depend on a data register.
func (g *Graph) MemAddrAt(off int) (addr uint64, ok bool) {
	e := g.At(off)
	if !e.Valid() || !e.MemResolved() {
		return 0, false
	}
	if e.Delta != x86.DeltaRedecode {
		return uint64(int64(g.Base) + int64(off) + int64(e.Delta)), true
	}
	inst := g.InstAt(off)
	return inst.MemAddr()
}

// Escape and NoSucc are the values ForcedSuccs returns besides section
// offsets.
const (
	// Escape is a forced successor outside the section and outside every
	// registered extern range, or one whose address wraps around 2^64:
	// an instruction with one cannot execute.
	Escape = -1
	// NoSucc is no successor: the flow has none of that kind, or it
	// continues into a registered extern range, which imposes no local
	// constraint.
	NoSucc = -2
)

// ForcedSuccs returns the offsets that MUST be instructions if off is an
// instruction: ft, the fallthrough successor, then tgt, the direct branch
// target, each a section offset, Escape or NoSucc. An invalid offset has
// neither. A direct branch leaving the section escapes (application code
// does not branch into nothing) unless the target lies in a registered
// external executable range (a cross-section tail call). A fallthrough
// ending exactly at the section boundary gets the same exemption when an
// extern range begins right there (two adjacent text sections). An
// address that wraps around the address space always escapes.
func (g *Graph) ForcedSuccs(off int) (ft, tgt int) {
	ft, tgt = NoSucc, NoSucc
	e := g.At(off)
	if !e.Valid() {
		return ft, tgt
	}
	flow := e.Flow()
	if flow.HasFallthrough() {
		if ft = off + e.Len(); ft == len(g.Code) {
			// end < Base: the section boundary sits at 2^64, so there is
			// no address for execution to continue at.
			if end := g.Base + uint64(ft); end < g.Base {
				ft = Escape
			} else {
				ft = g.outside(end)
			}
		}
	}
	switch flow {
	case x86.FlowJump, x86.FlowCondJump, x86.FlowCall:
		if addr, ok := g.target(off, e); !ok {
			tgt = Escape
		} else if tgt = g.OffsetOf(addr); tgt < 0 {
			tgt = g.outside(addr)
		}
	}
	return ft, tgt
}

// outside classifies a successor address outside the section that did
// not wrap: NoSucc in a registered extern range, Escape elsewhere.
func (g *Graph) outside(addr uint64) int {
	if g.ExternTarget(addr) {
		return NoSucc
	}
	return Escape
}

// StraightLimit returns the offset below which a descending sweep can
// read ForcedSuccs off the packed record with arithmetic alone, and
// whether extern ranges are registered. Below it every fallthrough lands
// in the section, since an instruction is at most x86.MaxInstLen bytes
// long. It is 0 for a section whose addresses wrap past 2^64 and for one
// longer than 2^31 bytes, so LocalTarget decides every direct target
// below it.
func (g *Graph) StraightLimit() (lim int, extern bool) {
	n := len(g.Code)
	if uint64(n) > 1<<31 || n > 0 && g.Base+uint64(n-1) < g.Base {
		return 0, len(g.extern) > 0
	}
	return max(n-x86.MaxInstLen, 0), len(g.extern) > 0
}

// LocalTarget returns t = off+e.Delta, the offset e's packed delta names,
// and whether t lies in [0, Len()), with one unsigned comparison. Below
// StraightLimit it is the direct branch's target in ForcedSuccs without a
// branch: t when in holds; otherwise the target lies outside the section,
// and so escapes when no extern range is registered. No wrap test is
// needed there, since an address that wraps past 2^64 or below 0 lands
// outside [0, Len()) as an offset too. Nor is an x86.DeltaRedecode test,
// since the section is at most 2^31 bytes long: such a record names
// off-2^31, below 0, and its true target lies 2^31 bytes or more away,
// outside the section as well.
func (g *Graph) LocalTarget(off int, e Info) (t int, in bool) {
	t = off + int(e.Delta)
	return t, uint(t) < uint(len(g.Code))
}

// Occupies reports the byte range [off, off+len) of the decode at off.
func (g *Graph) Occupies(off int) (from, to int) {
	e := g.At(off)
	if !e.Valid() {
		return off, off
	}
	return off, off + e.Len()
}

// ValidCount returns the number of offsets with a valid decode (useful as
// a superset-density diagnostic).
func (g *Graph) ValidCount() int {
	n := 0
	for i := 0; i < g.Len(); i++ {
		if g.Valid(i) {
			n++
		}
	}
	return n
}
