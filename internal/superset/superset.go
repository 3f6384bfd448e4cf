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
// the 16 bytes of properties the hot analyses actually read, and InstAt
// lazily re-decodes the full instruction at the few offsets cold paths
// (rewriting, listings, jump-table shape checks) inspect in detail.
//
// The package starts no goroutines. Build decodes serially; a caller
// that wants a parallel decode allocates the graph with New and runs
// Decode over disjoint ranges on its own scheduler (internal/core puts
// them on the request's work pool).
package superset

import (
	"context"
	"math/bits"
	"sort"
	"sync"
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

// Info flag bits (Info.Flags), re-exported so consumers keep their
// superset.Flag* spelling. The canonical definitions (and their docs)
// live next to the decoder in internal/x86.
const (
	FlagValid       = x86.FlagValid
	FlagRare        = x86.FlagRare
	FlagSeg         = x86.FlagSeg
	FlagNop         = x86.FlagNop
	FlagHasMem      = x86.FlagHasMem
	FlagHasImm      = x86.FlagHasImm
	FlagMemRIP      = x86.FlagMemRIP
	FlagMemResolved = x86.FlagMemResolved
	FlagTargetDelta = x86.FlagTargetDelta
	FlagMemDelta    = x86.FlagMemDelta
)

// Info is the packed per-offset decode record: 16 bytes covering
// everything the hot per-offset scans (viability, statistical scoring,
// behaviour penalties, hint pattern prefilters, the corrector) read.
// Anything else — operand shapes, immediates, register effects — is
// materialized on demand with Graph.InstAt.
//
// It is an alias for x86.Info: the definition lives beside the decoder
// so the batch x86.Scan kernel can emit records directly from its
// dispatch tables, without an import cycle or a copy.
type Info = x86.Info

// scanFallbackTotal counts offsets where the table-driven scan kernel
// bailed to the full decoder (VEX/EVEX escapes; see x86.Scan), across
// all graphs since process start. Exposed as the
// superset_scan_fallbacks_total metric so table-coverage regressions
// are visible in /metrics rather than silently eating the speedup.
var scanFallbackTotal atomic.Int64

// ScanFallbacks returns the cumulative scan-kernel fallback count.
func ScanFallbacks() int64 { return scanFallbackTotal.Load() }

// Graph is the superset disassembly of one text section. Graphs come
// only from New (or Build, which calls it): the side table and the
// anchor bitmap are sized there.
type Graph struct {
	Base uint64
	Code []byte

	// Info[i] is the packed decode record at offset i, 16 bytes per
	// section byte, filled by Decode for every offset; check
	// Info[i].Valid() (or Graph.Valid(i)) before using the other fields.
	Info []Info

	// extern lists other executable ranges of the binary: direct branches
	// landing there are legitimate (cross-section tail calls, PLT stubs)
	// rather than evidence of a misdecode. Kept sorted by Start and
	// merged disjoint by SetExtern so ExternTarget can binary-search —
	// it sits inside the corrector's canPlace/ForcedSuccs hot path.
	extern []Range

	// anchors holds one bit per offset, set by Decode for every anchor
	// site (see anchorSite): the offsets where a call-target, jump-table
	// or literal-pool match can start. NextAnchor walks it.
	anchors []uint64

	// dc caches recent full decodes behind InstAt (see instCache).
	dc instCache

	// scanFB counts this graph's scan-kernel fallbacks (see
	// ScanFallbacks). Atomic, since Decode ranges may run concurrently.
	scanFB atomic.Int64
}

// ScanFallbackCount returns the number of offsets of this graph that
// Decode filled through the scan kernel's general-decoder fallback rather
// than its table-driven fast path.
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
// result into the 16-byte side-table in the same pass via the x86.Scan
// length-only kernel. It runs serially on the calling goroutine; the
// pipeline instead splits Decode into ranges on its own work pool.
func Build(code []byte, base uint64) *Graph {
	g, _ := BuildContext(nil, code, base)
	return g
}

// BuildContext is Build with cooperative cancellation: New plus one
// Decode over the whole section. It returns (nil, ctx.Err()) once the
// context is done, so a cancelled request stops burning CPU within a few
// thousand decodes.
func BuildContext(ctx context.Context, code []byte, base uint64) (*Graph, error) {
	g := New(code, base)
	g.Decode(ctx, 0, len(code))
	if ctxutil.Cancelled(ctx) {
		return nil, ctxutil.Err(ctx)
	}
	return g, nil
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
		scanFallbackTotal.Add(int64(fallbacks))
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
func anchorSite(e *Info) bool {
	return e.Flow == x86.FlowCall || e.Flags&FlagMemRIP != 0 ||
		e.Flow == x86.FlowIndirectJump && e.Flags&FlagHasMem != 0
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
			if anchorSite(&info[i]) {
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
func (g *Graph) Valid(off int) bool { return g.At(off).Flags&FlagValid != 0 }

// decodeCacheSlots sizes the InstAt decode cache (direct-mapped by
// offset, so a power of two). 128 entries cover the working set of the
// dispatch-idiom and listing scans, which revisit a small neighbourhood
// of offsets, at ~17 KiB per graph.
const decodeCacheSlots = 128

// instCache is a small direct-mapped cache of materialized
// instructions, so hot InstAt consumers (jump-table shape checks, CFG
// details, listing/rewrite emission, the oracle) stop paying the lazy
// re-decode tax when they revisit offsets. Embedded by value in Graph:
// the zero value is ready to use, its backing arrays allocated on the
// first InstAt. Guarded by a mutex because analyses sharing one graph
// run concurrently; the lock is uncontended in the serial pipeline and
// far cheaper than a re-decode.
type instCache struct {
	mu    sync.Mutex
	tags  []int32    // offset+1; 0 = empty slot
	insts []x86.Inst // nil until the first InstAt
}

// Decode-cache hit counters, aggregated across graphs (the benchmark
// baseline records the hit rate; see DecodeCacheStats).
var dcHits, dcMisses atomic.Int64

// DecodeCacheStats returns the cumulative InstAt decode-cache hits and
// misses across all graphs since process start (or the last Reset).
func DecodeCacheStats() (hits, misses int64) {
	return dcHits.Load(), dcMisses.Load()
}

// ResetDecodeCacheStats zeroes the decode-cache counters (benchmarks
// measure per-run rates).
func ResetDecodeCacheStats() {
	dcHits.Store(0)
	dcMisses.Store(0)
}

// InstAt materializes the full decoded instruction at off, re-decoding
// the bytes through a small per-graph cache. Offsets without a valid
// decode return a zero instruction with Flow == FlowInvalid. This is the
// cold path: downstream consumers call it only at the offsets they
// inspect in detail (committed instructions, dispatch-idiom candidates,
// rewrite/listing emission), a tiny fraction of the superset — but those
// consumers revisit offsets, which the cache absorbs.
func (g *Graph) InstAt(off int) x86.Inst {
	if off < 0 || off >= len(g.Code) || !g.At(off).Valid() {
		return x86.Inst{Flow: x86.FlowInvalid}
	}
	c := &g.dc
	c.mu.Lock()
	if c.tags == nil {
		c.tags = make([]int32, decodeCacheSlots)
		c.insts = make([]x86.Inst, decodeCacheSlots)
	}
	slot := off & (decodeCacheSlots - 1)
	if c.tags[slot] == int32(off)+1 {
		inst := c.insts[slot]
		c.mu.Unlock()
		dcHits.Add(1)
		return inst
	}
	if x86.DecodeInto(&c.insts[slot], g.Code[off:], g.Base+uint64(off)) != nil {
		// Unreachable: Decode decoded these very bytes successfully.
		c.tags[slot] = 0
		c.mu.Unlock()
		return x86.Inst{Flow: x86.FlowInvalid}
	}
	c.tags[slot] = int32(off) + 1
	inst := c.insts[slot]
	c.mu.Unlock()
	dcMisses.Add(1)
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
	if e.Flags&FlagTargetDelta != 0 {
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
	switch e.Flow {
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
	const need = FlagValid | FlagMemResolved
	if e.Flags&need != need {
		return 0, false
	}
	if e.Flags&FlagMemDelta != 0 {
		return uint64(int64(g.Base) + int64(off) + int64(e.Delta)), true
	}
	inst := g.InstAt(off)
	return inst.MemAddr()
}

// ForcedSuccs appends to dst the offsets that MUST be instructions if off
// is an instruction: the fallthrough successor and the direct branch
// target. A direct branch leaving the section yields a -1 entry,
// signalling an impossible instruction (application code does not branch
// into nothing) — unless the target lies in a registered external
// executable range (cross-section tail call), in which case it imposes no
// local constraint and is omitted. A fallthrough ending exactly at the
// section boundary gets the same escape: if a registered external
// executable range begins right there (two adjacent text sections),
// execution legitimately continues into it, so no -1 is emitted.
func (g *Graph) ForcedSuccs(dst []int, off int) []int {
	e := g.At(off)
	if !e.Valid() {
		return dst
	}
	if e.Flow.HasFallthrough() {
		next := off + int(e.Len)
		if next < len(g.Code) {
			dst = append(dst, next)
		} else if end := g.Base + uint64(next); end < g.Base || !g.ExternTarget(end) {
			// end < Base: the section boundary sits at 2^64, so there is no
			// address for execution to continue at — never an extern match.
			dst = append(dst, -1)
		}
	}
	switch e.Flow {
	case x86.FlowJump, x86.FlowCondJump, x86.FlowCall:
		tgt, ok := g.target(off, e)
		if !ok {
			// Target arithmetic wrapped around the address space: an
			// impossible instruction, regardless of extern ranges.
			dst = append(dst, -1)
			return dst
		}
		if t := g.OffsetOf(tgt); t >= 0 {
			dst = append(dst, t)
		} else if !g.ExternTarget(tgt) {
			dst = append(dst, -1)
		}
	}
	return dst
}

// Occupies reports the byte range [off, off+len) of the decode at off.
func (g *Graph) Occupies(off int) (from, to int) {
	e := g.At(off)
	if !e.Valid() {
		return off, off
	}
	return off, off + int(e.Len)
}

// ValidCount returns the number of offsets with a valid decode (useful as
// a superset-density diagnostic).
func (g *Graph) ValidCount() int {
	n := 0
	for i := 0; i < g.Len(); i++ {
		if g.At(i).Flags&FlagValid != 0 {
			n++
		}
	}
	return n
}
