// Package superset implements superset (exhaustive) disassembly: decoding a
// candidate instruction at every byte offset of a text section. The
// resulting graph — each offset's decode result plus its forced successor
// edges — is the substrate every downstream analysis and the error
// corrector operate on.
//
// The per-offset decode result is stored packed (see Info): a full
// x86.Inst is ~128 bytes and the superset needs one record per byte, so
// storing instructions eagerly costs >100x the section size and turns
// every downstream scan into a cache-miss parade. Instead Build keeps the
// 16 bytes of properties the hot analyses actually read, and InstAt
// lazily re-decodes the full instruction at the few offsets cold paths
// (rewriting, listings, jump-table shape checks) inspect in detail.
package superset

import (
	"context"
	"runtime"
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

// Graph is the superset disassembly of one text section.
type Graph struct {
	Base uint64
	Code []byte

	// Info[i] is the packed decode record at offset i; check
	// Info[i].Valid() (or Graph.Valid(i)) before using the other fields.
	// Nil on lazily built graphs (BuildLazy) — all pipeline reads go
	// through At, which serves both backends.
	Info []Info

	// lazy is the windowed on-demand backend (see BuildLazy); nil for
	// eagerly built graphs, whose At reduces to an Info index.
	lazy *lazyInfo

	// extern lists other executable ranges of the binary: direct branches
	// landing there are legitimate (cross-section tail calls, PLT stubs)
	// rather than evidence of a misdecode. Kept sorted by Start and
	// merged disjoint by SetExtern so ExternTarget can binary-search —
	// it sits inside the corrector's canPlace/ForcedSuccs hot path.
	extern []Range

	// dc caches recent full decodes behind InstAt (see instCache). Value
	// field, so zero-value Graphs built by struct literal keep working.
	dc instCache

	// scanFB counts this graph's scan-kernel fallbacks (see ScanFallbacks).
	scanFB atomic.Int64
}

// A BuildOption tunes graph construction (Build, BuildContext, BuildLazy).
type BuildOption func(*Graph)

// WithDecodeCacheSlots sets the InstAt decode-cache slot count for the
// graph being built. n is rounded up to a power of two and clamped to
// [minDecodeCacheSlots, maxDecodeCacheSlots]; n <= 0 keeps the default
// (defaultDecodeCacheSlots). Callers whose InstAt working set scales
// with the section — jump-table shape checks, listing emission over big
// sections — can size the cache accordingly, e.g. len(code)/256 slots.
func WithDecodeCacheSlots(n int) BuildOption {
	return func(g *Graph) { g.dc.slots = clampCacheSlots(n) }
}

// ScanFallbackCount returns the number of offsets of this graph that
// were filled through the scan kernel's DecodeLeanInto fallback rather
// than its table-driven fast path (lazy graphs accumulate as blocks
// fault in and as point reads decode single offsets).
func (g *Graph) ScanFallbackCount() int64 { return g.scanFB.Load() }

// addScanFallbacks folds a Scan call's fallback count into the graph's
// and the process-wide counters.
func (g *Graph) addScanFallbacks(n int) {
	if n != 0 {
		g.scanFB.Add(int64(n))
		scanFallbackTotal.Add(int64(n))
	}
}

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
// length-only kernel. Decoding at each offset is independent, so large
// sections are decoded in parallel; the result is deterministic.
func Build(code []byte, base uint64, opts ...BuildOption) *Graph {
	g, _ := BuildContext(nil, code, base, opts...)
	return g
}

// BuildContext is Build with cooperative cancellation: the decode loop
// polls ctx every ctxutil.CheckInterval offsets (per worker on the
// parallel path) and returns (nil, ctx.Err()) once the context is done,
// so a cancelled request stops burning CPU within a few thousand decodes.
// The poll sits outside the per-offset loop — the nil-ctx path (what
// Build uses) runs the exact pre-cancellation instruction sequence.
func BuildContext(ctx context.Context, code []byte, base uint64, opts ...BuildOption) (*Graph, error) {
	g := &Graph{
		Base: base,
		Code: code,
		Info: make([]Info, len(code)),
	}
	for _, opt := range opts {
		opt(g)
	}
	// decodeRange is a top-level function (not a closure) and each
	// branch declares its own stop flag, so the serial path allocates
	// nothing beyond the Graph itself: the flag only escapes to the
	// heap on the parallel path, where goroutine closures capture it.
	const parallelThreshold = 1 << 14
	workers := runtime.GOMAXPROCS(0)
	cancelled := false
	if len(code) < parallelThreshold || workers == 1 {
		var stop atomic.Bool
		decodeRange(ctx, g, &stop, 0, len(code))
		cancelled = stop.Load()
	} else {
		// stop fans one worker's cancellation observation out to its
		// peers: they stop at their own next checkpoint without
		// touching the (possibly contended) context again.
		var stop atomic.Bool
		var wg sync.WaitGroup
		chunk := (len(code) + workers - 1) / workers
		for from := 0; from < len(code); from += chunk {
			to := from + chunk
			if to > len(code) {
				to = len(code)
			}
			wg.Add(1)
			go func(a, b int) {
				defer wg.Done()
				decodeRange(ctx, g, &stop, a, b)
			}(from, to)
		}
		wg.Wait()
		cancelled = stop.Load()
	}
	if cancelled || ctxutil.Cancelled(ctx) {
		return nil, ctxutil.Err(ctx)
	}
	return g, nil
}

// decodeRange decodes offsets [from, to) into g.Info through the
// x86.Scan table-driven kernel, polling ctx (and the shared stop flag)
// every ctxutil.CheckInterval offsets — one Scan call per checkpoint
// chunk, so cancellation latency is unchanged from the per-offset loop
// it replaced.
func decodeRange(ctx context.Context, g *Graph, stop *atomic.Bool, from, to int) {
	code, base := g.Code, g.Base
	fallbacks := 0
	for off := from; off < to; {
		chunkEnd := off + ctxutil.CheckInterval
		if chunkEnd > to {
			chunkEnd = to
		}
		fallbacks += x86.Scan(g.Info[off:chunkEnd], code, base, off, chunkEnd)
		off = chunkEnd
		if off < to && (stop.Load() || ctxutil.Cancelled(ctx)) {
			stop.Store(true)
			break
		}
	}
	g.addScanFallbacks(fallbacks)
}

// Len returns the section size.
func (g *Graph) Len() int { return len(g.Code) }

// At returns the packed decode record at offset off. On eagerly built
// graphs it is a plain index into the Info side table; on lazy graphs
// (BuildLazy) it faults the enclosing block in on demand. The returned
// pointer stays valid for the caller's lifetime either way — lazy-block
// eviction only unlinks a block, it never mutates one. Callers must not
// write through it.
func (g *Graph) At(off int) *Info {
	if g.lazy == nil {
		return &g.Info[off]
	}
	return g.lazy.at(g, off)
}

// Valid reports whether offset off decodes to a valid instruction that
// fits within the section.
func (g *Graph) Valid(off int) bool { return g.At(off).Flags&FlagValid != 0 }

// Decode-cache sizing (entry counts are direct-mapped by offset and
// must be powers of two). 128 entries cover the working set of the
// dispatch-idiom and listing scans, which revisit a small neighbourhood
// of offsets, at ~17 KiB per graph; WithDecodeCacheSlots widens it for
// InstAt-heavy consumers. The upper clamp keeps a misconfigured caller
// from allocating gigabytes of Inst backing (~128 B per slot).
const (
	defaultDecodeCacheSlots = 128
	minDecodeCacheSlots     = 8
	maxDecodeCacheSlots     = 1 << 20
)

// clampCacheSlots rounds n up to a power of two within the slot bounds;
// n <= 0 selects the default.
func clampCacheSlots(n int) int {
	if n <= 0 {
		return defaultDecodeCacheSlots
	}
	if n < minDecodeCacheSlots {
		return minDecodeCacheSlots
	}
	if n > maxDecodeCacheSlots {
		return maxDecodeCacheSlots
	}
	p := minDecodeCacheSlots
	for p < n {
		p <<= 1
	}
	return p
}

// instCache is a small direct-mapped cache of materialized
// instructions, so hot InstAt consumers (jump-table shape checks, CFG
// details, listing/rewrite emission, the oracle) stop paying the lazy
// re-decode tax when they revisit offsets. Embedded by value in Graph:
// the zero value is ready to use (the backing arrays are allocated on
// first InstAt, sized by slots or the default), so Graph literals in
// tests keep working. Guarded by a mutex because analyses sharing one
// graph run concurrently; the lock is uncontended in the serial pipeline
// and far cheaper than a re-decode.
type instCache struct {
	mu    sync.Mutex
	slots int        // power-of-two entry count; 0 = default on first use
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

// DecodeCacheSlots returns the graph's effective InstAt decode-cache
// slot count (the default when none was configured).
func (g *Graph) DecodeCacheSlots() int {
	g.dc.mu.Lock()
	defer g.dc.mu.Unlock()
	if g.dc.slots == 0 {
		return defaultDecodeCacheSlots
	}
	return g.dc.slots
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
		if c.slots == 0 {
			c.slots = defaultDecodeCacheSlots
		}
		c.tags = make([]int32, c.slots)
		c.insts = make([]x86.Inst, c.slots)
	}
	slot := off & (c.slots - 1)
	if c.tags[slot] == int32(off)+1 {
		inst := c.insts[slot]
		c.mu.Unlock()
		dcHits.Add(1)
		return inst
	}
	if x86.DecodeInto(&c.insts[slot], g.Code[off:], g.Base+uint64(off)) != nil {
		// Unreachable: Build decoded these very bytes successfully.
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
// a superset-density diagnostic). On lazy graphs it faults every block in
// — diagnostic use only; the sharded pipeline never calls it.
func (g *Graph) ValidCount() int {
	n := 0
	for i := 0; i < g.Len(); i++ {
		if g.At(i).Flags&FlagValid != 0 {
			n++
		}
	}
	return n
}
