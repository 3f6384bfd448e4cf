package superset

import (
	"sync/atomic"

	"probedis/internal/x86"
)

// lazyInfo is the windowed Info backend behind Graph.At for sharded runs:
// instead of materializing the whole 16-bytes-per-offset side table up
// front (the ~16x-section-size residency ROADMAP item 2 names), the table
// is split into fixed-size blocks that are decoded on first access and
// evicted once the number of resident blocks exceeds a cap. Decoding a
// block is a pure function of the immutable section bytes, so a block's
// content is identical no matter when, or how many times, it is faulted
// in — eviction can never change an analysis result, only its cost.
//
// Concurrency: each block lives in an atomic slot. Readers Load the slot
// and fault the block on nil; publication is a CompareAndSwap so a lost
// race simply adopts the winner's identical block. Eviction stores nil —
// a concurrent reader that already loaded the block keeps using its
// slice (the garbage collector reclaims it when the last reader drops
// it), so there is no reader/evictor synchronization beyond the slot.
type lazyInfo struct {
	shift uint // block size in bytes = 1 << shift
	slots []atomic.Pointer[infoBlock]

	// maxResident caps the number of simultaneously resident blocks;
	// <= 0 disables eviction. The cap is approximate under concurrency
	// (two racing faults may transiently overshoot by one) which is fine:
	// it bounds the working set, it is not an allocator.
	maxResident int64
	resident    atomic.Int64
	hand        atomic.Int64 // clock-eviction scan position

	faults    atomic.Int64
	evictions atomic.Int64

	// point switches At misses from block faulting to point decodes (see
	// SetPointReads). Resident blocks keep serving reads either way.
	point  atomic.Bool
	points atomic.Int64
}

// infoBlock is one decoded window of the side table. Immutable after
// publication.
type infoBlock struct {
	info []Info
}

// BuildLazy returns a graph over code whose Info side table is decoded
// on demand in blocks of 1<<blockShift bytes, keeping at most
// maxResidentBlocks of them live (<= 0: unbounded). Unlike Build it does
// no decoding up front — construction is O(1) in the section size — and
// Graph.Info stays nil: every read must go through Graph.At (or the
// accessors built on it), which the pipeline does.
func BuildLazy(code []byte, base uint64, blockShift uint, maxResidentBlocks int) *Graph {
	if blockShift < minBlockShift {
		blockShift = minBlockShift
	}
	nblocks := (len(code) + (1 << blockShift) - 1) >> blockShift
	return &Graph{
		Base: base,
		Code: code,
		lazy: &lazyInfo{
			shift:       blockShift,
			slots:       make([]atomic.Pointer[infoBlock], nblocks),
			maxResident: int64(maxResidentBlocks),
		},
	}
}

// minBlockShift bounds block granularity below: 4 KiB blocks keep the
// slot table negligible and each fault's decode burst short.
const minBlockShift = 12

// Lazy reports whether the graph uses the windowed on-demand backend.
func (g *Graph) Lazy() bool { return g.lazy != nil }

// LazyStats returns the cumulative block faults and evictions of a lazy
// graph (zeros for an eagerly built one).
func (g *Graph) LazyStats() (faults, evictions int64) {
	if g.lazy == nil {
		return 0, 0
	}
	return g.lazy.faults.Load(), g.lazy.evictions.Load()
}

// ResidentBlocks returns the number of currently resident lazy blocks
// and the block size in bytes (0, 0 for an eager graph).
func (g *Graph) ResidentBlocks() (blocks int, blockBytes int) {
	if g.lazy == nil {
		return 0, 0
	}
	return int(g.lazy.resident.Load()), 1 << g.lazy.shift
}

// SetPointReads switches how a lazy graph serves an At miss. Off (the
// default), a miss faults in the whole enclosing block — right for the
// scan phases, which read shards sequentially and amortize the block
// decode over every offset in it. On, a miss decodes just the requested
// offset and returns it without publishing or evicting anything — right
// for the later serial phases (hint commit order, gap fill, CFG walk),
// whose scattered accesses would otherwise evict-and-refault whole
// blocks to serve single reads. Both modes produce identical values
// (the same pure decode of the immutable section bytes) and resident
// blocks keep serving hits either way, so flipping the switch can never
// change a result, only the cost profile. No-op on an eager graph.
func (g *Graph) SetPointReads(on bool) {
	if g.lazy != nil {
		g.lazy.point.Store(on)
	}
}

// PointReads returns the cumulative number of point-mode At misses of a
// lazy graph (zero for an eager one).
func (g *Graph) PointReads() int64 {
	if g.lazy == nil {
		return 0
	}
	return g.lazy.points.Load()
}

// at serves one offset from the windowed backend, faulting the enclosing
// block in if needed.
func (l *lazyInfo) at(g *Graph, off int) *Info {
	b := off >> l.shift
	if blk := l.slots[b].Load(); blk != nil {
		return &blk.info[off-(b<<l.shift)]
	}
	if l.point.Load() {
		l.points.Add(1)
		info := make([]Info, 1)
		g.addScanFallbacks(x86.Scan(info, g.Code, g.Base, off, off+1))
		return &info[0]
	}
	blk := l.fault(g, b)
	return &blk.info[off-(b<<l.shift)]
}

// fault decodes block b and publishes it. The decode is identical to the
// corresponding slice of an eager Build: it runs the same x86.Scan
// kernel, and every offset decodes against the full remaining section
// (code[off:]), so instructions spanning the block edge — and validity
// at the section tail — come out the same.
func (l *lazyInfo) fault(g *Graph, b int) *infoBlock {
	from := b << l.shift
	to := from + 1<<l.shift
	if to > len(g.Code) {
		to = len(g.Code)
	}
	blk := &infoBlock{info: make([]Info, to-from)}
	g.addScanFallbacks(x86.Scan(blk.info, g.Code, g.Base, from, to))
	if !l.slots[b].CompareAndSwap(nil, blk) {
		// Lost a publication race: the winner's block has identical
		// content (pure function of Code), adopt it. It can only have
		// been evicted again in between under an absurdly small cap, in
		// which case our freshly decoded copy still serves this access.
		if w := l.slots[b].Load(); w != nil {
			return w
		}
		return blk
	}
	l.faults.Add(1)
	if n := l.resident.Add(1); l.maxResident > 0 && n > l.maxResident {
		l.evict(b)
	}
	return blk
}

// evict walks the clock hand over the slot table and drops resident
// blocks (skipping keep, the block just faulted in) until the resident
// count is back under the cap. Bounded to two full sweeps so a racing
// storm of faults can never spin it forever.
func (l *lazyInfo) evict(keep int) {
	n := len(l.slots)
	for probes := 0; probes < 2*n && l.resident.Load() > l.maxResident; probes++ {
		h := int(l.hand.Add(1)-1) % n
		if h == keep {
			continue
		}
		if blk := l.slots[h].Load(); blk != nil &&
			l.slots[h].CompareAndSwap(blk, nil) {
			l.resident.Add(-1)
			l.evictions.Add(1)
		}
	}
}
