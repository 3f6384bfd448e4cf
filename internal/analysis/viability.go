package analysis

import (
	"context"
	"sync"
	"sync/atomic"

	"probedis/internal/ctxutil"
	"probedis/internal/superset"
)

// viaScratch holds the per-run working set of Viability. Pooled because
// the predecessor table (one slice header per offset plus many small
// appends) dominates the analysis' allocation churn, and the parallel ELF
// pipeline runs one Viability per section per binary.
type viaScratch struct {
	preds [][]int32
	work  []int
	succs []int
}

var viaPool = sync.Pool{New: func() any { return new(viaScratch) }}

// Viability computes, for every offset, whether an instruction starting
// there could possibly execute without derailing: an offset is non-viable
// if its decode is invalid, a forced successor (fallthrough or direct
// branch target) leaves the section, or — transitively — any forced
// successor is non-viable.
//
// This is the "invalid-opcode poisoning" behavioural property: real code
// never runs into undefined encodings, so invalidity propagates backwards
// along forced edges and rules out most data offsets as instruction
// starts. Cycles are resolved with a greatest fixpoint (a loop with no
// failing exit is viable).
//
// Note: in a multi-section binary, a direct branch to another section is
// legitimate (PLT tail calls). This implementation analyses one section;
// out-of-section direct branches are treated as non-viable, which matches
// the static-executable corpus this repository evaluates on.
func Viability(g *superset.Graph) []bool {
	n := g.Len()
	viable := make([]bool, n)

	sc := viaPool.Get().(*viaScratch)
	if cap(sc.preds) < n {
		sc.preds = make([][]int32, n)
	}
	// preds[s] lists offsets having s as a forced successor. Entries keep
	// their backing arrays between runs; only the lengths are reset.
	preds := sc.preds[:n]
	for i := range preds {
		preds[i] = preds[i][:0]
	}
	work := sc.work[:0] // non-viable worklist seeds

	succs := sc.succs
	for off := 0; off < n; off++ {
		if !g.Valid(off) {
			work = append(work, off)
			continue
		}
		viable[off] = true
		succs = g.ForcedSuccs(succs[:0], off)
		bad := false
		for _, s := range succs {
			if s < 0 {
				bad = true
				break
			}
		}
		if bad {
			viable[off] = false
			work = append(work, off)
			continue
		}
		for _, s := range succs {
			preds[s] = append(preds[s], int32(off))
		}
	}

	// Propagate non-viability backwards: if any forced successor of p is
	// non-viable, p is non-viable.
	for len(work) > 0 {
		s := work[len(work)-1]
		work = work[:len(work)-1]
		for _, p32 := range preds[s] {
			p := int(p32)
			if viable[p] {
				viable[p] = false
				work = append(work, p)
			}
		}
	}

	sc.work, sc.succs = work, succs
	viaPool.Put(sc)
	return viable
}

// ViabilityRanges computes exactly the Viability mask, but decomposed
// over the given shard ranges (a sorted, disjoint tiling of [0, g.Len()))
// so the working set stays O(shard) and the first round parallelizes:
//
//  1. Round one runs localViability per shard — the same seed-and-poison
//     pass Viability does, with the predecessor table (the O(n) item in
//     Viability's footprint) built only for intra-shard edges and pooled
//     per shard. Writes are confined to the shard's own slice of the
//     mask, so shards are data-race-free side by side; edges crossing a
//     seam are simply not propagated yet.
//  2. Cascade sweeps then re-check every still-viable offset against the
//     current global mask, right-to-left and descending inside each
//     shard (poison flows backwards, mostly along ascending fallthrough
//     edges, so this order converges in one sweep for chains), repeating
//     until a full pass flips nothing. A single range has no seam edges,
//     so round one alone reaches the fixpoint and the sweeps are skipped.
//
// Both Viability and this routine are chaotic iterations of the same
// monotone equation system, and such iterations converge to its unique
// greatest fixpoint regardless of evaluation order — so the result is
// byte-identical to Viability for every shard tiling. par, when non-nil,
// runs round one's shard passes concurrently (core passes its
// work-stealing pool); the cascade is serial either way. ctx is polled
// once per shard per round; on cancellation the partial mask is
// discarded and (nil, ctx.Err()) returned.
func ViabilityRanges(ctx context.Context, g *superset.Graph, ranges [][2]int, par func(n int, fn func(int))) ([]bool, error) {
	n := g.Len()
	viable := make([]bool, n)
	if par == nil {
		par = func(k int, fn func(int)) {
			for i := 0; i < k; i++ {
				fn(i)
			}
		}
	}
	var stop atomic.Bool
	par(len(ranges), func(i int) {
		if stop.Load() || ctxutil.Cancelled(ctx) {
			stop.Store(true)
			return
		}
		localViability(g, viable, ranges[i][0], ranges[i][1])
	})
	if stop.Load() || ctxutil.Cancelled(ctx) {
		return nil, ctxutil.Err(ctx)
	}
	if len(ranges) == 1 {
		// No seam edges: round one already propagated every edge, so the
		// mask is the greatest fixpoint and a cascade sweep would flip
		// nothing.
		return viable, nil
	}

	var succs []int
	for changed := true; changed; {
		changed = false
		for i := len(ranges) - 1; i >= 0; i-- {
			if ctxutil.Cancelled(ctx) {
				return nil, ctxutil.Err(ctx)
			}
			from, to := ranges[i][0], ranges[i][1]
			for off := to - 1; off >= from; off-- {
				if !viable[off] {
					continue
				}
				succs = g.ForcedSuccs(succs[:0], off)
				for _, s := range succs {
					// s >= 0 always: offsets with an impossible successor
					// were already poisoned in round one.
					if !viable[s] {
						viable[off] = false
						changed = true
						break
					}
				}
			}
		}
	}
	return viable, nil
}

// localViability is Viability restricted to [from, to): it seeds
// non-viability from invalid decodes and impossible successors, then
// propagates backwards along forced edges that stay inside the shard.
// Cross-shard edges are left to the caller's cascade sweeps.
func localViability(g *superset.Graph, viable []bool, from, to int) {
	n := to - from
	sc := viaPool.Get().(*viaScratch)
	if cap(sc.preds) < n {
		sc.preds = make([][]int32, n)
	}
	preds := sc.preds[:n] // indexed shard-relative: preds[s-from]
	for i := range preds {
		preds[i] = preds[i][:0]
	}
	work := sc.work[:0]
	succs := sc.succs
	for off := from; off < to; off++ {
		if !g.Valid(off) {
			work = append(work, off)
			continue
		}
		viable[off] = true
		succs = g.ForcedSuccs(succs[:0], off)
		bad := false
		for _, s := range succs {
			if s < 0 {
				bad = true
				break
			}
		}
		if bad {
			viable[off] = false
			work = append(work, off)
			continue
		}
		for _, s := range succs {
			if s >= from && s < to {
				preds[s-from] = append(preds[s-from], int32(off))
			}
		}
	}
	for len(work) > 0 {
		s := work[len(work)-1]
		work = work[:len(work)-1]
		for _, p32 := range preds[s-from] {
			p := int(p32)
			if viable[p] {
				viable[p] = false
				work = append(work, p)
			}
		}
	}
	sc.work, sc.succs = work, succs
	viaPool.Put(sc)
}
