package analysis

import (
	"context"
	"slices"
	"sync/atomic"

	"probedis/internal/ctxutil"
	"probedis/internal/superset"
)

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
	viable := make([]bool, g.Len())
	localViability(g, viable, 0, g.Len())
	return viable
}

// ViabilityRanges computes exactly the Viability mask, but decomposed
// over the given shard ranges (a sorted, disjoint tiling of [0, g.Len()))
// so the working set stays O(shard) and the first round parallelizes:
//
//  1. Round one runs localViability per shard — the seed-and-poison
//     pass Viability runs over the whole section, with the predecessor
//     index (the O(n) item in its footprint) built only for intra-shard
//     edges and allocated per shard, so each index lives only as long as
//     its shard's pass. Writes are confined to the shard's own slice of
//     the mask, so shards are data-race-free side by side; edges crossing
//     a seam are simply not propagated yet.
//  2. Cascade sweeps then re-check every still-viable offset against the
//     current global mask, right-to-left and descending inside each
//     shard (poison flows backwards, mostly along ascending fallthrough
//     edges, so this order converges in one sweep for chains), repeating
//     until a full pass flips nothing. A single range has no seam edges,
//     so round one alone reaches the fixpoint and the sweeps are skipped.
//
// Round one plus the cascade is a chaotic iteration of the monotone
// equation system Viability solves, and any such iteration converges to
// its unique greatest fixpoint regardless of evaluation order — so the
// result is byte-identical to Viability for every shard tiling. par, when non-nil,
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

// localViability computes the viability fixpoint of [from, to) over the
// forced edges that stay inside it. It fills viable[from:to], which must
// be all false on entry, and writes nothing else: non-viability is seeded
// from invalid decodes and impossible successors, then propagated
// backwards along intra-range edges; edges crossing the range's ends are
// left to ViabilityRanges' cascade sweeps.
//
// The predecessor table is a CSR index (each offset's predecessors stored
// contiguously in one array): pos, n+1 offsets into preds, and preds, one
// int32 per intra-range edge, 4(n+1)+4E bytes. Neither holds a pointer,
// so the GC never scans them, and both die on return. The index is built
// by walking the range twice, counting edges and then filling rows:
// buffering the successors between the walks would save the second walk
// but add n+4E transient bytes.
func localViability(g *superset.Graph, viable []bool, from, to int) {
	n := to - from
	pos := make([]uint32, n+1)
	var succs []int
	for off := from; off < to; off++ {
		if !g.Valid(off) {
			continue
		}
		succs = g.ForcedSuccs(succs[:0], off)
		if slices.Contains(succs, -1) {
			continue
		}
		viable[off] = true
		for _, s := range succs {
			if s >= from && s < to {
				pos[s-from]++
			}
		}
	}
	// Inclusive prefix sum: pos[i] is the end of offset from+i's row. The
	// fill decrements it back to the row's start, so row i ends up as
	// preds[pos[i]:pos[i+1]], and pos[n] stays the edge count.
	var sum uint32
	for i, c := range pos {
		sum += c
		pos[i] = sum
	}
	preds := make([]int32, pos[n])
	for off := from; off < to; off++ {
		if !viable[off] {
			continue
		}
		succs = g.ForcedSuccs(succs[:0], off)
		for _, s := range succs {
			if s >= from && s < to {
				pos[s-from]--
				preds[pos[s-from]] = int32(off)
			}
		}
	}

	// Propagate non-viability backwards: if any forced successor of p is
	// non-viable, p is non-viable. Each non-viable offset, seed or not,
	// poisons its predecessors depth-first. An offset's row is read when
	// the stack pops it and again when the outer loop reaches it, so every
	// edge is read at most twice. Walking upwards saves most second reads:
	// poison mostly flows back along fallthrough edges, to offsets the
	// loop has already passed.
	var stack []int32
	for i := from; i < to; i++ {
		if viable[i] {
			continue
		}
		stack = append(stack[:0], int32(i))
		for len(stack) > 0 {
			s := int(stack[len(stack)-1]) - from
			stack = stack[:len(stack)-1]
			for _, p := range preds[pos[s]:pos[s+1]] {
				if viable[p] {
					viable[p] = false
					stack = append(stack, p)
				}
			}
		}
	}
}
