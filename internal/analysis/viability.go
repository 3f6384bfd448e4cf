package analysis

import (
	"slices"

	"probedis/internal/superset"
	"probedis/internal/x86"
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
// In a multi-section binary a direct branch into another executable
// section is legitimate (PLT tail calls): the graph's registered extern
// ranges (superset.Graph.SetExtern) exempt those successors, and every
// other one outside the section makes its offset non-viable.
//
// The fixpoint takes one descending sweep and a worklist. Fallthrough and
// forward-branch successors sit above their source, so a sweep from the
// section end has settled them by the time it reaches the source: an
// offset is non-viable if it is invalid, has an escaping successor, or
// has a non-viable successor above it, and a successor at or below it
// counts as viable for now. Only backward branches can carry poison the
// sweep missed. Each viable offset records its successor other than its
// own end, if it has one, as target<<32 | source: there is at most one,
// since a fallthrough lands on the end. The list is sorted once by
// target. The worklist starts from the sources of backward edges into
// non-viable targets and, for each offset it poisons, poisons its viable
// predecessors: the ones ending at it, found by looking back at most
// x86.MaxInstLen bytes, and the branch sources, found by binary search.
// Every offset flips at most once, so the cost is linear plus the sort.
// The working set besides the n-byte mask is the edge list, at most 8
// bytes per section byte and about half a byte on the corpus; it holds no
// pointer and dies on return.
//
// On superset data it is close to random whether an offset is valid,
// falls through, branches or lands on a viable successor, so the sweep
// decides each offset below superset's StraightLimit by straight-line
// arithmetic on its packed record: the flow class selects the
// fallthrough and direct-branch terms through two constant masks, the
// direct target is LocalTarget's off+Delta with its one range test, and
// the successors' viability reads combine with & and |. Only the rare
// offsets take ForcedSuccs: the last x86.MaxInstLen, where a fallthrough
// may reach the section end, and out-of-section targets while extern
// ranges are registered (an x86.DeltaRedecode record's target is one).
func Viability(g *superset.Graph) []bool {
	n := g.Len()
	viable := make([]bool, n)
	// Every generator profile records one edge per 18 to 22 section
	// bytes, real .text sections fewer; past the guess the list doubles.
	// The sweep writes a candidate edge at k for every offset and counts
	// it only if the offset records it, so the list keeps a free slot.
	edges := make([]uint64, n/16+1)
	k := 0
	lim, extern := g.StraightLimit()
	ext := b2u(extern)
	for off := n - 1; off >= 0; off-- {
		// The straight-line loop makes no call, so its values stay in
		// registers. It runs below lim and stops at an offset the general
		// path decides.
		for ; uint(off) < uint(lim); off-- {
			e := g.Info[off]
			f, l := e.Flow(), e.Len()
			fall := uint(x86.FallthroughFlows >> f & 1)
			direct := uint(x86.DirectFlows >> f & 1)
			t, tin := g.LocalTarget(off, e)
			in := b2u(tin)
			if direct&ext&^in != 0 {
				break
			}
			// A target outside the section reads offset 0 and is masked
			// out.
			ok := b2u(l != 0) &
				(fall ^ 1 | b2u(viable[off+l])) &
				(direct ^ 1 | in&(b2u(t <= off)|b2u(viable[t&-int(in)])))
			viable[off] = ok != 0
			edges[k] = uint64(t)<<32 | uint64(off)
			if k += int(ok & direct & in & b2u(t != off+l)); k == len(edges) {
				edges = slices.Grow(edges, k)[:2*k]
			}
		}
		if off < 0 {
			break
		}
		t := sweepExact(g, viable, off)
		edges[k] = uint64(t)<<32 | uint64(off)
		if k += int(b2u(t >= 0)); k == len(edges) {
			edges = slices.Grow(edges, k)[:2*k]
		}
	}
	edges = edges[:k]
	slices.Sort(edges)

	// The sweep already poisoned the source of every forward edge into a
	// non-viable target, so a viable source found here has a backward
	// edge. Targets ascend, so the loop also poisons the sources of edges
	// into offsets it has just poisoned.
	var work []int32
	for _, e := range edges {
		if src := uint32(e); !viable[e>>32] && viable[src] {
			viable[src] = false
			work = append(work, int32(src))
		}
	}
	for len(work) > 0 {
		x := int(work[len(work)-1])
		work = work[:len(work)-1]
		for p := max(x-x86.MaxInstLen, 0); p < x; p++ {
			if !viable[p] || p+g.At(p).Len() != x {
				continue
			}
			if ft, tgt := g.ForcedSuccs(p); ft == x || tgt == x {
				viable[p] = false
				work = append(work, int32(p))
			}
		}
		i, _ := slices.BinarySearch(edges, uint64(x)<<32)
		for ; i < len(edges) && int(edges[i]>>32) == x; i++ {
			if src := uint32(edges[i]); viable[src] {
				viable[src] = false
				work = append(work, int32(src))
			}
		}
	}
	return viable
}

// sweepExact is the sweep's general path: it decides offset off from
// ForcedSuccs, with every successor above off already settled, and
// returns the target of the edge off records, or -1 if it records none.
func sweepExact(g *superset.Graph, viable []bool, off int) int {
	if !g.Valid(off) {
		return -1
	}
	end := off + g.At(off).Len()
	edge := -1
	ft, tgt := g.ForcedSuccs(off)
	for _, s := range [2]int{ft, tgt} {
		if s == superset.Escape || s > off && !viable[s] {
			return -1
		}
		if s >= 0 && s != end {
			edge = s
		}
	}
	viable[off] = true
	return edge
}

// b2u is 1 for true and 0 for false; the compiler emits it as a flag
// set, not a branch.
func b2u(b bool) uint {
	var u uint
	if b {
		u = 1
	}
	return u
}
