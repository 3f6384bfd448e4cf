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
// Note: in a multi-section binary, a direct branch to another section is
// legitimate (PLT tail calls). This implementation analyses one section;
// out-of-section direct branches are treated as non-viable, which matches
// the static-executable corpus this repository evaluates on.
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
func Viability(g *superset.Graph) []bool {
	n := g.Len()
	viable := make([]bool, n)
	// Every generator profile records one edge per 18 to 22 section
	// bytes, real .text sections fewer; past the guess the list doubles
	// by hand rather than regrow through append's smaller steps.
	edges := make([]uint64, 0, n/16)
	var succs []int
sweep:
	for off := n - 1; off >= 0; off-- {
		if !g.Valid(off) {
			continue
		}
		succs = g.ForcedSuccs(succs[:0], off)
		end := off + g.At(off).Len()
		edge := -1
		for _, s := range succs {
			if s < 0 || s > off && !viable[s] {
				continue sweep
			}
			if s != end {
				edge = s
			}
		}
		viable[off] = true
		if edge >= 0 {
			if len(edges) == cap(edges) {
				edges = slices.Grow(edges, len(edges))
			}
			edges = append(edges, uint64(edge)<<32|uint64(off))
		}
	}
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
			succs = g.ForcedSuccs(succs[:0], p)
			if slices.Contains(succs, x) {
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
