package analysis

import (
	"slices"

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
//
// Non-viability is seeded from invalid decodes and impossible successors,
// then propagated backwards through a predecessor table. The table is a
// CSR index (each offset's predecessors stored contiguously in one
// array): pos, n+1 offsets into preds, and preds, one int32 per forced
// edge, 4(n+1)+4E bytes. Neither holds a pointer, so the GC never scans
// them, and both die on return. The index is built by walking the section
// twice, counting edges and then filling rows: buffering the successors
// between the walks would save the second walk but add n+4E transient
// bytes.
func Viability(g *superset.Graph) []bool {
	n := g.Len()
	viable := make([]bool, n)
	pos := make([]uint32, n+1)
	var succs []int
	for off := 0; off < n; off++ {
		if !g.Valid(off) {
			continue
		}
		succs = g.ForcedSuccs(succs[:0], off)
		if slices.Contains(succs, -1) {
			continue
		}
		viable[off] = true
		for _, s := range succs {
			pos[s]++
		}
	}
	// Inclusive prefix sum: pos[i] is the end of offset i's row. The fill
	// decrements it back to the row's start, so row i ends up as
	// preds[pos[i]:pos[i+1]], and pos[n] stays the edge count.
	var sum uint32
	for i, c := range pos {
		sum += c
		pos[i] = sum
	}
	preds := make([]int32, pos[n])
	for off := 0; off < n; off++ {
		if !viable[off] {
			continue
		}
		succs = g.ForcedSuccs(succs[:0], off)
		for _, s := range succs {
			pos[s]--
			preds[pos[s]] = int32(off)
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
	for i := 0; i < n; i++ {
		if viable[i] {
			continue
		}
		stack = append(stack[:0], int32(i))
		for len(stack) > 0 {
			s := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, p := range preds[pos[s]:pos[s+1]] {
				if viable[p] {
					viable[p] = false
					stack = append(stack, p)
				}
			}
		}
	}
	return viable
}
