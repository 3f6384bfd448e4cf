// Package tier implements the tiered-correction pre-pass: after the
// structural hints (entry points, call targets, prologues, jump tables,
// data patterns — everything above statistical priority) have been
// committed, most of a section is already decided. The bytes they decided
// are "settled"; the remaining Unknown runs are the "contested" windows
// where statistical evidence must arbitrate. The pipeline then computes
// Markov scores and statistical hints only over the contested windows.
//
// This is exact, not approximate. The commit phase is monotone —
// instruction starts are never cleared and data bytes never reclassified
// until the retraction fixpoint, which runs after all commits — and every
// structural hint outranks every statistical one, so a statistical hint at
// a settled offset is a provable no-op in the single-phase run: it would
// be sorted after the structural hints and then rejected (or commit the
// already-present state) without changing a byte. Dropping it changes
// nothing; see correct.RunTiered for the full argument.
package tier

import (
	"math/bits"

	"probedis/internal/analysis"
	"probedis/internal/correct"
)

// Partition records how a section's bytes divided into settled regions and
// contested windows after the structural commit phase.
type Partition struct {
	// Windows holds the contested half-open offset ranges [a, b), in
	// ascending order, non-overlapping and non-adjacent (each is a maximal
	// Unknown run).
	Windows [][2]int

	// Total is the section length in bytes; SettledBytes + ContestedBytes
	// always equals Total.
	Total          int
	SettledBytes   int
	ContestedBytes int
}

// FromStates derives the partition from the intermediate correction state
// after the structural phase: each maximal run of Unknown bytes is one
// contested window, everything else is settled. It counts the runs first,
// so Windows is allocated once at its length, and stays nil when there
// are none. Both passes read eight states per load.
func FromStates(st []correct.State) *Partition {
	p := &Partition{Total: len(st)}
	if n := countRuns(st); n > 0 {
		p.Windows = make([][2]int, 0, n)
	}
	for off := nextState(st, 0, true); off < len(st); off = nextState(st, off, true) {
		a := off
		off = nextState(st, off, false)
		p.Windows = append(p.Windows, [2]int{a, off})
		p.ContestedBytes += off - a
	}
	p.SettledBytes = p.Total - p.ContestedBytes
	return p
}

// The state word helpers rely on Unknown being the zero state. highs is
// each byte's top bit, low7 the other seven.
const (
	highs uint64 = 0x8080808080808080
	low7  uint64 = 0x7f7f7f7f7f7f7f7f
)

// load8 packs st[i:i+8] into a word, st[i] in the low byte.
func load8(st []correct.State, i int) uint64 {
	b := st[i : i+8 : i+8]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// unknownBytes sets the top bit of each byte of w that is zero (Unknown)
// and clears every other bit. Unlike the usual zero-byte test it never
// flags a byte above a zero one, so each bit is exact.
func unknownBytes(w uint64) uint64 {
	return ^((w&low7 + low7) | w) & highs
}

// countRuns returns the number of maximal Unknown runs in st: the
// Unknown states whose predecessor is settled or absent.
func countRuns(st []correct.State) int {
	n, prev := 0, uint64(0) // prev: the top bit of the previous byte's flag
	i := 0
	for ; i+8 <= len(st); i += 8 {
		u := unknownBytes(load8(st, i))
		n += bits.OnesCount64(u &^ (u<<8 | prev))
		prev = u >> 56
	}
	for ; i < len(st); i++ {
		if st[i] == correct.Unknown && prev == 0 {
			n++
		}
		prev = 0
		if st[i] == correct.Unknown {
			prev = 0x80
		}
	}
	return n
}

// nextState returns the first offset at or after off whose state is
// Unknown (unknown set) or settled (unknown clear), or len(st) if none is.
func nextState(st []correct.State, off int, unknown bool) int {
	var flip uint64 // inverts the flags when looking for a settled byte
	if !unknown {
		flip = highs
	}
	for ; off+8 <= len(st); off += 8 {
		if u := unknownBytes(load8(st, off)) ^ flip; u != 0 {
			return off + bits.TrailingZeros64(u)/8
		}
	}
	for ; off < len(st) && (st[off] == correct.Unknown) != unknown; off++ {
	}
	return off
}

// SplitHints partitions a hint stream into the structural prefix (strictly
// above statistical priority) and the rest (statistical and weaker, e.g.
// offset-table guesses). Order within each half is preserved, so sorting
// the halves separately and concatenating reproduces the single sorted
// stream: min priority of structural > max priority of rest, and the
// corrector's sort is stable across equal hints by input index.
func SplitHints(hints []analysis.Hint) (structural, rest []analysis.Hint) {
	structural = make([]analysis.Hint, 0, len(hints))
	rest = make([]analysis.Hint, 0, 16)
	for _, h := range hints {
		if h.Prio > analysis.PrioStat {
			structural = append(structural, h)
		} else {
			rest = append(rest, h)
		}
	}
	return structural, rest
}
