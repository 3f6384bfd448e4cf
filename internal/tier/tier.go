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
// nothing; see correct.RunTieredContext for the full argument.
package tier

import (
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
// contested window, everything else is settled.
func FromStates(st []correct.State) *Partition {
	p := &Partition{Total: len(st)}
	for off := 0; off < len(st); {
		if st[off] != correct.Unknown {
			off++
			continue
		}
		a := off
		for off < len(st) && st[off] == correct.Unknown {
			off++
		}
		p.Windows = append(p.Windows, [2]int{a, off})
		p.ContestedBytes += off - a
	}
	p.SettledBytes = p.Total - p.ContestedBytes
	return p
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
