package analysis

import (
	"probedis/internal/superset"
	"probedis/internal/x86"
)

// BehaviorPenalty scores how implausible the decode chain starting at off
// is as real code, using behavioural properties the paper exploits:
//
//   - rare/privileged opcodes (in/out, hlt, far control transfers, BCD...)
//     essentially never occur in application code;
//   - the stack pointer must stay disciplined: a window whose cumulative
//     RSP delta goes far positive (popping a stack it never pushed) or
//     implausibly negative is data decoding as code;
//   - segment-prefixed and LOCK-prefixed nonsense forms.
//
// Returns a non-negative penalty (0 = clean chain).
func BehaviorPenalty(g *superset.Graph, off, window int) float64 {
	var penalty float64
	var stack int64
	for n := 0; n < window && off < g.Len() && g.Valid(off); n++ {
		e := g.At(off)
		if e.Rare() {
			penalty += 3
		}
		if e.SegPrefix() {
			penalty += 1.5 // segment overrides are rare in 64-bit code
		}
		stack += int64(e.StackDelta)
		if e.Op == x86.LEAVE || e.Op == x86.ENTER {
			stack = 0 // frame reset; delta no longer tracked
		}
		switch {
		case stack > 64:
			penalty += 2 // popped far more than pushed in one window
		case stack < -65536:
			penalty += 2 // absurd frame allocation
		}
		if !e.Flow.HasFallthrough() {
			break
		}
		off += int(e.Len)
	}
	return penalty
}

// StatHints produces the statistical classification hints: for each viable
// offset, the model's normalized log-odds (adjusted by the behavioural
// penalty) yields a code hint (positive) or data hint (negative). scores
// must come from Model.ScoreAll on the same graph.
//
// Data hints from the statistical layer are per-offset (Len 1): a single
// offset scoring data-like does not say where the data region ends — the
// corrector accumulates them.
//
// threshold shifts the decision boundary: scores above it become code
// hints, below it data hints (0 is the calibrated default; the F4
// experiment sweeps it).
func StatHints(g *superset.Graph, viable []bool, scores []float64, penaltyWeight, threshold float64) []Hint {
	return StatHintsRange(g, viable, scores, penaltyWeight, threshold, 0, g.Len(),
		make([]Hint, 0, g.Len()/2))
}

// StatHintsRange is StatHints restricted to offsets [from, to): it emits
// exactly the hints StatHints would emit at those offsets (the behaviour
// penalty's chain walk still reads the whole graph, so values are
// identical). The tiered pipeline calls it once per contested window,
// appending to dst. from/to are clamped to the section.
func StatHintsRange(g *superset.Graph, viable []bool, scores []float64, penaltyWeight, threshold float64, from, to int, dst []Hint) []Hint {
	return statHintsImpl(g, viable, scores, 0, penaltyWeight, threshold, from, to, dst)
}

// StatHintsRangeRel is StatHintsRange with a window-relative score
// buffer: scores[i] holds the score of offset from+i (and must cover
// to-from entries). The pipeline stores scores per contested window
// instead of in one section-length slice, so score residency is
// O(contested bytes) rather than O(section); the emitted hints are
// identical.
func StatHintsRangeRel(g *superset.Graph, viable []bool, scores []float64, penaltyWeight, threshold float64, from, to int, dst []Hint) []Hint {
	return statHintsImpl(g, viable, scores, from, penaltyWeight, threshold, from, to, dst)
}

func statHintsImpl(g *superset.Graph, viable []bool, scores []float64, scoreBase int, penaltyWeight, threshold float64, from, to int, dst []Hint) []Hint {
	if from < 0 {
		from = 0
	}
	if to > g.Len() {
		to = g.Len()
	}
	hs := dst
	for off := from; off < to; off++ {
		if !g.Valid(off) {
			continue
		}
		s := scores[off-scoreBase]
		if s <= -1e8 {
			continue
		}
		// The penalty is non-negative, so when the raw score is already at
		// or below the threshold (or the offset is not viable) no hint can
		// result — skip the 8-step chain walk entirely. Only valid when the
		// weight cannot flip the penalty's sign.
		if penaltyWeight >= 0 && (s-threshold <= 0 || !viable[off]) {
			continue
		}
		s -= penaltyWeight * BehaviorPenalty(g, off, 8)
		s -= threshold
		if s > 0 && viable[off] {
			hs = append(hs, Hint{Kind: HintCode, Off: off, Prio: PrioStat,
				Score: s, Src: "stat"})
		}
		// Negative-scoring offsets emit no hint: they are usually the
		// *middles* of real instructions (padding NOPs, dead blocks), and
		// a per-offset data claim would poison the true starts. Bytes no
		// code chain claims default to data in the corrector's gap fill,
		// which is driven by these same scores.
	}
	return hs
}
