package analysis

import (
	"probedis/internal/stats"
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
		stack += int64(e.StackDelta())
		if e.Op() == x86.LEAVE || e.Op() == x86.ENTER {
			stack = 0 // frame reset; delta no longer tracked
		}
		switch {
		case stack > 64:
			penalty += 2 // popped far more than pushed in one window
		case stack < -65536:
			penalty += 2 // absurd frame allocation
		}
		if !e.Flow().HasFallthrough() {
			break
		}
		off += e.Len()
	}
	return penalty
}

// StatWindow is the decode-chain length, in instructions, that the
// statistical hints score (stats.Model.LogOdds) and penalise
// (BehaviorPenalty) over.
const StatWindow = 8

// StatSrc is the source name of every statistical hint.
const StatSrc = "stat"

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

// StatHintsRange is StatHints restricted to offsets [from, to), appending
// to dst: it emits exactly the hints StatHints would emit at those
// offsets (the behaviour penalty's chain walk still reads the whole
// graph, so values are identical). from/to are clamped to the section.
// With whole-section scores it is the two-walk reference StatRecords is
// checked against.
func StatHintsRange(g *superset.Graph, viable []bool, scores []float64, penaltyWeight, threshold float64, from, to int, dst []Hint) []Hint {
	hs := dst
	for off := max(from, 0); off < min(to, g.Len()); off++ {
		if !g.Valid(off) {
			continue
		}
		s := scores[off]
		if s <= -1e8 {
			continue
		}
		// The penalty is non-negative, so when the raw score is already at
		// or below the threshold (or the offset is not viable) no hint can
		// result — skip the chain walk entirely. Only valid when the
		// weight cannot flip the penalty's sign.
		if penaltyWeight >= 0 && (s-threshold <= 0 || !viable[off]) {
			continue
		}
		s -= penaltyWeight * BehaviorPenalty(g, off, StatWindow)
		s -= threshold
		if s > 0 && viable[off] {
			hs = append(hs, StatRec{s, off}.Hint())
		}
		// Negative-scoring offsets emit no hint: they are usually the
		// *middles* of real instructions (padding NOPs, dead blocks), and
		// a per-offset data claim would poison the true starts. Bytes no
		// code chain claims default to data in the corrector's gap fill,
		// which is driven by these same scores.
	}
	return hs
}

// StatRec is one statistical hint in the 16 bytes the corrector sorts and
// commits it from: its score and offset. Every statistical hint shares
// its other fields, which Hint restores.
type StatRec struct {
	Score float64
	Off   int
}

// Hint returns the hint r stands for.
func (r StatRec) Hint() Hint {
	return Hint{Kind: HintCode, Off: r.Off, Prio: PrioStat, Score: r.Score, Src: StatSrc}
}

// StatRecords appends to dst the records of exactly the hints
// StatHintsRange emits over [from, to) from m.ScoreAll(g, StatWindow)'s
// scores, in the same (ascending offset) order and with bit-identical
// scores. from/to are clamped to the section.
//
// It walks each offset's decode chain once, for its log-odds and its
// behaviour penalty together, repeating both reference walks' floating-
// point operations in their order: the log-odds terms summed left to right
// and divided by the step count; the penalty over the same chain up to and
// including its first instruction without fallthrough (LogOdds follows an
// unconditional direct jump, BehaviorPenalty stops there); then
// s -= weight*penalty and s -= threshold. The penalty's terms (3, 1.5 and
// 2) are multiples of one half, and so is every partial sum of at most
// StatWindow steps, so each float addition BehaviorPenalty makes is exact:
// counting half-units in an integer gives the same penalty. An offset
// that is invalid or not viable emits nothing for any weight, so it is
// skipped unwalked.
func StatRecords(g *superset.Graph, viable []bool, m *stats.Model, penaltyWeight, threshold float64, from, to int, dst []StatRec) []StatRec {
	n := g.Len()
	for off := max(from, 0); off < min(to, n); off++ {
		if !viable[off] || !g.Valid(off) {
			continue
		}
		var score float64
		var stack int64
		prev, steps, halves := -1, 0, 0
		inPenalty := true
		for o := off; steps < StatWindow && o < n; {
			e := g.Info[o]
			if !e.Valid() {
				break
			}
			tok := e.Tok()
			score += m.Step(prev, tok)
			steps++
			prev = tok
			if inPenalty {
				// BehaviorPenalty's step, in half-units.
				if e.Rare() {
					halves += 6
				}
				if e.SegPrefix() {
					halves += 3
				}
				stack += int64(e.StackDelta())
				if op := e.Op(); op == x86.LEAVE || op == x86.ENTER {
					stack = 0
				}
				if stack > 64 || stack < -65536 {
					halves += 4
				}
			}
			if !e.Flow().HasFallthrough() {
				inPenalty = false
				if t := g.TargetOff(o); t >= 0 && e.Flow() == x86.FlowJump {
					o = t
					continue
				}
				break
			}
			o += e.Len()
		}
		s := score / float64(steps)
		if s <= -1e8 {
			continue
		}
		s -= penaltyWeight * (float64(halves) / 2)
		s -= threshold
		if s > 0 {
			dst = append(dst, StatRec{s, off})
		}
	}
	return dst
}
