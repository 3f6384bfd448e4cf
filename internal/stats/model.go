// Package stats implements the data-driven probabilistic side of the
// disassembler: Markov models over instruction-token sequences that
// separate real code from data decoded as code, plus raw-byte detectors
// (printable strings, fill runs, pointer arrays) that recognise the
// statistical signatures of embedded data.
//
// The models are trained on a corpus disjoint from anything being
// evaluated (see core.DefaultModel) — mirroring the paper's train/test
// separation for its data-driven techniques.
package stats

import (
	"math"

	"probedis/internal/superset"
	"probedis/internal/x86"
)

// numTok is the token vocabulary size: 4 opcode maps x 256 opcodes.
const numTok = 4 * 256

// Token quantises an instruction for the sequence models: its opcode map
// and opcode byte. Operand bytes are deliberately excluded — it is the
// opcode sequence whose statistics differ most sharply between code and
// data. The superset graph precomputes the same token into its packed
// side-table (superset.Info.Tok), which the scoring loops read directly.
func Token(inst *x86.Inst) int {
	return int(inst.TokenID())
}

// ngram is a bigram model with additive smoothing.
type ngram struct {
	uni    [numTok]float64
	bi     []float64 // numTok*numTok counts, then log-probs after finalize
	uniTot float64

	uniLogP [numTok]float64
	final   bool
}

func newNgram() *ngram {
	return &ngram{bi: make([]float64, numTok*numTok)}
}

func (n *ngram) addPair(a, b int) {
	n.uni[a]++
	n.uniTot++
	n.bi[a*numTok+b]++
}

func (n *ngram) addOne(a int) {
	n.uni[a]++
	n.uniTot++
}

const alpha = 0.5 // additive smoothing

func (n *ngram) finalize() {
	rowTot := make([]float64, numTok)
	for a := 0; a < numTok; a++ {
		var t float64
		for b := 0; b < numTok; b++ {
			t += n.bi[a*numTok+b]
		}
		rowTot[a] = t
	}
	for a := 0; a < numTok; a++ {
		den := math.Log(rowTot[a] + alpha*numTok)
		for b := 0; b < numTok; b++ {
			n.bi[a*numTok+b] = math.Log(n.bi[a*numTok+b]+alpha) - den
		}
		n.uniLogP[a] = math.Log(n.uni[a]+alpha) - math.Log(n.uniTot+alpha*numTok)
	}
	n.final = true
}

func (n *ngram) logP(a, b int) float64 { return n.bi[a*numTok+b] }

// Model scores superset decode chains with a code model vs a data model.
type Model struct {
	code *ngram
	data *ngram

	// biDiff/uniDiff cache code-minus-data log-probabilities once a model
	// is finalized: the scoring loop probes one table instead of two
	// 8 MiB ones, halving its cache footprint. Each entry is the same
	// code-minus-data subtraction LogOdds would otherwise evaluate per
	// probe, so scores are bit-identical.
	biDiff  []float64
	uniDiff [numTok]float64
}

// buildDiff populates the difference tables from the finalized ngrams.
func (m *Model) buildDiff() {
	m.biDiff = make([]float64, numTok*numTok)
	for i := range m.biDiff {
		m.biDiff[i] = m.code.bi[i] - m.data.bi[i]
	}
	for a := 0; a < numTok; a++ {
		m.uniDiff[a] = m.code.uniLogP[a] - m.data.uniLogP[a]
	}
}

// NewModel returns an empty, untrained model.
func NewModel() *Model {
	return &Model{code: newNgram(), data: newNgram()}
}

// AddCode trains the code model from ground-truth instruction starts over a
// superset graph (pairs of adjacent instructions in layout order).
func (m *Model) AddCode(g *superset.Graph, instStart []bool) {
	prev := -1
	for off := 0; off < g.Len(); off++ {
		if !instStart[off] || !g.Valid(off) {
			continue
		}
		tok := g.At(off).Tok()
		if prev >= 0 {
			m.code.addPair(prev, tok)
		} else {
			m.code.addOne(tok)
		}
		prev = tok
	}
}

// AddData trains the data model from decode chains beginning inside data
// regions: for each data offset with a valid decode, the pair (token,
// token-at-fallthrough).
func (m *Model) AddData(g *superset.Graph, isData []bool) {
	for off := 0; off < g.Len(); off++ {
		e := g.At(off)
		if !isData[off] || !e.Valid() {
			continue
		}
		tok := e.Tok()
		next := off + e.Len()
		if next < g.Len() && g.Valid(next) {
			m.data.addPair(tok, g.At(next).Tok())
		} else {
			m.data.addOne(tok)
		}
	}
}

// AddRandomData trains the data model on arbitrary byte soup (a useful
// prior for data kinds absent from the training corpus).
func (m *Model) AddRandomData(code []byte, base uint64) {
	g := superset.Build(code, base)
	all := make([]bool, len(code))
	for i := range all {
		all[i] = true
	}
	m.AddData(g, all)
}

// Finalize converts counts into log-probabilities. Must be called once
// after training and before scoring.
func (m *Model) Finalize() {
	m.code.finalize()
	m.data.finalize()
	m.buildDiff()
}

// Ready reports whether Finalize has run.
func (m *Model) Ready() bool { return m.code.final }

// LogOdds scores the decode chain starting at off: the summed
// log(P_code/P_data) over up to window chain steps. Positive means
// code-like. steps is the number of tokens scored; an invalid start yields
// (-inf substitute, 0).
func (m *Model) LogOdds(g *superset.Graph, off, window int) (score float64, steps int) {
	if !g.Valid(off) {
		return -1e9, 0
	}
	prev := -1
	for n := 0; n < window; n++ {
		if off >= g.Len() {
			break
		}
		e := g.At(off)
		if !e.Valid() {
			break
		}
		tok := e.Tok()
		if prev < 0 {
			score += m.uniDiff[tok]
		} else {
			score += m.biDiff[prev*numTok+tok]
		}
		steps++
		prev = tok
		if !e.Flow().HasFallthrough() {
			// Follow direct jumps so short blocks still get a full window.
			if t := g.TargetOff(off); t >= 0 && (e.Flow() == x86.FlowJump) {
				off = t
				continue
			}
			break
		}
		off += e.Len()
	}
	return score, steps
}

// ScoreAll computes the per-offset normalized log-odds (score/steps) for
// every offset; invalid offsets get large negative values. It runs
// serially on the calling goroutine: the pipeline splits scoring into
// ScoreWindowInto pieces on its own work pool.
func (m *Model) ScoreAll(g *superset.Graph, window int) []float64 {
	out := make([]float64, g.Len())
	m.ScoreWindowInto(out, g, window, 0, g.Len())
	return out
}

// ScoreRangesInto computes the same per-offset values ScoreAll would
// (each offset's LogOdds depends only on the graph, never on neighbouring
// scores) restricted to the half-open windows [w[0], w[1]); offsets
// outside every window are left untouched. The values at those offsets
// are bit-identical to a full scoring pass. Windows out of range are
// clamped; len(out) must equal g.Len().
func (m *Model) ScoreRangesInto(out []float64, g *superset.Graph, window int, windows [][2]int) {
	if len(out) != g.Len() {
		panic("stats: ScoreRangesInto buffer length mismatch")
	}
	for _, w := range windows {
		if from := max(w[0], 0); from < g.Len() {
			m.ScoreWindowInto(out[from:], g, window, from, w[1])
		}
	}
}

// ScoreWindowInto computes the per-offset values of [from, to) into a
// window-relative buffer: out[i] receives the score of offset from+i.
// Values are bit-identical to the corresponding slice of a full scoring
// pass (LogOdds reads only the graph). It is the one scoring loop behind
// ScoreAll and ScoreRangesInto, and the pipeline calls it directly to
// keep one small buffer per contested window instead of a section-length
// slice. len(out) must be at least to-from.
func (m *Model) ScoreWindowInto(out []float64, g *superset.Graph, window, from, to int) {
	if from < 0 {
		from = 0
	}
	if to > g.Len() {
		to = g.Len()
	}
	for off := from; off < to; off++ {
		s, n := m.LogOdds(g, off, window)
		if n == 0 {
			out[off-from] = -1e9
			continue
		}
		out[off-from] = s / float64(n)
	}
}
