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

// ngram holds one bigram model's training counts. They are integers, and
// so are their sums, so each converts to float64 exactly: the arguments
// Finalize passes to math.Log do not depend on how the counts are stored.
// A uint32 count wraps only past 4G occurrences of one token or pair, far
// beyond any corpus the models train on.
type ngram struct {
	bi     []uint32 // numTok*numTok pair counts; row a holds the pairs (a, b)
	uni    [numTok]uint32
	uniTot uint64
}

func newNgram() *ngram {
	return &ngram{bi: make([]uint32, numTok*numTok)}
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

// logAlpha is logCount of a zero count, math.Log(0+alpha).
var logAlpha = math.Log(alpha)

// logCount is the smoothed log count math.Log(c+alpha).
func logCount(c uint32) float64 {
	if c == 0 {
		return logAlpha
	}
	return math.Log(float64(c) + alpha)
}

// logDen is the log of a smoothed distribution's denominator over total
// observations.
func logDen(total uint64) float64 {
	return math.Log(float64(total) + alpha*numTok)
}

// Model scores superset decode chains with a code model vs a data model.
// Training fills the two models' counts; Finalize turns them into the
// code-minus-data log-probability tables that scoring reads, and drops
// the counts.
type Model struct {
	code *ngram // nil once finalized
	data *ngram

	// uniDiff[a] and biDiff[a*numTok+b] are log P_code - log P_data of a
	// chain's first token a and of the step a -> b: one table probe per
	// scored token.
	uniDiff [numTok]float64
	biDiff  []float64 // nil until finalized
}

// NewModel returns an empty, untrained model.
func NewModel() *Model {
	return &Model{code: newNgram(), data: newNgram()}
}

// AddCode trains the code model from ground-truth instruction starts over a
// superset graph (pairs of adjacent instructions in layout order). It
// must not be called after Finalize.
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
// token-at-fallthrough). It must not be called after Finalize.
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
// prior for data kinds absent from the training corpus). It must not be
// called after Finalize.
func (m *Model) AddRandomData(code []byte, base uint64) {
	g := superset.Build(code, base)
	all := make([]bool, len(code))
	for i := range all {
		all[i] = true
	}
	m.AddData(g, all)
}

// Finalize builds the scoring tables from the training counts and drops
// the counts. Must be called exactly once, after training and before
// scoring. Each model's smoothed log-probability is log(count+alpha)
// minus the log of its row's smoothed total (of all observations', for
// a chain's first token).
func (m *Model) Finalize() {
	c, d := m.code, m.data
	m.biDiff = make([]float64, numTok*numTok)
	uniDenC, uniDenD := logDen(c.uniTot), logDen(d.uniTot)
	for a := 0; a < numTok; a++ {
		row := a * numTok
		cRow, dRow := c.bi[row:row+numTok], d.bi[row:row+numTok]
		var totC, totD uint64
		for b := range cRow {
			totC += uint64(cRow[b])
			totD += uint64(dRow[b])
		}
		denC, denD := logDen(totC), logDen(totD)
		diff := m.biDiff[row : row+numTok]
		for b := range diff {
			diff[b] = (logCount(cRow[b]) - denC) - (logCount(dRow[b]) - denD)
		}
		m.uniDiff[a] = (logCount(c.uni[a]) - uniDenC) - (logCount(d.uni[a]) - uniDenD)
	}
	m.code, m.data = nil, nil
}

// Ready reports whether the model is finalized.
func (m *Model) Ready() bool { return m.biDiff != nil }

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
		score += m.Step(prev, tok)
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

// Step returns one chain step's log-odds term: that of tok as the
// chain's first token when prev < 0, else that of the step prev -> tok.
// LogOdds sums these terms, and analysis.StatRecords, which walks the
// chain once for its score and its behaviour penalty together, reads
// the same table entries.
func (m *Model) Step(prev, tok int) float64 {
	if prev < 0 {
		return m.uniDiff[tok]
	}
	return m.biDiff[prev*numTok+tok]
}

// ScoreAll computes the per-offset normalized log-odds (score/steps) for
// every offset; invalid offsets get large negative values. It runs
// serially on the calling goroutine. It and ScoreRangesInto are the
// reference the pipeline's fused walk (analysis.StatRecords) is checked
// against.
func (m *Model) ScoreAll(g *superset.Graph, window int) []float64 {
	out := make([]float64, g.Len())
	m.scoreWindowInto(out, g, window, 0, g.Len())
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
			m.scoreWindowInto(out[from:], g, window, from, w[1])
		}
	}
}

// scoreWindowInto computes the per-offset values of [from, to) into a
// window-relative buffer: out[i] receives the score of offset from+i.
// Values are bit-identical to the corresponding slice of a full scoring
// pass (LogOdds reads only the graph). It is the one scoring loop behind
// ScoreAll and ScoreRangesInto. len(out) must be at least to-from.
func (m *Model) scoreWindowInto(out []float64, g *superset.Graph, window, from, to int) {
	if from < 0 {
		from = 0
	}
	if to > g.Len() {
		to = g.Len()
	}
	for off := from; off < to; off++ {
		out[off-from] = m.Score(g, off, window)
	}
}

// Score is the value ScoreAll reports at off: LogOdds' score over its
// steps, or -1e9 when no step is scored. The pipeline's gap fill calls
// it at each gap start instead of keeping scores.
func (m *Model) Score(g *superset.Graph, off, window int) float64 {
	s, n := m.LogOdds(g, off, window)
	if n == 0 {
		return -1e9
	}
	return s / float64(n)
}
