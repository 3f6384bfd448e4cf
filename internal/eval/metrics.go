// Package eval measures disassembly engines against generated ground
// truth and regenerates every table and figure of the evaluation (see
// DESIGN.md for the experiment index and EXPERIMENTS.md for results).
package eval

import (
	"fmt"

	"probedis/internal/dis"
	"probedis/internal/synth"
)

// Metrics holds the accuracy measures for one engine on one binary (or
// accumulated across a corpus).
type Metrics struct {
	Bytes     int // total bytes scored
	ByteFP    int // data bytes classified code
	ByteFN    int // code bytes classified data
	TrueInsts int
	InstTP    int
	InstFP    int
	InstFN    int

	TrueFuncs int
	FuncTP    int
	FuncFP    int

	// DataByClass[c] / DataTotal[c]: bytes of ground-truth class c that
	// were (correctly) classified as data, and the class totals.
	DataByClass [synth.NumClasses]int
	DataTotal   [synth.NumClasses]int
}

// Add accumulates m2 into m.
func (m *Metrics) Add(m2 Metrics) {
	m.Bytes += m2.Bytes
	m.ByteFP += m2.ByteFP
	m.ByteFN += m2.ByteFN
	m.TrueInsts += m2.TrueInsts
	m.InstTP += m2.InstTP
	m.InstFP += m2.InstFP
	m.InstFN += m2.InstFN
	m.TrueFuncs += m2.TrueFuncs
	m.FuncTP += m2.FuncTP
	m.FuncFP += m2.FuncFP
	for i := range m.DataByClass {
		m.DataByClass[i] += m2.DataByClass[i]
		m.DataTotal[i] += m2.DataTotal[i]
	}
}

// ByteErrRate is the fraction of bytes misclassified.
func (m *Metrics) ByteErrRate() float64 {
	if m.Bytes == 0 {
		return 0
	}
	return float64(m.ByteFP+m.ByteFN) / float64(m.Bytes)
}

// InstPrecision is TP/(TP+FP) over emitted instructions.
func (m *Metrics) InstPrecision() float64 { return ratio(m.InstTP, m.InstTP+m.InstFP) }

// InstRecall is TP/(TP+FN) over ground-truth instructions.
func (m *Metrics) InstRecall() float64 { return ratio(m.InstTP, m.InstTP+m.InstFN) }

// InstF1 is the harmonic mean of instruction precision and recall.
func (m *Metrics) InstF1() float64 {
	p, r := m.InstPrecision(), m.InstRecall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// ErrorFactor is (FP+FN) per 1000 true instructions — the quantity the
// paper's "3X to 4X more accurate" compares.
func (m *Metrics) ErrorFactor() float64 {
	if m.TrueInsts == 0 {
		return 0
	}
	return float64(m.InstFP+m.InstFN) / float64(m.TrueInsts) * 1000
}

// FuncPrecision / FuncRecall cover function-start identification.
func (m *Metrics) FuncPrecision() float64 { return ratio(m.FuncTP, m.FuncTP+m.FuncFP) }

// FuncRecall is TP over ground-truth function count.
func (m *Metrics) FuncRecall() float64 { return ratio(m.FuncTP, m.TrueFuncs) }

// FuncF1 is the harmonic mean of function precision and recall.
func (m *Metrics) FuncF1() float64 {
	p, r := m.FuncPrecision(), m.FuncRecall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// DataRecall returns the detected fraction for a ground-truth data class.
func (m *Metrics) DataRecall(c synth.ByteClass) float64 {
	return ratio(m.DataByClass[c], m.DataTotal[c])
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Score compares an engine result against ground truth.
func Score(b *synth.Binary, res *dis.Result) Metrics {
	if res.Len() != len(b.Code) {
		panic(fmt.Sprintf("eval: result size %d != binary size %d", res.Len(), len(b.Code)))
	}
	return ScoreTruth(b.Truth, res)
}

// ScoreCorpus runs one engine over a corpus and sums its metrics.
func ScoreCorpus(e dis.Engine, corpus []*synth.Binary) Metrics {
	var total Metrics
	for _, b := range corpus {
		total.Add(Score(b, e.Disassemble(b.Code, b.Base, int(b.Entry-b.Base))))
	}
	return total
}

// ScoreTruth scores a result against bare ground truth, for callers that
// carry no synth.Binary wrapper — the verification oracle scores stitched
// multi-section results of transformed binaries against the original truth.
func ScoreTruth(truth *synth.Truth, res *dis.Result) Metrics {
	var m Metrics
	if res.Len() != len(truth.Classes) {
		panic(fmt.Sprintf("eval: result size %d != truth size %d", res.Len(), len(truth.Classes)))
	}
	m.Bytes = len(truth.Classes)
	for i, cls := range truth.Classes {
		truthCode := cls == synth.ClassCode
		switch {
		case res.IsCode[i] && !truthCode:
			m.ByteFP++
		case !res.IsCode[i] && truthCode:
			m.ByteFN++
		}
		if cls != synth.ClassCode {
			m.DataTotal[cls]++
			if !res.IsCode[i] {
				m.DataByClass[cls]++
			}
		}
		switch {
		case res.InstStart[i] && truth.InstStart[i]:
			m.InstTP++
		case res.InstStart[i]:
			m.InstFP++
		case truth.InstStart[i]:
			m.InstFN++
		}
	}
	m.TrueInsts = m.InstTP + m.InstFN

	truthFuncs := map[int]bool{}
	for _, f := range truth.FuncStarts {
		truthFuncs[f] = true
	}
	m.TrueFuncs = len(truthFuncs)
	for _, f := range res.FuncStarts {
		if truthFuncs[f] {
			m.FuncTP++
		} else {
			m.FuncFP++
		}
	}
	return m
}
