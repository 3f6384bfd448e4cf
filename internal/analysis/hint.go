// Package analysis implements the static analyses of the disassembler: the
// behavioural properties of code that flag data (invalid-chain viability,
// stack/register sanity, rare-opcode penalties) and the structural pattern
// analyses that prove facts (jump tables, call-target anchors, prologues,
// fill/string/pointer data patterns).
//
// Every analysis emits Hints: prioritized, scored claims that a region is
// code or data. The prioritized error-correction algorithm (package
// correct) consumes them.
package analysis

import "sort"

// Kind says what a hint claims.
type Kind uint8

// Hint kinds.
const (
	HintCode Kind = iota // an instruction starts at Off
	HintData             // bytes [Off, Off+Len) are data
)

func (k Kind) String() string {
	if k == HintCode {
		return "code"
	}
	return "data"
}

// Priority bands, highest first. Proofs come from structural facts (a
// decoded jump table and its targets); strong hints from multi-witness
// evidence; medium from single-pattern matches; statistical hints carry
// the probabilistic model's log-odds; weak hints are tie-breakers.
const (
	PrioProof  = 100
	PrioStrong = 80
	PrioMedium = 60
	PrioStat   = 40
	PrioWeak   = 20
)

// Hint is one prioritized claim about the binary.
type Hint struct {
	Kind Kind
	Off  int // section offset
	Len  int // region length for HintData; ignored for HintCode
	Prio int // priority band; higher commits first
	// Score orders hints within a band (higher first). For statistical
	// hints it is the |log-odds| of the classification.
	Score float64
	// Src names the analysis that produced the hint (diagnostics).
	Src string
}

// SortHints orders hints for the corrector: by priority, then score, then
// offset, kind, source and length. The key is total — any remaining tie is
// between byte-identical hints — so the commit order is independent of the
// order the analyses emitted them in, which is what lets hint collection
// run on a worker pool without changing results.
func SortHints(hs []Hint) {
	sort.Slice(hs, func(i, j int) bool {
		return hintLess(&hs[i], &hs[j])
	})
}

// hintLess is the total commit-order key shared by SortHints and the
// corrector's radix-ordered commit records (which fall back to it on key
// collisions).
func hintLess(a, b *Hint) bool {
	if a.Prio != b.Prio {
		return a.Prio > b.Prio
	}
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	if a.Off != b.Off {
		return a.Off < b.Off
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	return a.Len < b.Len
}

// Less reports whether a commits before b under the canonical total order.
func (a Hint) Less(b Hint) bool { return hintLess(&a, &b) }
