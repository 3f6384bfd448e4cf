package analysis

import (
	"encoding/binary"
	"math"
	"sort"

	"probedis/internal/stats"
	"probedis/internal/superset"
	"probedis/internal/x86"
)

// EntryHint anchors the program entry point as proven code.
func EntryHint(g *superset.Graph, entry int) []Hint {
	if entry < 0 || entry >= g.Len() || !g.Valid(entry) {
		return nil
	}
	return []Hint{{Kind: HintCode, Off: entry, Prio: PrioProof, Score: math.Inf(1), Src: "entry"}}
}

// CallTargetHints counts, over all viable superset offsets, how many
// distinct direct-call sites target each offset. Offsets called from two
// or more places are near-certain function entries (behavioural property:
// data bytes rarely conspire to form multiple consistent calls to one
// target); single-caller targets are medium evidence.
func CallTargetHints(g *superset.Graph, viable []bool) []Hint {
	counts := make(map[int]int32)
	CallTargetCountsRange(g, viable, 0, g.Len(), counts)
	return CallTargetHintsFromCounts(counts)
}

func callTargetHint(t int, n int32) Hint {
	prio := PrioMedium
	if n >= 2 {
		prio = PrioStrong
	}
	return Hint{
		Kind: HintCode, Off: t, Prio: prio,
		Score: float64(n), Src: "calltarget",
	}
}

// CallTargetCountsRange accumulates, into counts, the per-target caller
// counts contributed by direct-call sites in [from, to). Targets may lie
// anywhere in the section: the caller-count property is global (two
// callers in different shards still prove one entry), so the sharded
// pipeline counts each shard's call sites separately and merges the maps
// before emitting hints via CallTargetHintsFromCounts. Only the graph's
// anchor sites can be direct calls, so the loop visits those alone.
func CallTargetCountsRange(g *superset.Graph, viable []bool, from, to int, counts map[int]int32) {
	for off := g.NextAnchor(from); off < to; off = g.NextAnchor(off + 1) {
		if !viable[off] || g.At(off).Flow != x86.FlowCall {
			continue
		}
		if t := g.TargetOff(off); t >= 0 && viable[t] {
			counts[t]++
		}
	}
}

// CallTargetHintsFromCounts emits the call-target hints of merged
// per-shard counts: targets in ascending offset order (sorted here,
// because map iteration is unordered), priority from the global caller
// total. Any tiling's merged counts give CallTargetHints' sequence.
func CallTargetHintsFromCounts(counts map[int]int32) []Hint {
	if len(counts) == 0 {
		return nil
	}
	targets := make([]int, 0, len(counts))
	for t := range counts {
		targets = append(targets, t)
	}
	sort.Ints(targets)
	hs := make([]Hint, 0, len(targets))
	for _, t := range targets {
		hs = append(hs, callTargetHint(t, counts[t]))
	}
	return hs
}

// prologuePatterns are byte sequences, at most four bytes each, that
// begin typical function prologues. Matches are only taken at plausibly
// function-aligned spots.
var prologuePatterns = [][]byte{
	{0xf3, 0x0f, 0x1e, 0xfa}, // endbr64
	{0x55, 0x48, 0x89, 0xe5}, // push rbp; mov rbp, rsp
	{0x55, 0x48, 0x83, 0xec}, // push rbp; sub rsp, imm8
	{0x41, 0x54, 0x55},       // push r12; push rbp
	{0x48, 0x83, 0xec},       // sub rsp, imm8
	{0x48, 0x81, 0xec},       // sub rsp, imm32
	{0x53, 0x48, 0x83, 0xec}, // push rbx; sub rsp
	{0x41, 0x57, 0x41, 0x56}, // push r15; push r14
}

// PrologueHints matches prologue byte patterns at offsets that follow a
// padding byte, a return/jump boundary, or 16-byte alignment.
func PrologueHints(g *superset.Graph, viable []bool) []Hint {
	return PrologueHintsRange(g, viable, 0, g.Len(), nil)
}

// PrologueHintsRange is PrologueHints restricted to match offsets in
// [from, to), appending to dst. The pattern bytes and the one-byte
// lookback read the section globally, so a shard sees exactly what the
// full scan sees at every offset it owns; concatenating the shards'
// output in shard order reproduces the full scan's sequence verbatim.
//
// Each offset costs one 32-bit load: its low two bytes index the
// prologuePairs bitset, which rejects almost every offset, and the
// masked-word tests (prologueAt) run only behind a set bit. Viability is
// read only at a match.
func PrologueHintsRange(g *superset.Graph, viable []bool, from, to int, dst []Hint) []Hint {
	hs := dst
	code := g.Code
	for off := from; off < to; off++ {
		var w uint32
		avail := len(code) - off
		if avail >= 4 {
			w = binary.LittleEndian.Uint32(code[off:])
		} else {
			// The last three offsets: zero-pad the bytes that remain.
			for k := avail - 1; k >= 0; k-- {
				w = w<<8 | uint32(code[off+k])
			}
		}
		if prologuePairs[uint16(w)>>6]&(1<<(w&63)) == 0 || !prologueAt(w, avail) || !viable[off] {
			continue
		}
		// Positional plausibility.
		plausible := off == 0 || off%16 == 0
		if !plausible {
			switch code[off-1] {
			case 0xc3, 0xcc, 0x00, 0x90:
				plausible = true
			}
		}
		if !plausible {
			continue
		}
		hs = append(hs, Hint{
			Kind: HintCode, Off: off, Prio: PrioMedium, Score: 4, Src: "prologue",
		})
	}
	return hs
}

// maskedWord is a byte pattern of up to four bytes as a little-endian
// word: a 32-bit load w at an offset starts the pattern when
// w&mask == word and at least n bytes remain.
type maskedWord struct {
	word, mask uint32
	n          int
}

// prologueWords is prologuePatterns as masked words, in pattern order.
var prologueWords = func() []maskedWord {
	ws := make([]maskedWord, len(prologuePatterns))
	for i, p := range prologuePatterns {
		for k := len(p) - 1; k >= 0; k-- {
			ws[i].word = ws[i].word<<8 | uint32(p[k])
			ws[i].mask = ws[i].mask<<8 | 0xff
		}
		ws[i].n = len(p)
	}
	return ws
}()

// prologuePairs has one bit per little-endian 16-bit word, set when some
// pattern can begin with those two bytes (any second byte, for a
// one-byte pattern): an 8 KiB bitset that rejects an offset with one
// load.
var prologuePairs = func() (t [1 << 16 / 64]uint64) {
	for _, p := range prologueWords {
		for b := uint32(0); b < 256; b++ {
			if pair := p.word&0xff | b<<8; pair&p.mask == p.word&0xffff {
				t[pair>>6] |= 1 << (pair & 63)
			}
		}
	}
	return
}()

// prologueAt reports whether the little-endian word w, read at an offset
// with avail bytes left in the section, starts a prologue pattern.
func prologueAt(w uint32, avail int) bool {
	for _, p := range prologueWords {
		if w&p.mask == p.word && p.n <= avail {
			return true
		}
	}
	return false
}

// DataPatternHints turns the raw statistical data detectors into hints.
func DataPatternHints(g *superset.Graph) []Hint {
	var hs []Hint
	for _, r := range stats.FillRuns(g.Code, 8) {
		hs = append(hs, Hint{Kind: HintData, Off: r.From, Len: r.Len(),
			Prio: PrioStrong, Score: float64(r.Len()), Src: "fill"})
	}
	for _, r := range stats.PrintableRuns(g.Code, 6) {
		hs = append(hs, Hint{Kind: HintData, Off: r.From, Len: r.Len(),
			Prio: PrioMedium, Score: float64(r.Len()), Src: "string"})
	}
	for _, r := range stats.PointerArrays(g.Code, g.Base, 3) {
		hs = append(hs, Hint{Kind: HintData, Off: r.From, Len: r.Len(),
			Prio: PrioMedium, Score: float64(r.Len()) / 8, Src: "ptrarray"})
	}
	for _, r := range stats.OffsetTables(g.Code, 4) {
		hs = append(hs, Hint{Kind: HintData, Off: r.From, Len: r.Len(),
			Prio: PrioWeak, Score: float64(r.Len()) / 4, Src: "offtable"})
	}
	return hs
}
