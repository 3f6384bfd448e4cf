// Package correct implements the prioritized error-correction algorithm
// that combines the statistical and behavioural evidence into a final
// byte-precise code/data classification.
//
// Hints are committed in priority order. Committing a code hint decodes
// and occupies the instruction chain it implies (fallthrough edges and
// direct branch targets are forced facts); committing a data hint reserves
// bytes as data. Every commitment constrains later, lower-priority hints:
// a hint whose region conflicts with already-committed facts is rejected —
// this is how high-confidence structural proofs "correct" the errors the
// purely statistical layer would make.
package correct

import (
	"cmp"
	"context"
	"math"
	"slices"

	"probedis/internal/analysis"
	"probedis/internal/ctxutil"
	"probedis/internal/obs"
	"probedis/internal/superset"
)

// State is the correction state of one byte.
type State uint8

// Byte states.
const (
	Unknown State = iota
	Code
	Data
)

// Options tunes a correction run.
type Options struct {
	// MaxHints stops after committing/rejecting this many hints
	// (0 = no limit). Used by the convergence experiment (F3).
	MaxHints int
	// Scores are the per-offset statistical scores used to resolve
	// leftover unknown gaps (nil disables score-guided gap fill and
	// treats unresolvable gaps as data).
	Scores []float64
	// ScoreAt is a lazy alternative to Scores, consulted only when
	// Scores is nil: gap fill reads a score only at each gap start, so
	// the pipeline computes just those (stats.Model.Score) instead of
	// holding a score per section or per contested byte.
	ScoreAt func(off int) float64
	// NoGapFill leaves Unknown bytes unresolved (ablation).
	NoGapFill bool
	// NoRetract skips the contradiction-retraction fixpoint, leaving the
	// raw post-commit state. oracle.CheckTier uses it to recompute the
	// state after the structural commit prefix, and the package tests use
	// it to feed the reference fixpoint.
	NoRetract bool
	// Trace, when non-nil, receives one child span per correction phase
	// (sort, commit, retract, gapfill) plus the committed/rejected/
	// retracted counters. Nil (the default) traces nothing.
	Trace *obs.Span
}

// Outcome is the result of a correction run. A byte is covered by a
// committed instruction exactly when its State is Code; that instruction
// starts at the nearest InstStart at or before the byte, at most
// x86.MaxInstLen-1 bytes back, since committed instructions never overlap.
type Outcome struct {
	State     []State
	InstStart []bool

	// Srcs interns the hint sources; SrcOf[i] indexes into it and names
	// the analysis whose hint decided byte i (code or data). Index 0 is
	// always "" (undecided / gap fill).
	Srcs  []string
	SrcOf []uint8

	Committed int // hints that contributed at least one new byte
	Rejected  int // hints dropped due to conflicts
	Retracted int // committed instructions undone by the retraction pass
}

// SrcName returns the name of the analysis that decided byte i
// ("gapfill" when no hint claimed it).
func (o *Outcome) SrcName(i int) string {
	if s := o.Srcs[o.SrcOf[i]]; s != "" {
		return s
	}
	return "gapfill"
}

// commitCheckInterval is the number of hint commits between cancellation
// polls in the commit loop. Commits are orders of magnitude
// heavier than offset scans, so the interval is correspondingly smaller
// than ctxutil.CheckInterval.
const commitCheckInterval = 256

// Run executes single-phase prioritized error correction over the
// superset graph: hints are consumed in SortHints order and viable gates
// all code commits. It is the uncancellable reference for RunTiered
// (which the pipeline runs) and the only path that honours MaxHints.
func Run(g *superset.Graph, viable []bool, hints []analysis.Hint, opts Options) *Outcome {
	c := newCorrector(g, viable)
	c.commitHints(nil, nil, hints, opts.MaxHints, opts.Trace, "") // a nil ctx never cancels
	out, _ := c.finish(nil, opts)
	return out
}

// PhaseFunc produces the second-phase input of a tiered run, given the
// outcome of the structural commit prefix: the statistical hints as
// records, in ascending offset order with each offset at most once, and
// the remaining hints. The records stand for the hints
// analysis.StatRec.Hint returns, listed before the remaining hints.
// Implementations may read o (typically the Unknown runs, which delimit
// the contested windows) but must not mutate it.
type PhaseFunc func(o *Outcome) ([]analysis.StatRec, []analysis.Hint)

// PhaseHintsFunc produces the second-phase hint stream of a tiered run
// that has no statistical records (see PhaseFunc).
type PhaseHintsFunc func(o *Outcome) []analysis.Hint

// RunTiered executes correction in two phases. Phase one commits the
// structural hints; rest then inspects the intermediate state and returns
// the remaining statistical records and hints, which phase two merges
// into one commit order; retraction and gap fill run once, after both
// phases. It reorders the records slice as scratch space.
//
// The result is byte-identical to a single Run over the combined hint
// stream whenever (a) every structural hint outranks everything rest
// returns (the priority-first sort then concatenates the two phases
// exactly as the single sorted stream would), and (b) rest returns the
// hints the single run would have carried at offsets still undecided —
// hints at already-decided offsets are provable no-ops, because the
// commit phase is monotone: instruction starts are never cleared and
// data bytes never reclassified until the retraction fixpoint, which
// here runs only after all commits, exactly as in the single run.
//
// MaxHints is not supported on this path (the budget experiment replays
// single-phase runs) and is ignored.
//
// Cancellation is cooperative: the commit loops poll ctx every
// commitCheckInterval commits, the retraction worklist every
// ctxutil.CheckInterval pops and the gap-fill scan every
// ctxutil.CheckInterval offsets. Once the context is done the run aborts
// and returns (nil, ctx.Err()) — the partial outcome is discarded, never
// returned, so callers can't mistake an aborted classification for a
// complete one. A nil ctx never cancels.
func RunTiered(ctx context.Context, g *superset.Graph, viable []bool, structural []analysis.Hint, rest PhaseFunc, opts Options) (*Outcome, error) {
	c := newCorrector(g, viable)
	if err := c.commitHints(ctx, nil, structural, 0, opts.Trace, "-structural"); err != nil {
		return nil, err
	}
	stat, hints := rest(c.out)
	if ctxutil.Cancelled(ctx) {
		return nil, ctxutil.Err(ctx)
	}
	if err := c.commitHints(ctx, stat, hints, 0, opts.Trace, "-contested"); err != nil {
		return nil, err
	}
	return c.finish(ctx, opts)
}

// RunTieredContext is RunTiered with a second phase of hints only. The
// pipeline calls RunTiered; only bench's layer-by-layer replay calls this.
func RunTieredContext(ctx context.Context, g *superset.Graph, viable []bool, structural []analysis.Hint, rest PhaseHintsFunc, opts Options) (*Outcome, error) {
	return RunTiered(ctx, g, viable, structural, func(o *Outcome) ([]analysis.StatRec, []analysis.Hint) {
		return nil, rest(o)
	}, opts)
}

// newCorrector allocates the outcome; the work buffers grow from nil on
// first use and live for one run. The retraction edge list is presized
// instead, to one edge per 32 section bytes: most generator profiles
// commit one per 35 to 50 bytes. Denser sections (inline jump tables,
// real .text at one per 21 to 30) double it by hand rather than regrow
// it through append's smaller steps.
func newCorrector(g *superset.Graph, viable []bool) *corrector {
	n := g.Len()
	o := &Outcome{
		State:     make([]State, n),
		InstStart: make([]bool, n),
		Srcs:      []string{""},
		SrcOf:     make([]uint8, n),
	}
	return &corrector{g: g, viable: viable, out: o, edges: make([]uint64, 0, n/32),
		srcIdx: map[string]uint8{"": 0}}
}

// commitHints sorts one phase's statistical records and hints into
// commit order and consumes them, merging the two sorted streams by the
// full commit-order key. label suffixes the trace span names so a tiered
// run's two phases stay distinguishable in stage-cost tables. maxHints
// truncates the hints; it is set only by Run, which has no records.
func (c *corrector) commitHints(ctx context.Context, stat []analysis.StatRec, hints []analysis.Hint, maxHints int, trace *obs.Span, label string) error {
	o := c.out
	ssp := trace.StartChild("sort" + label)
	var statSrc uint8
	if len(stat) > 0 {
		// The records stand for hints that lead the phase's stream, so
		// their source is interned before the hints' own.
		statSrc = c.internSrc(analysis.StatSrc)
		stat = c.sortStat(stat)
	}
	recs := c.sortOrder(hints)
	ssp.Count("hints", int64(len(stat)+len(hints)))
	ssp.End()

	csp := trace.StartChild("commit" + label)
	defer csp.End()
	if maxHints > 0 && len(recs) > maxHints {
		recs = recs[:maxHints]
	}
	order := phaseOrder{stat: stat, recs: recs, hints: hints}
	for n := 0; ; n++ {
		s, r := order.next()
		if s == nil && r == nil {
			return nil
		}
		if n&(commitCheckInterval-1) == 0 && ctxutil.Cancelled(ctx) {
			return ctxutil.Err(ctx)
		}
		var ok bool
		if s != nil {
			c.curSrc = statSrc
			ok = c.commitChain(s.Off)
		} else {
			c.curSrc = r.src
			switch r.kind {
			case analysis.HintCode:
				ok = c.commitChain(int(r.off))
			case analysis.HintData:
				ok = c.commitData(int(r.off), int(r.len))
			}
		}
		if ok {
			o.Committed++
		} else {
			o.Rejected++
		}
	}
}

// phaseOrder merges one phase's two sorted streams, its statistical
// records and its hint records, into commit order.
type phaseOrder struct {
	stat  []analysis.StatRec
	recs  []commitRec
	hints []analysis.Hint // the hints recs index
	i, j  int             // the next record of each stream
}

// next returns the next record in commit order, a statistical record s
// or a hint record r, or two nils once both streams are drained.
func (m *phaseOrder) next() (s *analysis.StatRec, r *commitRec) {
	switch {
	case m.i < len(m.stat) && (m.j == len(m.recs) || statFirst(m.stat[m.i], &m.recs[m.j], m.hints)):
		m.i++
		return &m.stat[m.i-1], nil
	case m.j < len(m.recs):
		m.j++
		return nil, &m.recs[m.j-1]
	}
	return nil, nil
}

// statFirst reports whether the statistical record r commits before the
// hint record h: by key, then, on equal keys, by the tie rule. r's hint
// leads the stream, so it goes first unless h's hint is canonically
// smaller.
func statFirst(r analysis.StatRec, h *commitRec, hints []analysis.Hint) bool {
	// The high word holds the priority and the score's top 56 bits.
	if hi := analysis.PrioStat<<56 | scoreKey(r.Score)>>8; hi != h.hi {
		return hi > h.hi
	}
	hi, lo := statKey(r)
	if hi != h.hi || lo != h.lo {
		return hi > h.hi || hi == h.hi && lo > h.lo
	}
	return !hints[h.idx].Less(r.Hint())
}

// finish runs the post-commit phases — retraction fixpoint and gap fill —
// and returns the completed outcome.
func (c *corrector) finish(ctx context.Context, opts Options) (*Outcome, error) {
	o := c.out
	if !opts.NoRetract {
		rsp := opts.Trace.StartChild("retract")
		rsp.Count("seeds", int64(len(c.seeds)))
		rsp.Count("edges", int64(len(c.edges)))
		retracted, err := c.retract(ctx)
		rsp.End()
		if err != nil {
			return nil, err
		}
		o.Retracted = retracted
	}
	if !opts.NoGapFill {
		gsp := opts.Trace.StartChild("gapfill")
		err := c.fillGaps(ctx, opts.Scores, opts.ScoreAt)
		gsp.End()
		if err != nil {
			return nil, err
		}
	}
	if opts.Trace != nil {
		opts.Trace.Count("committed", int64(o.Committed))
		opts.Trace.Count("rejected", int64(o.Rejected))
		opts.Trace.Count("retracted", int64(o.Retracted))
	}
	return o, nil
}

// retract is the error-correction fixpoint: committed instructions whose
// forced successor turned out to be data (or the middle of another
// committed instruction) were wrong — un-commit them, turning their bytes
// into data, until no contradiction remains. Returns the number of
// instructions retracted. The worklist polls ctx once per
// ctxutil.CheckInterval pops and aborts with ctx.Err() when cancelled.
//
// Retraction is monotone — turning an instruction's bytes to data can only
// make other instructions bad, never good — so the fixpoint is unique and
// any visiting order reaches it. The worklist starts from commitChain's
// seeds, which hold every instruction contradicted when the commit phase
// ends (see commitChain). Retracting [a, b) can only newly contradict an
// instruction with a forced successor in [a, b): the instruction covering
// a-1 (the only one that can fall through to a) or a branch source
// targeting the range, found in the edge list sorted once by target.
func (c *corrector) retract(ctx context.Context) (int, error) {
	slices.Sort(c.edges)
	work := c.seeds
	retracted := 0
	for pops := 0; len(work) > 0; pops++ {
		if pops%ctxutil.CheckInterval == 0 && ctxutil.Cancelled(ctx) {
			return 0, ctxutil.Err(ctx)
		}
		off := int(work[len(work)-1])
		work = work[:len(work)-1]
		if !c.out.InstStart[off] || !c.contradicted(off) {
			continue // stale edge or duplicate seed
		}
		a, b := c.uncommit(off)
		retracted++
		if a > 0 && c.out.State[a-1] == Code {
			// Committed instructions never overlap, so the one covering
			// a-1 starts at the nearest instruction start, at most
			// x86.MaxInstLen-1 bytes back.
			j := a - 1
			for !c.out.InstStart[j] {
				j--
			}
			work = append(work, int32(j))
		}
		i, _ := slices.BinarySearch(c.edges, uint64(a)<<32)
		for ; i < len(c.edges) && int(c.edges[i]>>32) < b; i++ {
			work = append(work, int32(uint32(c.edges[i])))
		}
	}
	return retracted, nil
}

// contradicted reports whether the committed instruction at off has a
// forced successor that escapes the section, is data, or lands inside
// another committed instruction: the predicate retraction and gap fill's
// tile unwinding both remove instructions by.
func (c *corrector) contradicted(off int) bool {
	ft, tgt := c.g.ForcedSuccs(off)
	for _, s := range [2]int{ft, tgt} {
		if s == superset.Escape || s >= 0 && (c.out.State[s] == Data ||
			c.out.State[s] == Code && !c.out.InstStart[s]) {
			return true
		}
	}
	return false
}

// uncommit turns the committed instruction at off into data and returns
// the byte range [a, b) it occupied.
func (c *corrector) uncommit(off int) (a, b int) {
	a, b = c.g.Occupies(off)
	for i := a; i < b; i++ {
		c.out.State[i] = Data
		c.out.SrcOf[i] = 0
	}
	c.out.InstStart[off] = false
	return a, b
}

// commitRec is one hint in the form the commit loop reads: its commit-order
// key and the fields the commit paths take, packed into 32 bytes, so
// neither the sort nor the loop rereads the hint. off is -1 when the
// hint's offset lies outside [0, 2^31), which both commit paths reject:
// a section's offsets fit in int32, as the retraction edges and seeds
// also assume.
type commitRec struct {
	hi, lo   uint64 // commit-order key, compared descending
	off, len int32
	idx      int32 // position in the hint stream, for the tie rule
	src      uint8 // interned hint source
	kind     analysis.Kind
}

// radixMin is the record count below which sortOrder runs one comparison
// sort instead of the radix passes.
const radixMin = 256

// sortOrder returns one record per hint, in commit order (the order
// analysis.SortHints produces), interning each hint's source as it goes.
//
// Key layout, compared descending: priority (8 bits) | score as an
// order-preserving float64 bit pattern (64 bits, split across the words) |
// 9 zero bits | bitwise-inverted offset (46 bits) | code before data (1
// bit). The offset sits at the bottom of lo, so in a section under 8 MiB
// it and the kind vary in only three key bytes, three radix passes. The
// score keeps full precision, so keys collide only for hints agreeing on
// priority, score, offset and kind, or on a field the key saturates (a
// priority outside [0, 255], an offset outside [0, 2^46), a kind other
// than code); a saturated field sets every field after it to its extreme,
// so the key never contradicts the canonical order. Colliding keys fall
// back to that order (analysis.Hint.Less — source name, then length), so
// the commit order never depends on the order the analyses — possibly
// running concurrently — emitted the hints in.
func (c *corrector) sortOrder(hints []analysis.Hint) []commitRec {
	n := len(hints)
	if cap(c.recs) < n {
		c.recs = make([]commitRec, n)
	}
	recs := c.recs[:n]
	var counts [16][256]int // histogram of every key byte, for the radix passes
	var lastSrc string
	var src uint8
	for i := range hints {
		h := &hints[i]
		// Consecutive hints usually share a source (each analysis emits
		// its hints together under one name); skip the intern-map lookup
		// while the source repeats.
		if i == 0 || h.Src != lastSrc {
			src = c.internSrc(h.Src)
			lastSrc = h.Src
		}
		r := &recs[i]
		r.hi, r.lo = hintKey(h)
		r.off, r.len = -1, int32(min(max(h.Len, 0), math.MaxInt32))
		if h.Off >= 0 && h.Off <= math.MaxInt32 {
			r.off = int32(h.Off)
		}
		r.idx, r.src, r.kind = int32(i), src, h.Kind
		if n >= radixMin {
			for b := range 8 {
				counts[b][r.radixByte(b)]++
				counts[8+b][r.radixByte(8+b)]++
			}
		}
	}
	if n < radixMin {
		slices.SortFunc(recs, func(a, b commitRec) int { return commitCmp(&a, &b, hints) })
		return recs
	}
	if cap(c.tmp) < n {
		c.tmp = make([]commitRec, n)
	}
	return sortRecs(recs, c.tmp[:n], &counts, hints)
}

// hintKey packs h's commit-order key (see sortOrder).
func hintKey(h *analysis.Hint) (hi, lo uint64) {
	const offBits = 46
	switch {
	case h.Prio < 0:
		return 0, 0
	case h.Prio > 255:
		return math.MaxUint64, math.MaxUint64
	}
	sbits := scoreKey(h.Score)
	var tail uint64 // inverted offset | code bit
	switch {
	case h.Off < 0:
		tail = 1<<(offBits+1) - 1
	case uint64(h.Off) < 1<<offBits:
		tail = (1<<offBits - 1 - uint64(h.Off)) << 1
		if h.Kind == analysis.HintCode {
			tail |= 1
		}
	}
	return uint64(h.Prio)<<56 | sbits>>8, sbits<<56 | tail
}

// scoreKey is the order-preserving transform of a score's float64 bit
// pattern: descending unsigned order matches descending float order, and
// -0 and +0, which compare equal as floats, map alike.
func scoreKey(s float64) uint64 {
	if s == 0 {
		s = 0 // collapse -0 onto +0
	}
	// Flip the sign bit for non-negatives, all bits for negatives.
	b := math.Float64bits(s)
	if b&(1<<63) == 0 {
		return b | 1<<63
	}
	return ^b
}

// statKey is the commit-order key of r's hint.
func statKey(r analysis.StatRec) (hi, lo uint64) {
	h := analysis.Hint{Kind: analysis.HintCode, Off: r.Off, Prio: analysis.PrioStat, Score: r.Score}
	return hintKey(&h)
}

// sortStat orders statistical records into commit order, the order
// analysis.SortHints gives their hints: score descending, then offset
// ascending, since the hints agree on every other field. The records
// enter in ascending offset order, so a stable LSD radix sort over the
// bytes of the score's key alone produces it, skipping the byte
// positions constant across the records, with c.statTmp as the second
// buffer. It returns whichever of the two buffers holds the result.
func (c *corrector) sortStat(recs []analysis.StatRec) []analysis.StatRec {
	n := len(recs)
	if n < 2 {
		return recs
	}
	// The histogram of every byte of the complemented key, unrolled: a
	// loop over the byte positions made the whole sort about a fifth
	// slower.
	var counts [8][256]int
	for i := range recs {
		k := ^scoreKey(recs[i].Score)
		counts[0][byte(k)]++
		counts[1][byte(k>>8)]++
		counts[2][byte(k>>16)]++
		counts[3][byte(k>>24)]++
		counts[4][byte(k>>32)]++
		counts[5][byte(k>>40)]++
		counts[6][byte(k>>48)]++
		counts[7][byte(k>>56)]++
	}
	first := ^scoreKey(recs[0].Score)
	src, dst := recs, []analysis.StatRec(nil)
	for p := range counts {
		shift := 8 * uint(p)
		cnt := &counts[p]
		if cnt[byte(first>>shift)] == n {
			continue
		}
		if dst == nil {
			if cap(c.statTmp) < n {
				c.statTmp = make([]analysis.StatRec, n)
			}
			dst = c.statTmp[:n]
		}
		var next [256]int
		sum := 0
		for v, k := range cnt {
			next[v] = sum
			sum += k
		}
		for i := range src {
			b := byte(^scoreKey(src[i].Score) >> shift)
			dst[next[b]] = src[i]
			next[b]++
		}
		src, dst = dst, src
	}
	return src
}

// sortRecs sorts recs into commit order with a stable LSD radix sort over
// the bytes of the complemented (hi, lo), using tmp as the second buffer,
// and returns whichever of the two holds the result. counts holds the
// histogram of all 16 byte positions, taken as the records were built; a
// position where every record has the same byte moves nothing and is
// skipped. The records enter in hint order, so each run of equal keys
// leaves the radix passes in idx order, and the tie rule then sorts it.
func sortRecs(recs, tmp []commitRec, counts *[16][256]int, hints []analysis.Hint) []commitRec {
	src, dst := recs, tmp
	for p := range counts {
		cnt := &counts[p]
		if cnt[src[0].radixByte(p)] == len(src) {
			continue
		}
		var next [256]int
		sum := 0
		for v, k := range cnt {
			next[v] = sum
			sum += k
		}
		// One copy of the scatter per key word: choosing the word per
		// record made the whole sort about 15% slower.
		shift := 8 * uint(p&7)
		if p < 8 {
			for i := range src {
				b := byte(^src[i].lo >> shift)
				dst[next[b]] = src[i]
				next[b]++
			}
		} else {
			for i := range src {
				b := byte(^src[i].hi >> shift)
				dst[next[b]] = src[i]
				next[b]++
			}
		}
		src, dst = dst, src
	}
	for i := 0; i < len(src); {
		j := i + 1
		for j < len(src) && src[j].hi == src[i].hi && src[j].lo == src[i].lo {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(src[i:j], func(a, b commitRec) int { return tieCmp(&a, &b, hints) })
		}
		i = j
	}
	return src
}

// radixByte returns byte p (0 the lowest of lo, 15 the highest of hi) of
// the complemented key, whose ascending order is commit order.
func (r *commitRec) radixByte(p int) byte {
	w := r.lo
	if p >= 8 {
		w = r.hi
	}
	return byte(^w >> (8 * (p & 7)))
}

// commitCmp orders records: descending (hi, lo), then the tie rule. The
// order is total and strict (idx is unique), so no two records ever
// compare equal and any correct sort produces the same permutation.
func commitCmp(a, b *commitRec, hints []analysis.Hint) int {
	if c := cmp.Compare(b.hi, a.hi); c != 0 {
		return c
	}
	if c := cmp.Compare(b.lo, a.lo); c != 0 {
		return c
	}
	return tieCmp(a, b, hints)
}

// tieCmp is the tie rule for records with equal keys: the canonical hint
// order, then the position in the hint stream.
func tieCmp(a, b *commitRec, hints []analysis.Hint) int {
	switch ha, hb := &hints[a.idx], &hints[b.idx]; {
	case ha.Less(*hb):
		return -1
	case hb.Less(*ha):
		return 1
	}
	return cmp.Compare(a.idx, b.idx)
}

type corrector struct {
	g      *superset.Graph
	viable []bool
	out    *Outcome
	// Work buffers, reused across the run's commits and scans.
	stack []uint64 // commitChain's pending successors, source<<32 | successor
	tiles []int    // gap fill's committed tile starts
	// The forced successors of the offset canPlace last passed.
	ft, tgt int
	// The commit records and the radix sort's second buffer, reused by
	// the second phase of a tiered run, and the statistical records' second
	// buffer.
	recs, tmp []commitRec
	statTmp   []analysis.StatRec

	// Retraction's worklist inputs, recorded by commitChain. Offsets fit
	// in int32, so an edge packs into one word.
	seeds []int32  // committed instructions with a forced successor not placed
	edges []uint64 // committed direct-branch edges, target<<32 | source

	srcIdx map[string]uint8
	curSrc uint8
}

// internSrc maps a hint source name to its index in Outcome.Srcs. The
// table is capped at 255 distinct names (ample for the fixed analysis
// set); overflow collapses to index 0.
func (c *corrector) internSrc(s string) uint8 {
	if i, ok := c.srcIdx[s]; ok {
		return i
	}
	if len(c.out.Srcs) >= 255 {
		return 0
	}
	i := uint8(len(c.out.Srcs))
	c.out.Srcs = append(c.out.Srcs, s)
	c.srcIdx[s] = i
	return i
}

// canPlace reports whether a new instruction can be committed at off
// without contradicting existing facts: every byte it occupies is still
// Unknown, and none of its forced successors starts on a data byte. When
// it passes, it leaves those successors in c.ft and c.tgt.
func (c *corrector) canPlace(off int) bool {
	if off < 0 || off >= c.g.Len() || !c.viable[off] {
		return false
	}
	from, to := c.g.Occupies(off)
	if from == to {
		return false // invalid decode: an instruction must occupy its bytes
	}
	for i := from; i < to; i++ {
		if c.out.State[i] != Unknown {
			return false // data, or part of a committed instruction
		}
	}
	// One-step lookahead: an instruction whose forced successor starts on
	// a proven-data byte cannot be code (code never falls into data).
	c.ft, c.tgt = c.g.ForcedSuccs(off)
	for _, s := range [2]int{c.ft, c.tgt} {
		if s >= 0 && c.out.State[s] == Data {
			return false
		}
	}
	return true
}

// commitChain commits the instruction at off and transitively everything
// it forces (fallthrough, direct targets). Paths that hit a contradiction
// are abandoned without rolling back the consistent prefix. Returns false
// if nothing new was committed.
//
// It also records retraction's inputs. Every forced successor it pushes is
// either committed, already an instruction start, or fails canPlace; only
// the last (and an escaping successor) can be or become a contradiction,
// so their sources are the seeds. Each direct branch whose target is not
// the instruction's end becomes an edge; the instruction falling through
// to an offset is found by looking back from it instead.
func (c *corrector) commitChain(off int) bool {
	if !c.canPlace(off) {
		return false
	}
	c.stack = c.stack[:0]
	for o := off; ; {
		// canPlace(o) passed and left o's forced successors in c.ft and
		// c.tgt.
		from, to := c.g.Occupies(o)
		for i := from; i < to; i++ {
			c.out.State[i] = Code
			c.out.SrcOf[i] = c.curSrc
		}
		c.out.InstStart[o] = true
		for _, s := range [2]int{c.ft, c.tgt} {
			if s == superset.NoSucc {
				continue
			}
			if s == superset.Escape {
				c.seeds = append(c.seeds, int32(o))
				continue
			}
			if s != to {
				if len(c.edges) == cap(c.edges) {
					c.edges = slices.Grow(c.edges, len(c.edges))
				}
				c.edges = append(c.edges, uint64(s)<<32|uint64(o))
			}
			c.stack = append(c.stack, uint64(o)<<32|uint64(s))
		}
		for {
			if len(c.stack) == 0 {
				return true
			}
			e := c.stack[len(c.stack)-1]
			c.stack = c.stack[:len(c.stack)-1]
			o = int(uint32(e))
			if c.out.InstStart[o] {
				continue
			}
			if c.canPlace(o) {
				break
			}
			c.seeds = append(c.seeds, int32(e>>32))
		}
	}
}

// commitData reserves [off, off+n) as data, skipping bytes already proven
// code. Returns false when a majority of the region was already code (the
// hint is considered refuted).
func (c *corrector) commitData(off, n int) bool {
	if n <= 0 || off < 0 || off >= c.g.Len() {
		return false
	}
	end := off + n
	if end > c.g.Len() {
		end = c.g.Len()
	}
	placed, blocked := 0, 0
	for i := off; i < end; i++ {
		switch c.out.State[i] {
		case Code:
			blocked++
		case Unknown:
			c.out.State[i] = Data
			c.out.SrcOf[i] = c.curSrc
			placed++
		}
	}
	return placed > 0 && blocked <= placed
}

// fillGaps resolves remaining Unknown runs. A gap whose start scores
// code-like is tiled with a linear decode chain; anything that cannot be
// tiled consistently becomes data. The scan polls ctx once per
// ctxutil.CheckInterval offsets of progress and aborts with ctx.Err()
// when cancelled; a nil ctx never polls.
func (c *corrector) fillGaps(ctx context.Context, scores []float64, scoreAt func(int) float64) error {
	n := c.g.Len()
	nextCheck := ctxutil.CheckInterval
	for a := 0; a < n; {
		if a >= nextCheck {
			if ctxutil.Cancelled(ctx) {
				return ctxutil.Err(ctx)
			}
			nextCheck = a + ctxutil.CheckInterval
		}
		if c.out.State[a] != Unknown {
			a++
			continue
		}
		b := a
		for b < n && c.out.State[b] == Unknown {
			b++
		}
		c.fillGap(a, b, scores, scoreAt)
		a = b
	}
	return nil
}

func (c *corrector) fillGap(a, b int, scores []float64, scoreAt func(int) float64) {
	codeLike := true
	switch {
	case scores != nil:
		codeLike = a < len(scores) && scores[a] > 0
	case scoreAt != nil:
		codeLike = scoreAt(a) > 0
	}
	// A gap that tiles exactly with NOP-family instructions is alignment
	// padding: emit it as code regardless of its statistical score (NOP
	// padding is valid, never-executed code).
	if !codeLike && c.nopTiles(a, b) {
		codeLike = true
	}
	// Tile starts committed into this gap, kept for the post-derail
	// consistency sweep below.
	tiles := c.tiles[:0]
	derailed := false
	pos := a
	for pos < b {
		if codeLike && c.canPlace(pos) {
			from, to := c.g.Occupies(pos)
			// Only tile instructions that fit inside the gap: poking into
			// the committed region past b would contradict it.
			if to <= b {
				for i := from; i < to; i++ {
					c.out.State[i] = Code
				}
				c.out.InstStart[pos] = true
				tiles = append(tiles, pos)
				pos = to
				continue
			}
		}
		// Not tilable as code: data byte.
		c.out.State[pos] = Data
		pos++
		codeLike = false // once derailed, finish the gap as data
		derailed = true
	}
	// A derail rewrites the gap's tail as data after earlier tiles were
	// already committed; a tile whose forced successor now lands on those
	// data bytes (a fallthrough into the tail, or a branch ahead of the
	// derail point) is the very contradiction retraction removes — but
	// retraction already ran. Restore consistency locally.
	if derailed && len(tiles) > 0 {
		c.unwindTiles(tiles)
	}
	c.tiles = tiles[:0]
}

// unwindTiles retracts gap tiles invalidated by a mid-gap derail, to a
// fixpoint: retracting one tile turns its bytes into data, which can
// invalidate the tile falling into it, and so on backward through the
// gap. It re-checks only this gap's tiles: a commit-phase instruction
// falling into the derailed tail stays (DESIGN.md, committed-chain
// closure is not an invariant).
func (c *corrector) unwindTiles(tiles []int) {
	for changed := true; changed; {
		changed = false
		for i, t := range tiles {
			if t < 0 || !c.contradicted(t) {
				continue
			}
			c.uncommit(t)
			c.out.Retracted++
			tiles[i] = -1
			changed = true
		}
	}
}

// nopTiles reports whether the non-empty range [a, b) decodes as a pure
// run of NOP-family instructions ending exactly at b. An empty range is
// not padding: the vacuous-truth answer would flip fillGap's
// classification for zero-length gaps.
func (c *corrector) nopTiles(a, b int) bool {
	if a >= b {
		return false
	}
	pos := a
	for pos < b {
		e := c.g.At(pos)
		if !e.Valid() || !e.IsNop() {
			return false
		}
		pos += e.Len()
	}
	return pos == b
}
