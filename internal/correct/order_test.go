package correct

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"probedis/internal/analysis"
	"probedis/internal/superset"
)

// orderCorrector is a corrector over a one-byte graph: sortOrder reads
// only the hints and the source table.
func orderCorrector() *corrector {
	return newCorrector(superset.Build([]byte{0xc3}, 0x1000), nil)
}

// checkCommitOrder requires sortOrder's records, read in order, to name
// exactly the hints analysis.SortHints puts in the same positions, value
// for value, and each record to carry its hint's offset (-1 outside
// [0, 2^31)), its length clamped to [0, MaxInt32], its kind and its
// interned source.
func checkCommitOrder(t *testing.T, c *corrector, hints []analysis.Hint) {
	t.Helper()
	recs := c.sortOrder(hints)
	want := slices.Clone(hints)
	analysis.SortHints(want)
	if len(recs) != len(hints) {
		t.Fatalf("%d records for %d hints", len(recs), len(hints))
	}
	seen := make([]bool, len(hints))
	for i, r := range recs {
		if r.idx < 0 || int(r.idx) >= len(hints) || seen[r.idx] {
			t.Fatalf("record %d: index %d repeated or out of range", i, r.idx)
		}
		seen[r.idx] = true
		h := hints[r.idx]
		if h != want[i] {
			t.Fatalf("position %d of %d: %+v, SortHints has %+v", i, len(hints), h, want[i])
		}
		off := int32(-1)
		if h.Off >= 0 && h.Off <= math.MaxInt32 {
			off = int32(h.Off)
		}
		n := int32(min(max(h.Len, 0), math.MaxInt32))
		if r.off != off || r.len != n || r.kind != h.Kind || c.out.Srcs[r.src] != h.Src {
			t.Fatalf("record %d: off %d len %d kind %d src %q, hint %+v",
				i, r.off, r.len, r.kind, c.out.Srcs[r.src], h)
		}
	}
}

// checkMergedOrder requires one phase's statistical records, ordered by
// sortStat and merged with sortOrder's hint records, to come out in
// exactly the order analysis.SortHints gives the equivalent stream: the
// records' hints, then the hints. stat must be in ascending offset order,
// each offset once, as the pipeline emits it.
func checkMergedOrder(t *testing.T, c *corrector, stat []analysis.StatRec, hints []analysis.Hint) {
	t.Helper()
	want := make([]analysis.Hint, 0, len(stat)+len(hints))
	for _, r := range stat {
		want = append(want, r.Hint())
	}
	want = append(want, hints...)
	analysis.SortHints(want)
	order := phaseOrder{stat: c.sortStat(slices.Clone(stat)), recs: c.sortOrder(hints), hints: hints}
	for i := range want {
		var got analysis.Hint
		switch s, r := order.next(); {
		case s != nil:
			got = s.Hint()
		case r != nil:
			got = hints[r.idx]
		default:
			t.Fatalf("streams drained after %d of %d records", i, len(want))
		}
		if got != want[i] {
			t.Fatalf("position %d of %d: %+v, SortHints has %+v", i, len(want), got, want[i])
		}
	}
	if s, r := order.next(); s != nil || r != nil {
		t.Fatalf("a record beyond the %d SortHints orders", len(want))
	}
}

// Field pools for the order tests: each holds the edges of its field's
// key encoding, so drawing from few values also forces ties.
var (
	orderPrios  = []int{math.MinInt, -1, 0, analysis.PrioWeak, analysis.PrioStat, analysis.PrioProof, 255, 256, math.MaxInt}
	orderScores = []float64{math.Inf(-1), -1e300, -2.5, -1, math.Copysign(0, -1), 0, 5e-324, 0.5, 1, 2.5, 1e300, math.Inf(1)}
	orderOffs   = []int{math.MinInt, -1 << 31, -33, -1, 0, 1, 2, 1<<31 - 1, 1 << 31, 1<<46 - 1, 1 << 46, math.MaxInt}
	orderLens   = []int{math.MinInt, -1, 0, 1, 15, math.MaxInt32, math.MaxInt32 + 1, math.MaxInt}
	orderSrcs   = []string{"", "calltarget", "datapattern", "stat", "weak"}
	orderKinds  = []analysis.Kind{analysis.HintCode, analysis.HintData, 2, 255}
)

// genOrderHints draws n hints. With ties set, every field comes from its
// small pool (few offsets, few scores including ±0, few priorities);
// otherwise fields are mostly random, with the pools' edge values mixed in.
func genOrderHints(rng *rand.Rand, n int, ties bool) []analysis.Hint {
	pick := func() bool { return ties || rng.Intn(8) == 0 }
	hs := make([]analysis.Hint, n)
	for i := range hs {
		h := analysis.Hint{
			Kind:  analysis.Kind(rng.Intn(2)),
			Prio:  []int{analysis.PrioProof, analysis.PrioStrong, analysis.PrioStat}[rng.Intn(3)],
			Score: rng.NormFloat64() * 8,
			Off:   rng.Intn(1 << 22),
			Len:   rng.Intn(64),
			Src:   orderSrcs[rng.Intn(len(orderSrcs))],
		}
		if pick() {
			h.Kind = orderKinds[rng.Intn(len(orderKinds))]
		}
		if pick() {
			h.Prio = orderPrios[rng.Intn(len(orderPrios))]
		}
		if pick() {
			h.Score = orderScores[rng.Intn(len(orderScores))]
		}
		if pick() {
			h.Off = orderOffs[rng.Intn(len(orderOffs))]
		}
		if pick() {
			h.Len = orderLens[rng.Intn(len(orderLens))]
		}
		hs[i] = h
	}
	return hs
}

// genStatRecs draws up to n statistical records in ascending offset
// order, each offset once. With ties set, offsets crowd [0, 2n+2) and
// every score comes from the order tests' pool, so runs of exactly equal
// scores are long; otherwise scores are mostly random.
func genStatRecs(rng *rand.Rand, n int, ties bool) []analysis.StatRec {
	offs := make([]int, n)
	for i := range offs {
		switch {
		case ties:
			offs[i] = rng.Intn(2*n + 2)
		case rng.Intn(8) == 0:
			offs[i] = max(orderOffs[rng.Intn(len(orderOffs))], 0)
		default:
			offs[i] = rng.Intn(1 << 22)
		}
	}
	slices.Sort(offs)
	offs = slices.Compact(offs)
	recs := make([]analysis.StatRec, len(offs))
	for i, off := range offs {
		recs[i] = analysis.StatRec{Score: rng.NormFloat64() * 8, Off: off}
		if ties || rng.Intn(8) == 0 {
			recs[i].Score = orderScores[rng.Intn(len(orderScores))]
		}
	}
	return recs
}

// TestMergedOrderMatchesSortHints: statistical records merged with hint
// streams at every priority, PrioStat and PrioWeak among them, commit in
// exactly SortHints' order of the equivalent hint stream: below and above
// the comparison sort's cutoff, with many exactly equal scores and
// offsets shared with the hints, both as drawn and flattened the way
// WithoutPrioritization flattens them (every score 0, every hint at
// PrioStat).
func TestMergedOrderMatchesSortHints(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	c := orderCorrector()
	prios := append([]int{analysis.PrioStrong, analysis.PrioMedium}, orderPrios...)
	for _, n := range []int{0, 1, radixMin - 1, radixMin, 3000} {
		for _, prio := range prios {
			for _, ties := range []bool{false, true} {
				stat := genStatRecs(rng, n, ties)
				hints := genOrderHints(rng, rng.Intn(300), ties)
				for i := range hints {
					hints[i].Prio = prio
					if ties && rng.Intn(2) == 0 {
						hints[i].Off = rng.Intn(2*n + 2)
					}
				}
				checkMergedOrder(t, c, stat, hints)
				for i := range stat {
					stat[i].Score = 0
				}
				for i := range hints {
					hints[i].Prio, hints[i].Score = analysis.PrioStat, 0
				}
				checkMergedOrder(t, c, stat, hints)
			}
		}
	}
}

// TestCommitOrderMatchesSortHints: the radix-ordered commit records
// reproduce analysis.SortHints exactly, below and above the comparison
// sort's cutoff, under heavy ties, at saturated key fields (priorities
// outside [0, 255], offsets outside [0, 2^46), kinds other than code and
// data) and for offsets and lengths past int32.
func TestCommitOrderMatchesSortHints(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	c := orderCorrector()
	for _, n := range []int{0, 1, 2, radixMin - 1, radixMin, radixMin + 1, 1000, 5000} {
		for _, ties := range []bool{false, true} {
			checkCommitOrder(t, c, genOrderHints(rng, n, ties))
		}
	}
	for trial := 0; trial < 200; trial++ {
		checkCommitOrder(t, c, genOrderHints(rng, rng.Intn(1200), trial%2 == 0))
	}
	// One priority, one score, two offsets: a single run of equal keys
	// per (offset, kind), ordered by source and length alone.
	hs := genOrderHints(rng, 3000, true)
	for i := range hs {
		hs[i].Prio, hs[i].Score, hs[i].Off = analysis.PrioStat, 1, i%2
	}
	checkCommitOrder(t, c, hs)
	checkCommitOrder(t, c, genHints(rng, 4096))
}

// FuzzCommitOrderMatchesSortHints extends the order differentials to
// fuzzed hints: every eight bytes of the input decode into one hint whose
// fields come from the order tests' pools or straight from the bytes.
// The hints alone must commit in SortHints order; then those with the
// last byte odd become statistical records (score and offset; the first
// at each offset kept), which merged with the rest must too.
// Run with `go test -fuzz=FuzzCommitOrderMatchesSortHints ./internal/correct`.
func FuzzCommitOrderMatchesSortHints(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{radixMin - 1, 3 * radixMin} {
		seed := make([]byte, 8*n)
		rng.Read(seed)
		f.Add(seed)
	}
	c := orderCorrector()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64<<10 {
			return
		}
		var hints []analysis.Hint
		var odd []bool
		for ; len(data) >= 8; data = data[8:] {
			w := data[:8]
			v := binary.LittleEndian.Uint16(w[6:])
			h := analysis.Hint{
				Kind:  orderKinds[w[0]&3],
				Prio:  orderPrios[int(w[0]>>2)%len(orderPrios)],
				Score: orderScores[int(w[1])%len(orderScores)],
				Off:   orderOffs[int(w[2])%len(orderOffs)],
				Len:   orderLens[int(w[3])%len(orderLens)],
				Src:   orderSrcs[int(w[4])%len(orderSrcs)],
			}
			if w[5]&1 != 0 {
				h.Off = int(v) - 64
			}
			if w[5]&2 != 0 {
				h.Score = float64(int16(v)) / 16
			}
			if w[5]&4 != 0 {
				h.Len = int(v)
			}
			if w[5]&8 != 0 {
				h.Prio = int(w[5] >> 4)
			}
			hints = append(hints, h)
			odd = append(odd, w[7]&1 != 0)
		}
		checkCommitOrder(t, c, hints)
		var stat []analysis.StatRec
		rest := hints[:0:0]
		for i, h := range hints {
			if odd[i] {
				stat = append(stat, analysis.StatRec{Score: h.Score, Off: h.Off})
			} else {
				rest = append(rest, h)
			}
		}
		slices.SortStableFunc(stat, func(a, b analysis.StatRec) int { return cmp.Compare(a.Off, b.Off) })
		stat = slices.CompactFunc(stat, func(a, b analysis.StatRec) bool { return a.Off == b.Off })
		checkMergedOrder(t, c, stat, rest)
	})
}
