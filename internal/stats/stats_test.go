package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"probedis/internal/superset"
	"probedis/internal/synth"
	"probedis/internal/x86"
)

// trainModel fits a model on a small corpus (seeds disjoint from eval).
func trainModel(t testing.TB) *Model {
	t.Helper()
	m := trainCounts(t)
	m.Finalize()
	return m
}

// trainCounts is trainModel before Finalize: the model holds only its
// training counts.
func trainCounts(t testing.TB) *Model {
	t.Helper()
	m := NewModel()
	for seed, p := range map[int64]synth.Profile{
		1001: synth.ProfileO0, 1002: synth.ProfileO2, 1003: synth.ProfileComplex,
	} {
		b, err := synth.Generate(synth.Config{Seed: seed, Profile: p, NumFuncs: 60})
		if err != nil {
			t.Fatal(err)
		}
		g := superset.Build(b.Code, b.Base)
		m.AddCode(g, b.Truth.InstStart)
		isData := make([]bool, len(b.Code))
		for i, c := range b.Truth.Classes {
			isData[i] = c.IsData()
		}
		m.AddData(g, isData)
	}
	rng := rand.New(rand.NewSource(99))
	soup := make([]byte, 1<<14)
	rng.Read(soup)
	m.AddRandomData(soup, 0x500000)
	return m
}

// denseDiff is Finalize's reference: each model's counts become a dense
// float64 table, finalized in place into smoothed log-probabilities
// (every row summed, then every entry logged), and the code and data
// tables are subtracted entry by entry.
func denseDiff(code, data *ngram) (uniDiff [numTok]float64, biDiff []float64) {
	logP := func(n *ngram) (uni [numTok]float64, bi []float64) {
		bi = make([]float64, numTok*numTok)
		for i, c := range n.bi {
			bi[i] = float64(c)
		}
		for a := 0; a < numTok; a++ {
			var t float64
			for b := 0; b < numTok; b++ {
				t += bi[a*numTok+b]
			}
			den := math.Log(t + alpha*numTok)
			for b := 0; b < numTok; b++ {
				bi[a*numTok+b] = math.Log(bi[a*numTok+b]+alpha) - den
			}
			uni[a] = math.Log(float64(n.uni[a])+alpha) - math.Log(float64(n.uniTot)+alpha*numTok)
		}
		return uni, bi
	}
	cu, cb := logP(code)
	du, db := logP(data)
	biDiff = make([]float64, numTok*numTok)
	for i := range biDiff {
		biDiff[i] = cb[i] - db[i]
	}
	for a := range uniDiff {
		uniDiff[a] = cu[a] - du[a]
	}
	return uniDiff, biDiff
}

// sameBits fails t at the first entry where got and want differ in any
// bit.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), want %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestFinalizeMatchesDenseReference: the score tables Finalize builds from
// integer counts are bit-identical to the dense float64 reference, on a
// trained model and on hand-set rows that are empty in both models, in
// one of them, or mix zero, small and near-maximal counts.
func TestFinalizeMatchesDenseReference(t *testing.T) {
	hand := NewModel()
	hand.code.addPair(1, 7) // row 1: code only
	hand.data.addPair(2, 0) // row 2: data only
	hand.data.addOne(2)
	for b, c := range []uint32{0, 1, 0, 3, math.MaxUint32, 0, 12345} { // row 3: both
		hand.code.bi[3*numTok+b] = c
		hand.data.bi[3*numTok+numTok-1-b] = c / 2
	}
	hand.code.uni[3], hand.code.uniTot = math.MaxUint32, math.MaxUint32+9
	hand.data.uni[3], hand.data.uniTot = 7, 9
	for name, m := range map[string]*Model{"trained": trainCounts(t), "hand-set": hand} {
		wantUni, wantBi := denseDiff(m.code, m.data)
		m.Finalize()
		sameBits(t, name+" uniDiff", m.uniDiff[:], wantUni[:])
		sameBits(t, name+" biDiff", m.biDiff, wantBi)
	}
}

// TestFinalizedModelRetainsOnlyScoreTables pins a finalized model's
// retained heap, measured as TestViabilityRetainsOnlyMask measures: once
// Finalize returns and a GC runs, only the score tables stay live (8 MiB
// of biDiff and 8 KiB of uniDiff). A model that kept its training counts
// would retain 8 MiB more; one that kept them as float64 16 MiB more.
func TestFinalizedModelRetainsOnlyScoreTables(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := trainModel(t)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)
	mib := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / (1 << 20)
	t.Logf("a trained model retains %.2f MiB", mib)
	if mib > 8.1 {
		t.Fatalf("a trained model retains %.2f MiB after GC, want at most 8.1 (the score tables alone are 8.0)", mib)
	}
}

// TestModelDiscriminates: on a held-out binary, true instruction starts
// must score higher on average than data offsets, with a usable margin.
func TestModelDiscriminates(t *testing.T) {
	m := trainModel(t)
	b, err := synth.Generate(synth.Config{Seed: 42, Profile: synth.ProfileComplex, NumFuncs: 60})
	if err != nil {
		t.Fatal(err)
	}
	g := superset.Build(b.Code, b.Base)
	scores := m.ScoreAll(g, 8)

	var codeSum, dataSum float64
	var codeN, dataN int
	var codePos, dataPos int // how many score > 0
	for off := range scores {
		if scores[off] <= -1e8 {
			continue
		}
		switch {
		case b.Truth.InstStart[off]:
			codeSum += scores[off]
			codeN++
			if scores[off] > 0 {
				codePos++
			}
		case b.Truth.Classes[off].IsData():
			dataSum += scores[off]
			dataN++
			if scores[off] > 0 {
				dataPos++
			}
		}
	}
	if codeN == 0 || dataN == 0 {
		t.Fatalf("degenerate corpus: codeN=%d dataN=%d", codeN, dataN)
	}
	codeMean, dataMean := codeSum/float64(codeN), dataSum/float64(dataN)
	t.Logf("code mean=%.3f (%d/%d positive), data mean=%.3f (%d/%d positive)",
		codeMean, codePos, codeN, dataMean, dataPos, dataN)
	if codeMean <= dataMean+0.5 {
		t.Errorf("model does not discriminate: code %.3f vs data %.3f", codeMean, dataMean)
	}
	if float64(codePos)/float64(codeN) < 0.80 {
		t.Errorf("only %d/%d true instructions score positive", codePos, codeN)
	}
	if float64(dataPos)/float64(dataN) > 0.50 {
		t.Errorf("%d/%d data offsets score positive", dataPos, dataN)
	}
}

func TestLogOddsInvalidStart(t *testing.T) {
	m := trainModel(t)
	g := superset.Build([]byte{0x06, 0x90}, 0) // invalid first byte
	s, steps := m.LogOdds(g, 0, 8)
	if steps != 0 || s > -1e8 {
		t.Errorf("invalid start: score=%v steps=%d", s, steps)
	}
}

func TestTokenSpace(t *testing.T) {
	cases := []struct {
		bytes []byte
		lo    int
	}{
		{[]byte{0x90}, 0},                              // one-byte map
		{[]byte{0x0f, 0x05}, 256},                      // 0F map
		{[]byte{0x66, 0x0f, 0x38, 0x40, 0xc1}, 512},    // 38 map
		{[]byte{0x66, 0x0f, 0x3a, 0x22, 0xc0, 1}, 768}, // 3A map
	}
	for _, c := range cases {
		inst, err := x86.Decode(c.bytes, 0)
		if err != nil {
			t.Fatal(err)
		}
		tok := Token(&inst)
		if tok < c.lo || tok >= c.lo+256 {
			t.Errorf("Token(% x) = %d, want in [%d,%d)", c.bytes, tok, c.lo, c.lo+256)
		}
	}
}

func TestPrintableRuns(t *testing.T) {
	code := append([]byte{0x90, 0x90}, []byte("hello world")...)
	code = append(code, 0, 0)
	code = append(code, 0xc3)
	runs := PrintableRuns(code, 6)
	if len(runs) != 1 {
		t.Fatalf("runs = %v", runs)
	}
	if runs[0].From != 2 || runs[0].To != 2+11+2 {
		t.Errorf("run = %+v", runs[0])
	}
	// Short strings are not flagged.
	if runs := PrintableRuns([]byte("hi\x00"), 6); len(runs) != 0 {
		t.Errorf("short string flagged: %v", runs)
	}
	// Printable run terminated by a non-NUL, non-printable byte is not
	// flagged. (A run reaching the section end IS flagged — see
	// TestPrintableRunsBoundaries.)
	if runs := PrintableRuns(append([]byte("just text no nul"), 0x90), 6); len(runs) != 0 {
		t.Errorf("unterminated run flagged: %v", runs)
	}
}

// TestPrintableRunsBoundaries pins the section-edge behavior: a printable
// run ending exactly at the section end counts as terminated (the NUL of a
// section-final string island lives in the next section), while interior
// runs still require a NUL.
func TestPrintableRunsBoundaries(t *testing.T) {
	cases := []struct {
		name string
		in   []byte
		min  int
		want []Run
	}{
		{"interior NUL-terminated", []byte("\x90abcdef\x00\x90"), 6, []Run{{1, 8}}},
		{"ends at section end, no NUL", []byte("\x90abcdefgh"), 6, []Run{{1, 9}}},
		{"whole section printable", []byte("abcdefgh"), 6, []Run{{0, 8}}},
		{"NUL exactly at section end", []byte("\x90abcdef\x00"), 6, []Run{{1, 8}}},
		{"interior run, non-NUL terminator", []byte("\x90abcdef\x90\x90"), 6, nil},
		{"too short at section end", []byte("\x90abc"), 6, nil},
		{"trailing NULs absorbed", []byte("abcdef\x00\x00\x00"), 6, []Run{{0, 9}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := PrintableRuns(c.in, c.min)
			if len(got) != len(c.want) {
				t.Fatalf("runs = %v, want %v", got, c.want)
			}
			for i := range got {
				if got[i] != c.want[i] {
					t.Errorf("run %d = %+v, want %+v", i, got[i], c.want[i])
				}
			}
		})
	}
}

// TestFillRunsEdges pins fill-run detection at both section edges.
func TestFillRunsEdges(t *testing.T) {
	cases := []struct {
		name string
		in   []byte
		min  int
		want []Run
	}{
		{"run at section start", append(make([]byte, 8), 0xc3), 8, []Run{{0, 8}}},
		{"run at section end", append([]byte{0xc3}, make([]byte, 8)...), 8, []Run{{1, 9}}},
		{"whole section fill", make([]byte, 8), 8, []Run{{0, 8}}},
		{"int3 fill at end", []byte{0xc3, 0xcc, 0xcc, 0xcc, 0xcc, 0xcc, 0xcc, 0xcc, 0xcc}, 8, []Run{{1, 9}}},
		{"short run at end", append([]byte{0xc3}, make([]byte, 7)...), 8, nil},
		{"mixed fill bytes do not merge", []byte{0, 0, 0, 0, 0xcc, 0xcc, 0xcc, 0xcc}, 8, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := FillRuns(c.in, c.min)
			if len(got) != len(c.want) {
				t.Fatalf("runs = %v, want %v", got, c.want)
			}
			for i := range got {
				if got[i] != c.want[i] {
					t.Errorf("run %d = %+v, want %+v", i, got[i], c.want[i])
				}
			}
		})
	}
}

func TestFillRuns(t *testing.T) {
	code := []byte{0xc3}
	code = append(code, make([]byte, 12)...)
	code = append(code, 0xc3)
	for i := 0; i < 9; i++ {
		code = append(code, 0xcc)
	}
	runs := FillRuns(code, 8)
	if len(runs) != 2 {
		t.Fatalf("runs = %v", runs)
	}
	if runs[0].Len() != 12 || runs[1].Len() != 9 {
		t.Errorf("runs = %v", runs)
	}
	if runs := FillRuns(make([]byte, 7), 8); len(runs) != 0 {
		t.Errorf("short fill flagged: %v", runs)
	}
}

func TestPointerArrays(t *testing.T) {
	base := uint64(0x400000)
	code := make([]byte, 64)
	// Three in-range pointers at offset 8.
	for i := 0; i < 3; i++ {
		binary.LittleEndian.PutUint64(code[8+8*i:], base+uint64(16*i))
	}
	runs := PointerArrays(code, base, 3)
	if len(runs) != 1 || runs[0].From > 8 || runs[0].To < 32 {
		t.Fatalf("runs = %v", runs)
	}
	// Out-of-range values are not pointers. (All-zero bytes point below base.)
	if runs := PointerArrays(make([]byte, 64), base, 2); len(runs) != 0 {
		t.Errorf("zeros flagged as pointers: %v", runs)
	}
}

func TestOffsetTables(t *testing.T) {
	code := make([]byte, 64)
	// Offsets 16, 20, 24 relative to the table at offset 0.
	for i := 0; i < 4; i++ {
		binary.LittleEndian.PutUint32(code[4*i:], uint32(16+4*i))
	}
	runs := OffsetTables(code, 4)
	if len(runs) == 0 || runs[0].From != 0 {
		t.Fatalf("runs = %v", runs)
	}
}

func BenchmarkScoreAll(b *testing.B) {
	m := trainModel(b)
	bin, err := synth.Generate(synth.Config{Seed: 50, Profile: synth.ProfileO2, NumFuncs: 60})
	if err != nil {
		b.Fatal(err)
	}
	g := superset.Build(bin.Code, bin.Base)
	b.SetBytes(int64(len(bin.Code)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ScoreAll(g, 8)
	}
}
