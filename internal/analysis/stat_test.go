package analysis

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"probedis/internal/stats"
	"probedis/internal/superset"
	"probedis/internal/synth"
)

var (
	statModelOnce sync.Once
	statModel     *stats.Model
)

// testStatModel trains a small model once: two binaries of every
// profile for code and data, plus random bytes as a data prior.
func testStatModel() *stats.Model {
	statModelOnce.Do(func() {
		m := stats.NewModel()
		for i, p := range synth.DefaultProfiles {
			for j := range 2 {
				b, err := synth.Generate(synth.Config{Seed: int64(900 + 2*i + j), Profile: p, NumFuncs: 10})
				if err != nil {
					panic(err)
				}
				g := superset.Build(b.Code, b.Base)
				m.AddCode(g, b.Truth.InstStart)
				isData := make([]bool, len(b.Code))
				for k, c := range b.Truth.Classes {
					isData[k] = c.IsData()
				}
				m.AddData(g, isData)
			}
		}
		soup := make([]byte, 1<<12)
		rand.New(rand.NewSource(9)).Read(soup)
		m.AddRandomData(soup, 0x700000)
		m.Finalize()
		statModel = m
	})
	return statModel
}

// Penalty weights and thresholds the walk is checked at: a negative
// weight (the penalty then raises scores), none, and two positive ones;
// thresholds either side of zero and past most scores.
var (
	statWeights    = []float64{-1, 0, 0.5, 1}
	statThresholds = []float64{-2, 0, 0.25, 4}
)

// checkStatRecords requires StatRecords over each window to produce,
// at every weight and threshold, the hints StatHintsRange emits over
// whole-section ScoreAll scores: the same offsets in the same order, with
// bit-identical scores. It returns the number of records compared.
func checkStatRecords(t *testing.T, g *superset.Graph, viable []bool, windows [][2]int) int {
	t.Helper()
	m := testStatModel()
	scores := m.ScoreAll(g, StatWindow)
	compared := 0
	var want []Hint
	var got []StatRec
	for _, w := range statWeights {
		for _, th := range statThresholds {
			want, got = want[:0], got[:0]
			for _, win := range windows {
				want = StatHintsRange(g, viable, scores, w, th, win[0], win[1], want)
				got = StatRecords(g, viable, m, w, th, win[0], win[1], got)
			}
			if len(got) != len(want) {
				t.Fatalf("weight %v threshold %v windows %v: %d records, reference has %d hints",
					w, th, windows, len(got), len(want))
			}
			for i, r := range got {
				h := want[i]
				if r.Off != h.Off || math.Float64bits(r.Score) != math.Float64bits(h.Score) || r.Hint() != h {
					t.Fatalf("weight %v threshold %v: record %d is %+v, reference hint %+v", w, th, i, r, h)
				}
			}
			compared += len(got)
		}
	}
	return compared
}

// randomWindows draws up to eight windows over a section of n bytes,
// some reaching past either end.
func randomWindows(rng *rand.Rand, n int) [][2]int {
	ws := make([][2]int, 1+rng.Intn(8))
	for i := range ws {
		from := rng.Intn(n+16) - 8
		ws[i] = [2]int{from, from + rng.Intn(n+16)}
	}
	return ws
}

// TestStatRecordsMatchStatHints runs the check over a real section of
// every profile, whole and in random windows, with the pipeline's
// viability mask and with every offset viable (so invalid decodes reach
// the walk's own validity test).
func TestStatRecordsMatchStatHints(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	compared := 0
	for i, p := range synth.DefaultProfiles {
		_, g := genBin(t, int64(60+i), p, 12)
		all := make([]bool, g.Len())
		for k := range all {
			all[k] = true
		}
		for _, viable := range [][]bool{Viability(g), all} {
			compared += checkStatRecords(t, g, viable, [][2]int{{0, g.Len()}})
			compared += checkStatRecords(t, g, viable, randomWindows(rng, g.Len()))
		}
	}
	if compared == 0 {
		t.Fatal("no records emitted: the walk was never compared")
	}
}

// FuzzStatRecordsMatchStatHints extends the check to fuzzed bytes at a
// fuzzed section base, with windows drawn from a fuzzed seed. Run with
// `go test -fuzz=FuzzStatRecordsMatchStatHints ./internal/analysis`.
func FuzzStatRecordsMatchStatHints(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	for i, p := range synth.DefaultProfiles[:3] {
		b, _ := genBin(f, int64(80+i), p, 3)
		f.Add(b.Code, b.Base, int64(i), false)
	}
	soup := make([]byte, 512)
	rng.Read(soup)
	f.Add(soup, uint64(1<<64-256), int64(5), true)
	f.Fuzz(func(t *testing.T, code []byte, base uint64, seed int64, allViable bool) {
		if len(code) == 0 || len(code) > 4<<10 {
			return
		}
		g := superset.Build(code, base)
		viable := Viability(g)
		if allViable {
			for k := range viable {
				viable[k] = true
			}
		}
		checkStatRecords(t, g, viable, randomWindows(rand.New(rand.NewSource(seed)), g.Len()))
	})
}
