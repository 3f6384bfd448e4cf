package correct

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"probedis/internal/analysis"
	"probedis/internal/superset"
	"probedis/internal/synth"
)

// quickGraph is a fixed, data-dense graph shared by the invariant tests.
func quickGraph(t testing.TB) (*superset.Graph, []bool) {
	t.Helper()
	b, err := synth.Generate(synth.Config{Seed: 95, Profile: synth.ProfileComplex, NumFuncs: 8})
	if err != nil {
		t.Fatal(err)
	}
	g := superset.Build(b.Code, b.Base)
	return g, analysis.Viability(g)
}

// genHints produces an arbitrary (often nonsensical) hint list.
func genHints(rng *rand.Rand, n int) []analysis.Hint {
	hs := make([]analysis.Hint, rng.Intn(64))
	prios := []int{analysis.PrioProof, analysis.PrioStrong, analysis.PrioMedium,
		analysis.PrioStat, analysis.PrioWeak}
	for i := range hs {
		hs[i] = analysis.Hint{
			Kind:  analysis.Kind(rng.Intn(2)),
			Off:   rng.Intn(n+64) - 32, // some out of range
			Len:   rng.Intn(64),
			Prio:  prios[rng.Intn(len(prios))],
			Score: rng.Float64() * 20,
			Src:   "fuzz",
		}
	}
	return hs
}

// TestQuickCorrectionInvariants feeds arbitrary hints: whatever garbage
// arrives, the outcome must satisfy the structural invariants —
// instruction starts only at viable offsets, instructions tile without
// overlap, instruction bytes are Code, every byte is classified, and each
// code byte's instruction is the nearest instruction start before it.
func TestQuickCorrectionInvariants(t *testing.T) {
	g, viable := quickGraph(t)
	cfg := &quick.Config{
		MaxCount: 300,
		Values: func(vals []reflect.Value, rng *rand.Rand) {
			vals[0] = reflect.ValueOf(genHints(rng, g.Len()))
		},
	}
	f := func(hints []analysis.Hint) bool {
		out := Run(g, viable, hints, Options{})
		owners(t, g, out)
		covered := make([]bool, g.Len())
		for off := 0; off < g.Len(); off++ {
			if !out.InstStart[off] {
				continue
			}
			if !viable[off] || !g.Valid(off) {
				return false
			}
			from, to := g.Occupies(off)
			for i := from; i < to; i++ {
				if covered[i] || out.State[i] != Code {
					return false
				}
				covered[i] = true
			}
		}
		for i := 0; i < g.Len(); i++ {
			if out.State[i] == Unknown {
				return false // gap fill must classify everything
			}
			if out.State[i] == Code && !covered[i] {
				return false // code bytes must belong to an instruction
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDeterminism: the same hints (in any slice order) must produce
// the same outcome — commit order depends only on (prio, score, off, kind).
func TestQuickDeterminism(t *testing.T) {
	g, viable := quickGraph(t)
	cfg := &quick.Config{
		MaxCount: 150,
		Values: func(vals []reflect.Value, rng *rand.Rand) {
			vals[0] = reflect.ValueOf(genHints(rng, g.Len()))
			vals[1] = reflect.ValueOf(rng.Int63())
		},
	}
	f := func(hints []analysis.Hint, seed int64) bool {
		a := Run(g, viable, hints, Options{})
		shuffled := make([]analysis.Hint, len(hints))
		copy(shuffled, hints)
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		b := Run(g, viable, shuffled, Options{})
		for i := range a.State {
			if a.State[i] != b.State[i] || a.InstStart[i] != b.InstStart[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
