package eval

import (
	"sync"
	"testing"

	"probedis/internal/core"
)

// The differential regression suite pins the paper's T2 ordering as a
// per-engine contract rather than a single headline ratio: the full
// system must be strictly best on instruction F1 against EVERY baseline,
// and the statistics-only configuration must already beat the classic
// engines (linear sweep and both recursive variants). A refactor that
// silently weakens one engine or leaks ground truth into another shows
// up here as a broken inequality, with the engine named.

var (
	diffOnce sync.Once
	diffM    map[string]*Metrics
)

// diffMetrics scores every engine once over the shared small corpus, as
// T2 does, and caches the result (engines are deterministic; the corpus
// is seeded).
func diffMetrics(t testing.TB) map[string]*Metrics {
	t.Helper()
	diffOnce.Do(func() {
		diffM = map[string]*Metrics{}
		for _, s := range smallRunner(t).corpusScores() {
			diffM[s.name] = &s.total
		}
	})
	return diffM
}

func TestDifferentialCoreBeatsEveryBaseline(t *testing.T) {
	m := diffMetrics(t)
	coreF1 := m["probedis"].InstF1()
	if coreF1 <= 0 {
		t.Fatalf("core inst-F1 = %v", coreF1)
	}
	cases := []struct {
		baseline string
		margin   float64 // minimum F1 gap the core must keep
	}{
		{"linear-sweep", 0.01},
		{"recursive", 0.01},
		{"recursive+heur", 0.01},
		{"stat-only", 0}, // strict, but statistics alone get close
	}
	for _, tc := range cases {
		t.Run(tc.baseline, func(t *testing.T) {
			bm, ok := m[tc.baseline]
			if !ok {
				t.Fatalf("baseline %q missing from engine set", tc.baseline)
			}
			if f1 := bm.InstF1(); f1 >= coreF1-tc.margin {
				t.Errorf("%s inst-F1 %.4f not strictly below core %.4f (margin %.2f)",
					tc.baseline, f1, coreF1, tc.margin)
			}
		})
	}
}

// TestDifferentialStatOnlyBeatsClassic: the paper's intermediate claim —
// the statistical model alone (no corrective analyses) already
// outperforms the classic metadata-free engines.
func TestDifferentialStatOnlyBeatsClassic(t *testing.T) {
	m := diffMetrics(t)
	statF1 := m["stat-only"].InstF1()
	for _, classic := range []string{"linear-sweep", "recursive", "recursive+heur"} {
		t.Run(classic, func(t *testing.T) {
			if f1 := m[classic].InstF1(); f1 >= statF1 {
				t.Errorf("%s inst-F1 %.4f >= stat-only %.4f", classic, f1, statF1)
			}
		})
	}
}

// TestDifferentialErrorFactorOrdering mirrors the F1 contract in the
// paper's headline unit (errors per 1k true instructions): core lowest,
// and no baseline at zero (a zero-error baseline means the corpus got
// too easy to discriminate engines).
func TestDifferentialErrorFactorOrdering(t *testing.T) {
	m := diffMetrics(t)
	coreF := m["probedis"].ErrorFactor()
	for name, bm := range m {
		if name == "probedis" {
			continue
		}
		f := bm.ErrorFactor()
		if f <= coreF {
			t.Errorf("%s error factor %.2f <= core %.2f", name, f, coreF)
		}
		if f == 0 {
			t.Errorf("%s made zero errors — corpus no longer discriminates", name)
		}
	}
}

// TestDifferentialStableUnderReruns guards the determinism the whole
// suite leans on: scoring the same engine on a freshly rebuilt (same
// spec) corpus must reproduce identical metrics.
func TestDifferentialStableUnderReruns(t *testing.T) {
	r1 := smallRunner(t)
	r2 := smallRunner(t)
	d := core.New(r1.Model)
	a := ScoreCorpus(d, r1.Corpus)
	b := ScoreCorpus(d, r2.Corpus)
	if a != b {
		t.Errorf("metrics differ across identical corpus builds:\n%+v\n%+v", a, b)
	}
}
