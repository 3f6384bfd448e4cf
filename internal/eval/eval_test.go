package eval

import (
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"probedis/internal/baseline"
	"probedis/internal/core"
	"probedis/internal/dis"
	"probedis/internal/synth"
)

func smallRunner(t testing.TB) *Runner {
	t.Helper()
	spec := DefaultCorpus()
	spec.PerProfile = 2
	spec.Funcs = 40
	corpus, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	return &Runner{Model: core.DefaultModel(), Corpus: corpus, RealDir: realDir}
}

func TestScoreAgainstPerfectResult(t *testing.T) {
	b, err := synth.Generate(synth.Config{Seed: 80, Profile: synth.ProfileO2, NumFuncs: 20})
	if err != nil {
		t.Fatal(err)
	}
	// Build a result straight from ground truth: zero error.
	res := dis.NewResult(b.Base, len(b.Code))
	for i, c := range b.Truth.Classes {
		res.IsCode[i] = c == synth.ClassCode
	}
	copy(res.InstStart, b.Truth.InstStart)
	res.FuncStarts = append(res.FuncStarts, b.Truth.FuncStarts...)

	m := Score(b, res)
	if m.ByteErrRate() != 0 || m.InstFP != 0 || m.InstFN != 0 {
		t.Errorf("perfect result scored: %+v", m)
	}
	if m.InstF1() != 1 || m.FuncF1() != 1 {
		t.Errorf("perfect F1: inst=%v func=%v", m.InstF1(), m.FuncF1())
	}
	if m.ErrorFactor() != 0 {
		t.Errorf("perfect error factor = %v", m.ErrorFactor())
	}
}

func TestScoreAgainstAllDataResult(t *testing.T) {
	b, err := synth.Generate(synth.Config{Seed: 81, Profile: synth.ProfileO0, NumFuncs: 10})
	if err != nil {
		t.Fatal(err)
	}
	res := dis.NewResult(b.Base, len(b.Code)) // everything data, no insts
	m := Score(b, res)
	if m.InstRecall() != 0 || m.InstTP != 0 {
		t.Errorf("all-data result: %+v", m)
	}
	if m.DataRecall(synth.ClassString) != 1 && m.DataTotal[synth.ClassString] > 0 {
		t.Error("all-data result should have perfect data recall")
	}
	if m.ByteFN != b.Truth.CodeBytes() {
		t.Errorf("ByteFN = %d, want %d", m.ByteFN, b.Truth.CodeBytes())
	}
}

func TestMetricsAdd(t *testing.T) {
	a := Metrics{Bytes: 10, ByteFP: 1, InstTP: 5, TrueInsts: 6, InstFN: 1}
	b := Metrics{Bytes: 20, ByteFN: 2, InstTP: 7, TrueInsts: 7}
	a.Add(b)
	if a.Bytes != 30 || a.ByteFP != 1 || a.ByteFN != 2 || a.InstTP != 12 || a.TrueInsts != 13 {
		t.Errorf("Add: %+v", a)
	}
}

// TestHeadlineClaim is the abstract's check: the combined system is at
// least 3x more accurate (error factor) than the best baseline.
func TestHeadlineClaim(t *testing.T) {
	r := smallRunner(t)
	coreM := ScoreCorpus(core.New(r.Model), r.Corpus)
	coreF := coreM.ErrorFactor()
	if coreF <= 0 {
		t.Skip("core made zero errors; ratio undefined (better than any claim)")
	}
	best := -1.0
	bestName := ""
	for _, e := range baseline.Engines(r.Model) {
		m := ScoreCorpus(e, r.Corpus)
		f := m.ErrorFactor()
		if best < 0 || f < best {
			best = f
			bestName = e.Name()
		}
	}
	t.Logf("core=%.2f best-baseline(%s)=%.2f ratio=%.1fx", coreF, bestName, best, best/coreF)
	if best/coreF < 3 {
		t.Errorf("accuracy ratio %.2fx < 3x (core %.2f, best baseline %.2f)",
			best/coreF, coreF, best)
	}
}

func TestT1CorpusShape(t *testing.T) {
	r := smallRunner(t)
	tab, err := r.t1Corpus()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(synth.DefaultProfiles) {
		t.Fatalf("T1 rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		bins, _ := strconv.Atoi(row[1])
		if bins != 2 {
			t.Errorf("profile %s: binaries = %s", row[0], row[1])
		}
		codeB, _ := strconv.Atoi(row[3])
		dataB, _ := strconv.Atoi(row[4])
		if codeB == 0 || dataB == 0 {
			t.Errorf("profile %s: code=%d data=%d", row[0], codeB, dataB)
		}
	}
}

func TestT4AblationShowsComponentValue(t *testing.T) {
	r := smallRunner(t)
	tab, err := r.t4Ablation()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("T4 rows = %d", len(tab.Rows))
	}
	full, _ := strconv.ParseFloat(tab.Rows[0][3], 64)
	weakened := 0
	for _, row := range tab.Rows[1:] {
		f, _ := strconv.ParseFloat(row[3], 64)
		if f > full {
			weakened++
		}
	}
	// At least three of four ablations must hurt accuracy.
	if weakened < 3 {
		t.Errorf("only %d/4 ablations degraded the error factor (full=%v rows=%v)",
			weakened, full, tab.Rows)
	}
}

func TestF4ThresholdTradeoff(t *testing.T) {
	r := smallRunner(t)
	tab, err := r.f4Threshold()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 5 {
		t.Fatalf("F4 rows = %d", len(tab.Rows))
	}
	parse := func(s string) float64 {
		v, _ := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
		return v
	}
	// Raising theta (stricter about code) must not increase the FP rate.
	first := parse(tab.Rows[0][1])
	last := parse(tab.Rows[len(tab.Rows)-1][1])
	if last > first+0.01 {
		t.Errorf("byte FP rate grew with theta: %.4f -> %.4f", first, last)
	}
}

func TestTableRender(t *testing.T) {
	tab := Table{
		ID:      "TX",
		Title:   "demo",
		Columns: []string{"a", "bbb"},
		Notes:   []string{"hello"},
	}
	tab.AddRow("1", "2")
	tab.AddRow("333", "4")
	var sb strings.Builder
	tab.Render(&sb)
	out := sb.String()
	for _, want := range []string{"TX — demo", "a    bbb", "333", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestProfileOf(t *testing.T) {
	cases := map[string]string{
		"gcc-O0-s5-n60":  "gcc-O0",
		"complex-s1-n10": "complex",
		"icc-vec-s2-n3":  "icc-vec",
		"weird":          "weird",
	}
	for in, want := range cases {
		if got := profileOf(in); got != want {
			t.Errorf("profileOf(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestF3ConvergenceMonotone(t *testing.T) {
	r := smallRunner(t)
	tab, err := r.f3Convergence()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 4 {
		t.Fatalf("F3 rows = %d", len(tab.Rows))
	}
	// F1 at the last budget must beat F1 at the first.
	first, _ := strconv.ParseFloat(tab.Rows[0][2], 64)
	last, _ := strconv.ParseFloat(tab.Rows[len(tab.Rows)-1][2], 64)
	if last <= first {
		t.Errorf("convergence: F1 did not improve (%.3f -> %.3f)", first, last)
	}
}

// TestE2RewriteOrdering: the instrumentation experiment must show the core
// engine strictly dominating every baseline (the paper's thesis).
func TestE2RewriteOrdering(t *testing.T) {
	r := smallRunner(t)
	tab, err := r.e2Rewrite()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("E2 rows = %d", len(tab.Rows))
	}
	parse := func(s string) float64 {
		v, _ := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
		return v
	}
	coreRate := parse(tab.Rows[0][4])
	if coreRate < 99 {
		t.Errorf("core instrumentation success %.1f%% < 99%%", coreRate)
	}
	for _, row := range tab.Rows[1:] {
		if r := parse(row[4]); r >= coreRate {
			t.Errorf("baseline %s success %.1f%% >= core %.1f%%", row[0], r, coreRate)
		}
	}
}

// TestT8AccountsForTotal: the top-level stages must account for the
// traced wall time, leaving at most 5% to T8's unattributed row.
func TestT8AccountsForTotal(t *testing.T) {
	tab, err := smallRunner(t).t8StageCost()
	if err != nil {
		t.Fatal(err)
	}
	last := tab.Rows[len(tab.Rows)-1]
	if last[0] != "unattributed" {
		t.Fatalf("last T8 row = %q, want unattributed", last[0])
	}
	pct, err := strconv.ParseFloat(strings.TrimSuffix(last[3], "%"), 64)
	if err != nil {
		t.Fatalf("unattributed share %q: %v", last[3], err)
	}
	if pct > 5 {
		t.Errorf("unattributed = %s of the traced total, want at most 5%%", last[3])
	}
}

// TestAllExperimentsRun smoke-tests every registered experiment on a
// small corpus: Runner.All must return one non-empty, well-formed table
// per entry of Experiments, carrying the entry's ID.
func TestAllExperimentsRun(t *testing.T) {
	tables, err := smallRunner(t).All()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != len(Experiments) {
		t.Fatalf("All returned %d tables for %d experiments", len(tables), len(Experiments))
	}
	for i, tab := range tables {
		id := Experiments[i].ID
		if tab.ID != id {
			t.Errorf("experiment %s returned table %q", id, tab.ID)
		}
		if len(tab.Rows) == 0 || len(tab.Columns) == 0 {
			t.Errorf("%s: empty table", id)
		}
		for _, row := range tab.Rows {
			if len(row) != len(tab.Columns) {
				t.Errorf("%s: row width %d != %d columns", id, len(row), len(tab.Columns))
			}
		}
		var text, csv strings.Builder
		tab.Render(&text)
		if err := tab.RenderCSV(&csv); err != nil {
			t.Errorf("%s: csv render: %v", id, err)
		}
		if text.Len() == 0 || csv.Len() == 0 {
			t.Errorf("%s: empty render", id)
		}
	}
}

// TestExperimentsMatchDocument: EXPERIMENTS.md has one "## <ID> —"
// section per registered experiment, in registry order. A retired
// experiment keeps its section, titled "retired ...", and is skipped.
func TestExperimentsMatchDocument(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	var documented, registered []string
	for _, m := range regexp.MustCompile(`(?m)^## (\S+) — (.*)$`).FindAllStringSubmatch(string(doc), -1) {
		if !strings.HasPrefix(m[2], "retired") {
			documented = append(documented, m[1])
		}
	}
	for _, e := range Experiments {
		registered = append(registered, e.ID)
	}
	if !slices.Equal(documented, registered) {
		t.Errorf("EXPERIMENTS.md documents %v; eval.Experiments registers %v", documented, registered)
	}
}
