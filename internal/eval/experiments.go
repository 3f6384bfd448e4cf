package eval

import (
	"fmt"
	"strings"
	"time"

	"probedis/internal/analysis"
	"probedis/internal/baseline"
	"probedis/internal/core"
	"probedis/internal/correct"
	"probedis/internal/dis"
	"probedis/internal/stats"
	"probedis/internal/superset"
	"probedis/internal/synth"
)

// Runner executes the reconstructed paper experiments. Create with
// NewRunner (or populate the fields for custom corpora).
type Runner struct {
	Model  *stats.Model
	Corpus []*synth.Binary
}

// NewRunner builds the default runner: lazily-trained model + T1 corpus.
func NewRunner() (*Runner, error) {
	corpus, err := DefaultCorpus().Build()
	if err != nil {
		return nil, err
	}
	return &Runner{Model: core.DefaultModel(), Corpus: corpus}, nil
}

// engines returns the comparison set: the core system plus baselines.
func (r *Runner) engines() []dis.Engine {
	return append([]dis.Engine{core.New(r.Model)}, baseline.Engines(r.Model)...)
}

// scoreCorpus runs one engine over a corpus and accumulates metrics.
func scoreCorpus(e dis.Engine, corpus []*synth.Binary) Metrics {
	var total Metrics
	for _, b := range corpus {
		res := e.Disassemble(b.Code, b.Base, int(b.Entry-b.Base))
		total.Add(Score(b, res))
	}
	return total
}

// T1Corpus summarises the evaluation corpus per profile.
func (r *Runner) T1Corpus() Table {
	t := Table{
		ID:    "T1",
		Title: "Evaluation corpus (synthetic, byte-exact ground truth)",
		Columns: []string{"profile", "binaries", "bytes", "code", "data",
			"jumptable", "string", "const", "padding", "funcs", "insts"},
	}
	type agg struct {
		bins, bytes, funcs, insts int
		counts                    [synth.NumClasses]int
	}
	per := map[string]*agg{}
	var order []string
	for _, b := range r.Corpus {
		name := profileOf(b.Name)
		a := per[name]
		if a == nil {
			a = &agg{}
			per[name] = a
			order = append(order, name)
		}
		a.bins++
		a.bytes += len(b.Code)
		a.funcs += len(b.Truth.FuncStarts)
		a.insts += b.Truth.NumInsts()
		c := b.Truth.Counts()
		for i := range c {
			a.counts[i] += c[i]
		}
	}
	for _, name := range order {
		a := per[name]
		data := a.bytes - a.counts[synth.ClassCode]
		t.AddRow(name, itoa(a.bins), itoa(a.bytes), itoa(a.counts[synth.ClassCode]),
			itoa(data), itoa(a.counts[synth.ClassJumpTable]),
			itoa(a.counts[synth.ClassString]), itoa(a.counts[synth.ClassConst]),
			itoa(a.counts[synth.ClassPadding]), itoa(a.funcs), itoa(a.insts))
	}
	return t
}

// T2Accuracy is the headline comparison: instruction-level accuracy of the
// core system against every baseline.
func (r *Runner) T2Accuracy() Table {
	t := Table{
		ID:    "T2",
		Title: "Instruction-level accuracy vs baselines (full corpus)",
		Columns: []string{"engine", "byte-err", "inst-prec", "inst-recall",
			"inst-F1", "err/1k-inst", "vs-core"},
	}
	engines := r.engines()
	factors := make([]float64, len(engines))
	var rows [][]string
	for i, e := range engines {
		m := scoreCorpus(e, r.Corpus)
		factors[i] = m.ErrorFactor()
		rows = append(rows, []string{
			e.Name(), fmtPct(m.ByteErrRate()), fmtF(m.InstPrecision()),
			fmtF(m.InstRecall()), fmtF(m.InstF1()), fmtF(m.ErrorFactor()), "",
		})
	}
	coreFactor := factors[0]
	best := 0.0
	for i := range rows {
		ratio := 0.0
		if coreFactor > 0 {
			ratio = factors[i] / coreFactor
		}
		rows[i][6] = fmt.Sprintf("%.1fx", ratio)
		if i > 0 && (best == 0 || factors[i] < best) {
			best = factors[i]
		}
		t.AddRow(rows[i]...)
	}
	if coreFactor > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"core error factor %.2f vs best baseline %.2f => %.1fx more accurate (paper: 3-4x)",
			coreFactor, best, best/coreFactor))
	}
	return t
}

// T3DataCategories reports per-category embedded-data detection.
func (r *Runner) T3DataCategories() Table {
	t := Table{
		ID:      "T3",
		Title:   "Embedded-data detection rate by category (bytes classified data)",
		Columns: []string{"engine", "jumptable", "string", "const", "padding", "all-data"},
	}
	for _, e := range r.engines() {
		m := scoreCorpus(e, r.Corpus)
		all := 0
		allTot := 0
		for _, c := range []synth.ByteClass{synth.ClassJumpTable, synth.ClassString,
			synth.ClassConst, synth.ClassPadding} {
			all += m.DataByClass[c]
			allTot += m.DataTotal[c]
		}
		t.AddRow(e.Name(),
			fmtPct(m.DataRecall(synth.ClassJumpTable)),
			fmtPct(m.DataRecall(synth.ClassString)),
			fmtPct(m.DataRecall(synth.ClassConst)),
			fmtPct(m.DataRecall(synth.ClassPadding)),
			fmtPct(ratio(all, allTot)))
	}
	return t
}

// T4Ablation disables one component at a time.
func (r *Runner) T4Ablation() Table {
	t := Table{
		ID:      "T4",
		Title:   "Component ablation (core system)",
		Columns: []string{"configuration", "byte-err", "inst-F1", "err/1k-inst"},
	}
	configs := []struct {
		name string
		opts []core.Option
	}{
		{"full system", nil},
		{"- statistics", []core.Option{core.WithoutStats()}},
		{"- behavioral penalty", []core.Option{core.WithoutBehavior()}},
		{"- jump tables", []core.Option{core.WithoutJumpTables()}},
		{"- prioritization", []core.Option{core.WithoutPrioritization()}},
	}
	for _, c := range configs {
		d := core.New(r.Model, c.opts...)
		m := scoreCorpus(d, r.Corpus)
		t.AddRow(c.name, fmtPct(m.ByteErrRate()), fmtF(m.InstF1()), fmtF(m.ErrorFactor()))
	}
	return t
}

// T5Throughput times each engine over the corpus.
func (r *Runner) T5Throughput() Table {
	t := Table{
		ID:      "T5",
		Title:   "Disassembly throughput (full corpus, single-threaded)",
		Columns: []string{"engine", "bytes", "time", "MB/s"},
	}
	var totalBytes int
	for _, b := range r.Corpus {
		totalBytes += len(b.Code)
	}
	for _, e := range r.engines() {
		start := time.Now()
		for _, b := range r.Corpus {
			e.Disassemble(b.Code, b.Base, int(b.Entry-b.Base))
		}
		el := time.Since(start)
		mbs := float64(totalBytes) / el.Seconds() / 1e6
		t.AddRow(e.Name(), itoa(totalBytes), el.Round(time.Millisecond).String(),
			fmt.Sprintf("%.2f", mbs))
	}
	return t
}

// T6FunctionStarts measures function-entry identification.
func (r *Runner) T6FunctionStarts() Table {
	t := Table{
		ID:      "T6",
		Title:   "Function-start identification",
		Columns: []string{"engine", "func-prec", "func-recall", "func-F1"},
	}
	for _, e := range r.engines() {
		m := scoreCorpus(e, r.Corpus)
		t.AddRow(e.Name(), fmtF(m.FuncPrecision()), fmtF(m.FuncRecall()), fmtF(m.FuncF1()))
	}
	return t
}

// F1Density sweeps embedded-data density and reports the error factor per
// engine (the figure's series).
func (r *Runner) F1Density() (Table, error) {
	t := Table{
		ID:      "F1",
		Title:   "Error factor vs embedded-data density (err/1k-inst)",
		Columns: []string{"density"},
	}
	engines := r.engines()
	for _, e := range engines {
		t.Columns = append(t.Columns, e.Name())
	}
	for _, density := range []float64{0.25, 0.5, 1, 2, 4} {
		spec := DefaultCorpus()
		spec.PerProfile = 2
		spec.DataDensity = density
		corpus, err := spec.Build()
		if err != nil {
			return t, err
		}
		row := []string{fmt.Sprintf("%.2fx", density)}
		for _, e := range engines {
			m := scoreCorpus(e, corpus)
			row = append(row, fmtF(m.ErrorFactor()))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// F2Scaling measures accuracy and runtime as binaries grow.
func (r *Runner) F2Scaling() (Table, error) {
	t := Table{
		ID:      "F2",
		Title:   "Core accuracy and runtime vs binary size",
		Columns: []string{"funcs", "bytes", "err/1k-inst", "time", "MB/s"},
	}
	d := core.New(r.Model)
	for _, funcs := range []int{50, 100, 200, 400, 800} {
		b, err := synth.Generate(synth.Config{
			Seed: 900 + int64(funcs), Profile: synth.ProfileComplex, NumFuncs: funcs,
		})
		if err != nil {
			return t, err
		}
		start := time.Now()
		res := d.Disassemble(b.Code, b.Base, int(b.Entry-b.Base))
		el := time.Since(start)
		m := Score(b, res)
		t.AddRow(itoa(funcs), itoa(len(b.Code)), fmtF(m.ErrorFactor()),
			el.Round(time.Millisecond).String(),
			fmt.Sprintf("%.2f", float64(len(b.Code))/el.Seconds()/1e6))
	}
	return t, nil
}

// F3Convergence replays prioritized correction with growing hint budgets
// on one binary, showing how errors fall as hints commit.
func (r *Runner) F3Convergence() (Table, error) {
	t := Table{
		ID:      "F3",
		Title:   "Error-correction convergence (complex binary)",
		Columns: []string{"hint-budget", "byte-err", "inst-F1"},
	}
	b, err := synth.Generate(synth.Config{Seed: 777, Profile: synth.ProfileComplex, NumFuncs: 100})
	if err != nil {
		return t, err
	}
	d := core.New(r.Model)
	g := superset.Build(b.Code, b.Base)
	viable := analysis.Viability(g)
	scores := r.Model.ScoreAll(g, 8)
	hints, _ := d.CollectHints(g, viable, int(b.Entry-b.Base), scores)

	budgets := []int{1, 10, 100, 1000, 5000, 20000, len(hints)}
	prev := -1
	for _, budget := range budgets {
		if budget > len(hints) {
			budget = len(hints)
		}
		if budget == prev {
			continue
		}
		prev = budget
		out := correct.Run(g, viable, hints, correct.Options{MaxHints: budget, Scores: scores})
		res := dis.NewResult(b.Base, len(b.Code))
		for i, s := range out.State {
			res.IsCode[i] = s == correct.Code
		}
		copy(res.InstStart, out.InstStart)
		m := Score(b, res)
		t.AddRow(itoa(budget), fmtPct(m.ByteErrRate()), fmtF(m.InstF1()))
	}
	t.Notes = append(t.Notes, fmt.Sprintf("total hints: %d", len(hints)))
	return t, nil
}

// F4Threshold sweeps the statistical decision boundary.
func (r *Runner) F4Threshold() Table {
	t := Table{
		ID:      "F4",
		Title:   "Statistical threshold sweep (full pipeline, ROC-style points)",
		Columns: []string{"theta", "byte-FP-rate", "byte-FN-rate", "err/1k-inst"},
	}
	for _, theta := range []float64{-4, -2, -1, 0, 1, 2, 4} {
		d := core.New(r.Model, core.WithThreshold(theta))
		m := scoreCorpus(d, r.Corpus)
		var dataBytes int
		for _, tot := range m.DataTotal {
			dataBytes += tot
		}
		codeBytes := m.Bytes - dataBytes
		t.AddRow(fmt.Sprintf("%+.1f", theta),
			fmtPct(ratio(m.ByteFP, dataBytes)),
			fmtPct(ratio(m.ByteFN, codeBytes)),
			fmtF(m.ErrorFactor()))
	}
	return t
}

// T7PerProfile breaks the headline accuracy down by generation profile —
// the compiler/optimization-level axis of the paper's evaluation.
func (r *Runner) T7PerProfile() Table {
	t := Table{
		ID:      "T7",
		Title:   "Error factor by profile (err/1k-inst)",
		Columns: []string{"profile"},
	}
	engines := r.engines()
	for _, e := range engines {
		t.Columns = append(t.Columns, e.Name())
	}
	byProfile := map[string][]*synth.Binary{}
	var order []string
	for _, b := range r.Corpus {
		name := profileOf(b.Name)
		if _, ok := byProfile[name]; !ok {
			order = append(order, name)
		}
		byProfile[name] = append(byProfile[name], b)
	}
	for _, name := range order {
		row := []string{name}
		for _, e := range engines {
			m := scoreCorpus(e, byProfile[name])
			row = append(row, fmtF(m.ErrorFactor()))
		}
		t.AddRow(row...)
	}
	return t
}

// T9TierSettlement quantifies the tiered correction pre-pass per
// profile: how much of each binary the structural hints settle outright
// (bytes that never see statistical scoring), how many contested
// windows remain, and how far the hint stream shrinks versus a
// single-phase run, whose stream (statistics over every byte) HintsFor
// returns.
func (r *Runner) T9TierSettlement() Table {
	t := Table{
		ID:      "T9",
		Title:   "Tiered correction: structural settlement by profile",
		Columns: []string{"profile", "bytes", "settled", "windows", "hints", "hints(1-phase)", "hint-cut"},
	}
	d := core.New(r.Model)
	byProfile := map[string][]*synth.Binary{}
	var order []string
	for _, b := range r.Corpus {
		name := profileOf(b.Name)
		if _, ok := byProfile[name]; !ok {
			order = append(order, name)
		}
		byProfile[name] = append(byProfile[name], b)
	}
	for _, name := range order {
		var bytes, settled, windows, hintsTiered, hintsSingle int
		for _, b := range byProfile[name] {
			entry := int(b.Entry - b.Base)
			det := d.DisassembleSection(b.Code, b.Base, entry, nil)
			bytes += det.Tier.Total
			settled += det.Tier.SettledBytes
			windows += len(det.Tier.Windows)
			hintsTiered += det.Hints
			hintsSingle += len(d.HintsFor(det.Graph, entry))
		}
		t.AddRow(name, itoa(bytes), fmtPct(ratio(settled, bytes)), itoa(windows),
			itoa(hintsTiered), itoa(hintsSingle),
			fmtPct(1-ratio(hintsTiered, hintsSingle)))
	}
	return t
}

// E1Adversarial is the extension experiment: accuracy on binaries with
// deliberate anti-disassembly junk after unconditional jumps (never
// executed, crafted to misalign sequential decoders).
func (r *Runner) E1Adversarial() (Table, error) {
	t := Table{
		ID:      "E1",
		Title:   "Extension: anti-disassembly junk (adversarial profile)",
		Columns: []string{"engine", "byte-err", "inst-F1", "err/1k-inst", "junk-detected"},
	}
	var corpus []*synth.Binary
	for seed := int64(1); seed <= 5; seed++ {
		b, err := synth.Generate(synth.Config{
			Seed: seed, Profile: synth.ProfileAdversarial, NumFuncs: 60,
		})
		if err != nil {
			return t, err
		}
		corpus = append(corpus, b)
	}
	for _, e := range r.engines() {
		m := scoreCorpus(e, corpus)
		t.AddRow(e.Name(), fmtPct(m.ByteErrRate()), fmtF(m.InstF1()),
			fmtF(m.ErrorFactor()), fmtPct(m.DataRecall(synth.ClassJunk)))
	}
	return t, nil
}

// E3AdversarialFamily breaks accuracy down by adversarial profile — one
// row per SoK-taxonomy construct (overlapping instructions, computed
// mid-instruction jumps, inline jump tables, literal pools, fake
// prologues, obfuscator idioms), so a regression in one hostile shape is
// visible in isolation instead of averaged away.
func (r *Runner) E3AdversarialFamily() (Table, error) {
	t := Table{
		ID:      "E3",
		Title:   "Extension: adversarial profile family (core engine per profile)",
		Columns: []string{"profile", "bytes", "insts", "byte-err", "inst-F1", "err/1k-inst", "func-F1"},
	}
	d := core.New(r.Model)
	for _, p := range synth.AdversarialProfiles {
		spec := CorpusSpec{FirstSeed: 1, PerProfile: 3, Funcs: 60, Profiles: []synth.Profile{p}}
		corpus, err := spec.Build()
		if err != nil {
			return t, err
		}
		var bytes, insts int
		for _, b := range corpus {
			bytes += len(b.Code)
			insts += b.Truth.NumInsts()
		}
		m := scoreCorpus(d, corpus)
		t.AddRow(p.Name, itoa(bytes), itoa(insts), fmtPct(m.ByteErrRate()),
			fmtF(m.InstF1()), fmtF(m.ErrorFactor()), fmtF(m.FuncF1()))
	}
	return t, nil
}

// All runs every experiment in order.
func (r *Runner) All() ([]Table, error) {
	var out []Table
	out = append(out, r.T1Corpus(), r.T2Accuracy(), r.T3DataCategories(),
		r.T4Ablation(), r.T5Throughput(), r.T6FunctionStarts(), r.T7PerProfile(),
		r.T8StageCost(), r.T9TierSettlement())
	f1, err := r.F1Density()
	if err != nil {
		return nil, err
	}
	f2, err := r.F2Scaling()
	if err != nil {
		return nil, err
	}
	f3, err := r.F3Convergence()
	if err != nil {
		return nil, err
	}
	e1, err := r.E1Adversarial()
	if err != nil {
		return nil, err
	}
	e2, err := r.E2Rewrite()
	if err != nil {
		return nil, err
	}
	e3, err := r.E3AdversarialFamily()
	if err != nil {
		return nil, err
	}
	t10, err := r.T10ShardScaling()
	if err != nil {
		return nil, err
	}
	out = append(out, t10, f1, f2, f3, r.F4Threshold(), e1, e2, e3)
	return out, nil
}

func itoa(v int) string { return fmt.Sprintf("%d", v) }

// profileOf extracts the profile name from a binary name of the form
// "<profile>-s<seed>-n<funcs>" (profile names may themselves contain
// dashes, so strip the two known suffix fields from the right).
func profileOf(name string) string {
	n := strings.LastIndex(name, "-n")
	if n < 0 {
		return name
	}
	s := strings.LastIndex(name[:n], "-s")
	if s < 0 {
		return name
	}
	return name[:s]
}
