package eval

import (
	"fmt"
	"slices"
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
	Model   *stats.Model
	Corpus  []*synth.Binary
	RealDir string // E4's real-binary corpus (see LoadReal)

	// scored caches corpusScores. It is filled on first use, so Model
	// and Corpus must not change once an experiment has run.
	scored []engineScores
}

// NewRunner builds the default runner: lazily-trained model, T1 corpus
// and DefaultRealDir.
func NewRunner() (*Runner, error) {
	corpus, err := DefaultCorpus().Build()
	if err != nil {
		return nil, err
	}
	return &Runner{Model: core.DefaultModel(), Corpus: corpus, RealDir: DefaultRealDir}, nil
}

// Experiment is one table, or one figure's series, of the evaluation.
type Experiment struct {
	ID  string
	run func(*Runner) (Table, error)
}

// Run runs the experiment on r. Its table carries e.ID: the registry
// is the only place an experiment's ID is written.
func (e Experiment) Run(r *Runner) (Table, error) {
	t, err := e.run(r)
	t.ID = e.ID
	return t, err
}

// Experiments lists every experiment in EXPERIMENTS.md order. cmd/eval
// and Runner.All run them from here.
var Experiments = []Experiment{
	{"T1", (*Runner).t1Corpus},
	{"T2", (*Runner).t2Accuracy},
	{"T3", (*Runner).t3DataCategories},
	{"T4", (*Runner).t4Ablation},
	{"T5", (*Runner).t5Throughput},
	{"T6", (*Runner).t6FunctionStarts},
	{"T7", (*Runner).t7PerProfile},
	{"T8", (*Runner).t8StageCost},
	{"T9", (*Runner).t9TierSettlement},
	{"F1", (*Runner).f1Density},
	{"F2", (*Runner).f2Scaling},
	{"F3", (*Runner).f3Convergence},
	{"F4", (*Runner).f4Threshold},
	{"E1", (*Runner).e1Adversarial},
	{"E2", (*Runner).e2Rewrite},
	{"E3", (*Runner).e3AdversarialFamily},
	{"E4", (*Runner).e4Real},
}

// All runs every experiment of Experiments in order.
func (r *Runner) All() ([]Table, error) {
	tables := make([]Table, 0, len(Experiments))
	for _, e := range Experiments {
		t, err := e.Run(r)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.ID, err)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// engines returns the comparison set: the core system plus baselines.
func (r *Runner) engines() []dis.Engine {
	return append([]dis.Engine{core.New(r.Model)}, baseline.Engines(r.Model)...)
}

// engineScores is one engine's metrics on each binary of a Runner's
// corpus, and their sum.
type engineScores struct {
	name      string
	total     Metrics
	perBinary []Metrics // indexed like Runner.Corpus
}

// corpusScores scores every engine of engines() on each binary of
// r.Corpus, once per Runner: T2, T3, T6 and T7 all read it.
func (r *Runner) corpusScores() []engineScores {
	if r.scored == nil {
		for _, e := range r.engines() {
			s := engineScores{name: e.Name(), perBinary: make([]Metrics, len(r.Corpus))}
			for i, b := range r.Corpus {
				s.perBinary[i] = Score(b, e.Disassemble(b.Code, b.Base, int(b.Entry-b.Base)))
				s.total.Add(s.perBinary[i])
			}
			r.scored = append(r.scored, s)
		}
	}
	return r.scored
}

// profileGroup is one profile's binaries, as indices into Runner.Corpus.
type profileGroup struct {
	name string
	bins []int
}

// profiles groups r.Corpus by profile, in first-seen order.
func (r *Runner) profiles() []profileGroup {
	var groups []profileGroup
	for i, b := range r.Corpus {
		name := profileOf(b.Name)
		g := slices.IndexFunc(groups, func(pg profileGroup) bool { return pg.name == name })
		if g < 0 {
			g = len(groups)
			groups = append(groups, profileGroup{name: name})
		}
		groups[g].bins = append(groups[g].bins, i)
	}
	return groups
}

// t1Corpus summarises the evaluation corpus per profile.
func (r *Runner) t1Corpus() (Table, error) {
	t := Table{
		Title: "Evaluation corpus (synthetic, byte-exact ground truth)",
		Columns: []string{"profile", "binaries", "bytes", "code", "data",
			"jumptable", "string", "const", "padding", "funcs", "insts"},
	}
	for _, pg := range r.profiles() {
		var bytes, funcs, insts int
		var counts [synth.NumClasses]int
		for _, i := range pg.bins {
			b := r.Corpus[i]
			bytes += len(b.Code)
			funcs += len(b.Truth.FuncStarts)
			insts += b.Truth.NumInsts()
			c := b.Truth.Counts()
			for k := range c {
				counts[k] += c[k]
			}
		}
		data := bytes - counts[synth.ClassCode]
		t.AddRow(pg.name, itoa(len(pg.bins)), itoa(bytes), itoa(counts[synth.ClassCode]),
			itoa(data), itoa(counts[synth.ClassJumpTable]),
			itoa(counts[synth.ClassString]), itoa(counts[synth.ClassConst]),
			itoa(counts[synth.ClassPadding]), itoa(funcs), itoa(insts))
	}
	return t, nil
}

// t2Accuracy is the headline comparison: instruction-level accuracy of the
// core system against every baseline.
func (r *Runner) t2Accuracy() (Table, error) {
	t := Table{
		Title: "Instruction-level accuracy vs baselines (full corpus)",
		Columns: []string{"engine", "byte-err", "inst-prec", "inst-recall",
			"inst-F1", "err/1k-inst", "vs-core"},
	}
	scores := r.corpusScores()
	coreFactor := scores[0].total.ErrorFactor()
	best := 0.0
	for i, s := range scores {
		m := &s.total
		f := m.ErrorFactor()
		vs := 0.0
		if coreFactor > 0 {
			vs = f / coreFactor
		}
		t.AddRow(s.name, fmtPct(m.ByteErrRate()), fmtF(m.InstPrecision()),
			fmtF(m.InstRecall()), fmtF(m.InstF1()), fmtF(f), fmt.Sprintf("%.1fx", vs))
		if i > 0 && (best == 0 || f < best) {
			best = f
		}
	}
	if coreFactor > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"core error factor %.2f vs best baseline %.2f => %.1fx more accurate (paper: 3-4x)",
			coreFactor, best, best/coreFactor))
	}
	return t, nil
}

// t3DataCategories reports per-category embedded-data detection.
func (r *Runner) t3DataCategories() (Table, error) {
	t := Table{
		Title:   "Embedded-data detection rate by category (bytes classified data)",
		Columns: []string{"engine", "jumptable", "string", "const", "padding", "all-data"},
	}
	for _, s := range r.corpusScores() {
		m := &s.total
		all := 0
		allTot := 0
		for _, c := range []synth.ByteClass{synth.ClassJumpTable, synth.ClassString,
			synth.ClassConst, synth.ClassPadding} {
			all += m.DataByClass[c]
			allTot += m.DataTotal[c]
		}
		t.AddRow(s.name,
			fmtPct(m.DataRecall(synth.ClassJumpTable)),
			fmtPct(m.DataRecall(synth.ClassString)),
			fmtPct(m.DataRecall(synth.ClassConst)),
			fmtPct(m.DataRecall(synth.ClassPadding)),
			fmtPct(ratio(all, allTot)))
	}
	return t, nil
}

// t4Ablation disables one component at a time.
func (r *Runner) t4Ablation() (Table, error) {
	t := Table{
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
		m := ScoreCorpus(d, r.Corpus)
		t.AddRow(c.name, fmtPct(m.ByteErrRate()), fmtF(m.InstF1()), fmtF(m.ErrorFactor()))
	}
	return t, nil
}

// t5Throughput times each engine over the corpus.
func (r *Runner) t5Throughput() (Table, error) {
	t := Table{
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
	return t, nil
}

// t6FunctionStarts measures function-entry identification.
func (r *Runner) t6FunctionStarts() (Table, error) {
	t := Table{
		Title:   "Function-start identification",
		Columns: []string{"engine", "func-prec", "func-recall", "func-F1"},
	}
	for _, s := range r.corpusScores() {
		m := &s.total
		t.AddRow(s.name, fmtF(m.FuncPrecision()), fmtF(m.FuncRecall()), fmtF(m.FuncF1()))
	}
	return t, nil
}

// t7PerProfile breaks the headline accuracy down by generation profile —
// the compiler/optimization-level axis of the paper's evaluation.
func (r *Runner) t7PerProfile() (Table, error) {
	t := Table{
		Title:   "Error factor by profile (err/1k-inst)",
		Columns: []string{"profile"},
	}
	scores := r.corpusScores()
	for _, s := range scores {
		t.Columns = append(t.Columns, s.name)
	}
	for _, pg := range r.profiles() {
		row := []string{pg.name}
		for _, s := range scores {
			var m Metrics
			for _, i := range pg.bins {
				m.Add(s.perBinary[i])
			}
			row = append(row, fmtF(m.ErrorFactor()))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// t9TierSettlement quantifies the tiered correction pre-pass per
// profile: how much of each binary the structural hints settle outright
// (bytes that never see statistical scoring), how many contested
// windows remain, and how far the hint stream shrinks versus a
// single-phase run, whose stream (statistics over every byte) HintsFor
// returns.
func (r *Runner) t9TierSettlement() (Table, error) {
	t := Table{
		Title:   "Tiered correction: structural settlement by profile",
		Columns: []string{"profile", "bytes", "settled", "windows", "hints", "hints(1-phase)", "hint-cut"},
	}
	d := core.New(r.Model)
	for _, pg := range r.profiles() {
		var bytes, settled, windows, hintsTiered, hintsSingle int
		for _, i := range pg.bins {
			b := r.Corpus[i]
			entry := int(b.Entry - b.Base)
			det, _ := d.DisassembleSectionTraceContext(nil, b.Code, b.Base, entry, nil, nil)
			bytes += det.Tier.Total
			settled += det.Tier.SettledBytes
			windows += len(det.Tier.Windows)
			hintsTiered += det.Hints
			hintsSingle += len(d.HintsFor(det.Graph, entry))
		}
		t.AddRow(pg.name, itoa(bytes), fmtPct(ratio(settled, bytes)), itoa(windows),
			itoa(hintsTiered), itoa(hintsSingle),
			fmtPct(1-ratio(hintsTiered, hintsSingle)))
	}
	return t, nil
}

// f1Density sweeps embedded-data density and reports the error factor per
// engine (the figure's series).
func (r *Runner) f1Density() (Table, error) {
	t := Table{
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
			m := ScoreCorpus(e, corpus)
			row = append(row, fmtF(m.ErrorFactor()))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// f2Scaling measures accuracy and runtime as binaries grow.
func (r *Runner) f2Scaling() (Table, error) {
	t := Table{
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

// f3Convergence replays prioritized correction with growing hint budgets
// on one binary, showing how errors fall as hints commit: each budget is
// a prefix of the single-phase stream in commit order.
func (r *Runner) f3Convergence() (Table, error) {
	t := Table{
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
	hints := d.HintsFor(g, int(b.Entry-b.Base))
	analysis.SortHints(hints)

	prev := -1
	for _, budget := range []int{1, 10, 100, 1000, 5000, 20000, len(hints)} {
		if budget = min(budget, len(hints)); budget == prev {
			continue
		}
		prev = budget
		out := correct.Run(g, viable, hints[:budget], correct.Options{Scores: scores})
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

// f4Threshold sweeps the statistical decision boundary.
func (r *Runner) f4Threshold() (Table, error) {
	t := Table{
		Title:   "Statistical threshold sweep (full pipeline, ROC-style points)",
		Columns: []string{"theta", "byte-FP-rate", "byte-FN-rate", "err/1k-inst"},
	}
	for _, theta := range []float64{-4, -2, -1, 0, 1, 2, 4} {
		d := core.New(r.Model, core.WithThreshold(theta))
		m := ScoreCorpus(d, r.Corpus)
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
	return t, nil
}

// e1Adversarial is the extension experiment: accuracy on binaries with
// deliberate anti-disassembly junk after unconditional jumps (never
// executed, crafted to misalign sequential decoders).
func (r *Runner) e1Adversarial() (Table, error) {
	t := Table{
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
		m := ScoreCorpus(e, corpus)
		t.AddRow(e.Name(), fmtPct(m.ByteErrRate()), fmtF(m.InstF1()),
			fmtF(m.ErrorFactor()), fmtPct(m.DataRecall(synth.ClassJunk)))
	}
	return t, nil
}

// e3AdversarialFamily breaks accuracy down by adversarial profile — one
// row per SoK-taxonomy construct (overlapping instructions, computed
// mid-instruction jumps, inline jump tables, literal pools, fake
// prologues, obfuscator idioms), so a regression in one hostile shape is
// visible in isolation instead of averaged away.
func (r *Runner) e3AdversarialFamily() (Table, error) {
	t := Table{
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
		m := ScoreCorpus(d, corpus)
		t.AddRow(p.Name, itoa(bytes), itoa(insts), fmtPct(m.ByteErrRate()),
			fmtF(m.InstF1()), fmtF(m.ErrorFactor()), fmtF(m.FuncF1()))
	}
	return t, nil
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
