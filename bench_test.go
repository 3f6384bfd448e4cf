// Benchmark harness: one benchmark per table and figure of the reproduced
// evaluation (see DESIGN.md for the experiment index). The benchmarks
// measure the wall-clock cost of regenerating each result and report the
// headline accuracy numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// regenerates the whole evaluation. Full formatted tables come from
// `go run ./cmd/eval`.
package probedis

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"

	"probedis/internal/analysis"
	"probedis/internal/baseline"
	"probedis/internal/core"
	"probedis/internal/correct"
	"probedis/internal/dis"
	"probedis/internal/elfx"
	"probedis/internal/emu"
	"probedis/internal/eval"
	"probedis/internal/obs"
	"probedis/internal/rewrite"
	"probedis/internal/stats"
	"probedis/internal/superset"
	"probedis/internal/synth"
	"probedis/internal/tier"
	"probedis/internal/x86"
)

// benchEnv is the shared, lazily-built benchmark environment (model and
// corpus construction are setup cost, not the measured quantity).
type benchEnv struct {
	model  *stats.Model
	corpus []*synth.Binary
	big    *synth.Binary
}

var (
	envOnce sync.Once
	env     benchEnv
)

func benchSetup(b *testing.B) *benchEnv {
	b.Helper()
	envOnce.Do(func() {
		env.model = core.DefaultModel()
		spec := eval.DefaultCorpus()
		spec.PerProfile = 2
		spec.Funcs = 40
		corpus, err := spec.Build()
		if err != nil {
			panic(err)
		}
		env.corpus = corpus
		big, err := synth.Generate(synth.Config{
			Seed: 555, Profile: synth.ProfileComplex, NumFuncs: 200,
		})
		if err != nil {
			panic(err)
		}
		env.big = big
	})
	return &env
}

func corpusBytes(c []*synth.Binary) int64 {
	var n int64
	for _, b := range c {
		n += int64(len(b.Code))
	}
	return n
}

// errFactor runs one engine over a corpus and returns err/1k-inst.
func errFactor(e dis.Engine, corpus []*synth.Binary) float64 {
	m := eval.ScoreCorpus(e, corpus)
	return m.ErrorFactor()
}

// BenchmarkT1CorpusGeneration measures ground-truthed corpus generation
// (Table 1: corpus summary).
func BenchmarkT1CorpusGeneration(b *testing.B) {
	var bytes int64
	for i := 0; i < b.N; i++ {
		for p, prof := range synth.DefaultProfiles {
			bin, err := synth.Generate(synth.Config{
				Seed: int64(i*10 + p), Profile: prof, NumFuncs: 40,
			})
			if err != nil {
				b.Fatal(err)
			}
			bytes += int64(len(bin.Code))
		}
	}
	b.SetBytes(bytes / int64(b.N))
}

// BenchmarkTrainModel trains the statistical model with DefaultModel's
// parameters: the set-up every process pays before its first
// disassembly, unless it loads a model file.
func BenchmarkTrainModel(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runtime.KeepAlive(core.TrainModel(1_000_000, 8, 80))
	}
}

// BenchmarkT2AccuracyComparison regenerates the headline accuracy table:
// the core engine and every baseline over the corpus. Error factors are
// reported as custom metrics.
func BenchmarkT2AccuracyComparison(b *testing.B) {
	e := benchSetup(b)
	engines := append([]dis.Engine{core.New(e.model)}, baseline.Engines(e.model)...)
	b.ResetTimer()
	var last map[string]float64
	for i := 0; i < b.N; i++ {
		last = map[string]float64{}
		for _, eng := range engines {
			last[eng.Name()] = errFactor(eng, e.corpus)
		}
	}
	for name, f := range map[string]string{"probedis": "core", "stat-only": "statonly"} {
		b.ReportMetric(last[name], "err/1k-"+f)
	}
}

// BenchmarkT3DataCategories regenerates the per-category detection table.
func BenchmarkT3DataCategories(b *testing.B) {
	e := benchSetup(b)
	d := core.New(e.model)
	b.ResetTimer()
	var recall float64
	for i := 0; i < b.N; i++ {
		m := eval.ScoreCorpus(d, e.corpus)
		recall = m.DataRecall(synth.ClassJumpTable)
	}
	b.ReportMetric(recall*100, "jumptable-recall-%")
}

// BenchmarkT4Ablation regenerates the ablation table (each configuration
// over the corpus).
func BenchmarkT4Ablation(b *testing.B) {
	e := benchSetup(b)
	configs := map[string][]core.Option{
		"full":    nil,
		"nostats": {core.WithoutStats()},
		"nobehav": {core.WithoutBehavior()},
		"nojt":    {core.WithoutJumpTables()},
		"noprio":  {core.WithoutPrioritization()},
	}
	b.ResetTimer()
	var full, nojt float64
	for i := 0; i < b.N; i++ {
		for name, opts := range configs {
			f := errFactor(core.New(e.model, opts...), e.corpus)
			switch name {
			case "full":
				full = f
			case "nojt":
				nojt = f
			}
		}
	}
	b.ReportMetric(full, "err/1k-full")
	b.ReportMetric(nojt, "err/1k-nojt")
}

// BenchmarkT5Throughput measures end-to-end core throughput (bytes/sec as
// B/s via SetBytes).
func BenchmarkT5Throughput(b *testing.B) {
	e := benchSetup(b)
	d := core.New(e.model)
	b.SetBytes(corpusBytes(e.corpus))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, bin := range e.corpus {
			d.Disassemble(bin.Code, bin.Base, int(bin.Entry-bin.Base))
		}
	}
}

// BenchmarkT5ThroughputBaselines times the fastest baseline for contrast.
func BenchmarkT5ThroughputBaselines(b *testing.B) {
	e := benchSetup(b)
	b.SetBytes(corpusBytes(e.corpus))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, bin := range e.corpus {
			baseline.LinearSweep{}.Disassemble(bin.Code, bin.Base, int(bin.Entry-bin.Base))
		}
	}
}

// BenchmarkT6FunctionStarts regenerates the function-identification table.
func BenchmarkT6FunctionStarts(b *testing.B) {
	e := benchSetup(b)
	d := core.New(e.model)
	b.ResetTimer()
	var f1 float64
	for i := 0; i < b.N; i++ {
		var m eval.Metrics
		for _, bin := range e.corpus {
			m.Add(eval.Score(bin, d.Disassemble(bin.Code, bin.Base, int(bin.Entry-bin.Base))))
		}
		f1 = m.FuncF1()
	}
	b.ReportMetric(f1, "func-F1")
}

// BenchmarkF1DensitySweep regenerates the density figure: accuracy at the
// extremes of the embedded-data density sweep.
func BenchmarkF1DensitySweep(b *testing.B) {
	e := benchSetup(b)
	d := core.New(e.model)
	build := func(density float64) []*synth.Binary {
		spec := eval.DefaultCorpus()
		spec.PerProfile = 1
		spec.Funcs = 40
		spec.DataDensity = density
		c, err := spec.Build()
		if err != nil {
			b.Fatal(err)
		}
		return c
	}
	lo, hi := build(0.25), build(4)
	b.ResetTimer()
	var fLo, fHi float64
	for i := 0; i < b.N; i++ {
		fLo = errFactor(d, lo)
		fHi = errFactor(d, hi)
	}
	b.ReportMetric(fLo, "err/1k-lowdensity")
	b.ReportMetric(fHi, "err/1k-highdensity")
}

// BenchmarkF2SizeScaling measures core runtime scaling on a large binary.
func BenchmarkF2SizeScaling(b *testing.B) {
	e := benchSetup(b)
	d := core.New(e.model)
	b.SetBytes(int64(len(e.big.Code)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Disassemble(e.big.Code, e.big.Base, int(e.big.Entry-e.big.Base))
	}
}

// BenchmarkF3Convergence measures one full prioritized-correction run with
// precollected hints (the figure replays it at growing budgets).
func BenchmarkF3Convergence(b *testing.B) {
	e := benchSetup(b)
	d := core.New(e.model)
	g := superset.Build(e.big.Code, e.big.Base)
	viable := analysis.Viability(g)
	scores := e.model.ScoreAll(g, 8)
	hints := d.HintsFor(g, int(e.big.Entry-e.big.Base))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		correct.Run(g, viable, hints, correct.Options{Scores: scores})
	}
	b.ReportMetric(float64(len(hints)), "hints")
}

// BenchmarkF4ThresholdSweep measures the pipeline across the statistical
// threshold sweep.
func BenchmarkF4ThresholdSweep(b *testing.B) {
	e := benchSetup(b)
	thetas := []float64{-2, 0, 2}
	b.ResetTimer()
	var mid float64
	for i := 0; i < b.N; i++ {
		for _, th := range thetas {
			f := errFactor(core.New(e.model, core.WithThreshold(th)), e.corpus[:2])
			if th == 0 {
				mid = f
			}
		}
	}
	b.ReportMetric(mid, "err/1k-theta0")
}

// BenchmarkMultiSectionELF measures the end-to-end ELF pipeline over a
// many-section binary, serial (workers=1) vs the full worker pool
// (workers=max). Sections are independent pipeline runs, so with
// GOMAXPROCS >= 4 the pooled variant should show a multiple-x wall-clock
// speedup while producing byte-identical output (see
// core.TestParallelELFPipelineMatchesSerial).
func BenchmarkMultiSectionELF(b *testing.B) {
	e := benchSetup(b)
	const nsec = 8
	var bld elfx.Builder
	addr := uint64(0x401000)
	var total int64
	for i := 0; i < nsec; i++ {
		bin, err := synth.Generate(synth.Config{
			Seed:     int64(700 + i),
			Profile:  synth.DefaultProfiles[i%len(synth.DefaultProfiles)],
			NumFuncs: 60,
			Base:     addr,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			bld.Entry = bin.Entry
		}
		bld.AddSection(fmt.Sprintf(".text%d", i), addr,
			elfx.SHFAlloc|elfx.SHFExecinstr, bin.Code)
		total += int64(len(bin.Code))
		addr = (addr + uint64(len(bin.Code)) + 0xfff) &^ 0xfff
	}
	img, err := bld.Write()
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range []struct {
		name    string
		workers int
	}{
		{"workers=1", 1},
		{"workers=max", 0},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			d := core.New(e.model, core.WithWorkers(cfg.workers))
			b.SetBytes(total)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.DisassembleELFTraceContext(nil, img, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkObsDisabled measures the instrumented pipeline with tracing
// off (nil span): the disabled path must cost the same as the pre-
// instrumentation pipeline, so this number is the regression sentinel
// for observability overhead. Compare with BenchmarkObsEnabled.
func BenchmarkObsDisabled(b *testing.B) {
	e := benchSetup(b)
	d := core.New(e.model)
	bin := e.corpus[0]
	b.SetBytes(int64(len(bin.Code)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.DisassembleSectionTraceContext(nil, bin.Code, bin.Base, int(bin.Entry-bin.Base), nil, nil)
	}
}

// BenchmarkObsEnabled measures the same run under a live time-only trace
// (the disasmd per-request configuration). The delta vs
// BenchmarkObsDisabled is the true cost of span collection.
func BenchmarkObsEnabled(b *testing.B) {
	e := benchSetup(b)
	d := core.New(e.model)
	bin := e.corpus[0]
	b.SetBytes(int64(len(bin.Code)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := obs.NewTraceTimeOnly("disassemble")
		d.DisassembleSectionTraceContext(nil, bin.Code, bin.Base, int(bin.Entry-bin.Base), nil, tr)
		tr.End()
	}
}

// BenchmarkSupersetBuild isolates the superset-decoding substrate.
func BenchmarkSupersetBuild(b *testing.B) {
	e := benchSetup(b)
	b.SetBytes(int64(len(e.big.Code)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		superset.Build(e.big.Code, e.big.Base)
	}
}

// BenchmarkScan isolates the length-only pre-decode kernel: one
// x86.Scan pass over the large section into a reused Info buffer — the
// inner loop superset.Build spends its time in. scan_fallback_pct is
// the fraction of offsets the kernel handed to the full decoder
// (VEX/EVEX first bytes); on compiler-shaped bytes it should stay in
// the low single digits.
func BenchmarkScan(b *testing.B) {
	code, base := largeSection(b)
	dst := make([]x86.Info, len(code))
	b.SetBytes(int64(len(code)))
	b.ResetTimer()
	var fb int
	for i := 0; i < b.N; i++ {
		fb = x86.Scan(dst, code, base, 0, len(code))
	}
	b.ReportMetric(float64(fb)/float64(len(code))*100, "scan_fallback_pct")
}

// BenchmarkScanDecodeBaseline is the pre-kernel reference for
// BenchmarkScan: the same per-offset pass through the general decoder
// (DecodeInto + PackLean). The ratio of the two is the fast-path
// speedup on the superset substrate.
func BenchmarkScanDecodeBaseline(b *testing.B) {
	code, base := largeSection(b)
	dst := make([]x86.Info, len(code))
	b.SetBytes(int64(len(code)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var inst x86.Inst
		for off := range code {
			dst[off] = x86.Info{}
			if x86.DecodeInto(&inst, code[off:], base+uint64(off)) == nil {
				dst[off] = x86.PackLean(&inst)
			}
		}
	}
}

// BenchmarkViability isolates the invalid-chain poisoning analysis.
func BenchmarkViability(b *testing.B) {
	e := benchSetup(b)
	g := superset.Build(e.big.Code, e.big.Base)
	b.SetBytes(int64(len(e.big.Code)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.Viability(g)
	}
}

// BenchmarkLargeSectionViability is BenchmarkViability on the >= 8 MiB
// largeSection, whose graph is built outside the timer: the sweep, the
// edge sort and the worklist at the scale offline-large runs them.
func BenchmarkLargeSectionViability(b *testing.B) {
	code, base := largeSection(b)
	g := superset.Build(code, base)
	b.SetBytes(int64(len(code)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.Viability(g)
	}
}

// BenchmarkHintAnalyses times each structural hint analysis, and the
// raw-byte data patterns, over the large section's graph and viability
// mask, both built once outside the timer. Run it at -cpu 1: each
// analysis is one serial pass, as a hint task on core's pool runs it.
// hints is the number of hints the analysis emits.
func BenchmarkHintAnalyses(b *testing.B) {
	code, base := largeSection(b)
	g := superset.Build(code, base)
	viable := analysis.Viability(g)
	for _, a := range []struct {
		name string
		run  func() []analysis.Hint
	}{
		{"jumptable", func() []analysis.Hint { return analysis.JumpTableHints(analysis.FindJumpTables(g, viable)) }},
		{"calltarget", func() []analysis.Hint { return analysis.CallTargetHints(g, viable) }},
		{"prologue", func() []analysis.Hint { return analysis.PrologueHints(g, viable) }},
		{"literalpool", func() []analysis.Hint { return analysis.LiteralPoolHints(g, viable) }},
		{"datapattern", func() []analysis.Hint { return analysis.DataPatternHints(g) }},
	} {
		b.Run(a.name, func(b *testing.B) {
			b.SetBytes(int64(len(code)))
			var hs []analysis.Hint
			for i := 0; i < b.N; i++ {
				hs = a.run()
			}
			b.ReportMetric(float64(len(hs)), "hints")
		})
	}
}

// largePhaseB builds the large section's graph and viability mask, its
// real structural hint stream split into the structural phase and the
// weak hints, and the contested windows the structural phase leaves.
func largePhaseB(b *testing.B) (g *superset.Graph, viable []bool, structural, weak []analysis.Hint, part *tier.Partition) {
	code, base := largeSection(b)
	g = superset.Build(code, base)
	viable = analysis.Viability(g)
	hints := analysis.EntryHint(g, largeEntry)
	hints = append(hints, analysis.JumpTableHints(analysis.FindJumpTables(g, viable))...)
	hints = append(hints, analysis.CallTargetHints(g, viable)...)
	hints = append(hints, analysis.PrologueHints(g, viable)...)
	hints = append(hints, analysis.DataPatternHints(g)...)
	hints = append(hints, analysis.LiteralPoolHints(g, viable)...)
	structural, weak = tier.SplitHints(hints)
	correct.RunTieredContext(nil, g, viable, structural, func(o *correct.Outcome) []analysis.Hint {
		part = tier.FromStates(o.State)
		return nil
	}, correct.Options{NoRetract: true, NoGapFill: true})
	return g, viable, structural, weak, part
}

// BenchmarkCorrect times prioritized error correction alone over the large
// section: correct.RunTiered on its real structural hint stream, then the
// statistical records of the contested windows merged with the weak
// hints, as the pipeline commits them. The streams, the records, the
// graph and the viability mask are built once outside the timer, so each
// iteration pays only the corrector's sorts, commits, retraction and gap
// fill (which scores each gap start, as the pipeline's does), plus one
// copy of the records, which the corrector reorders. Run it at
// -cpu 1: the corrector is serial.
func BenchmarkCorrect(b *testing.B) {
	e := benchSetup(b)
	g, viable, structural, weak, part := largePhaseB(b)
	var recs []analysis.StatRec
	for _, w := range part.Windows {
		recs = analysis.StatRecords(g, viable, e.model, 1.0, 0.0, w[0], w[1], recs)
	}
	buf := make([]analysis.StatRec, len(recs))
	phaseTwo := func(*correct.Outcome) ([]analysis.StatRec, []analysis.Hint) {
		return append(buf[:0], recs...), weak
	}
	opts := correct.Options{ScoreAt: func(off int) float64 { return e.model.Score(g, off, analysis.StatWindow) }}
	b.SetBytes(int64(g.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		correct.RunTiered(nil, g, viable, structural, phaseTwo, opts)
	}
	b.ReportMetric(float64(len(structural)+len(recs)+len(weak)), "hints")
}

// BenchmarkStatPhase times the statistical walk over the large section's
// real contested windows, two ways: fused, analysis.StatRecords' one walk
// per offset, as the pipeline runs it; and reference, the two-walk path
// it replaced (Model.ScoreRangesInto, then analysis.StatHintsRange). Both
// reuse their buffers across iterations, so they time the walks alone.
// Run it at -cpu 1: each is one serial pass.
func BenchmarkStatPhase(b *testing.B) {
	e := benchSetup(b)
	g, viable, _, _, part := largePhaseB(b)
	b.Run("fused", func(b *testing.B) {
		var recs []analysis.StatRec
		b.SetBytes(int64(part.ContestedBytes))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			recs = recs[:0]
			for _, w := range part.Windows {
				recs = analysis.StatRecords(g, viable, e.model, 1.0, 0.0, w[0], w[1], recs)
			}
		}
		b.ReportMetric(float64(len(recs)), "hints")
	})
	b.Run("reference", func(b *testing.B) {
		scores := make([]float64, g.Len())
		var hints []analysis.Hint
		b.SetBytes(int64(part.ContestedBytes))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			hints = hints[:0]
			e.model.ScoreRangesInto(scores, g, analysis.StatWindow, part.Windows)
			for _, w := range part.Windows {
				hints = analysis.StatHintsRange(g, viable, scores, 1.0, 0.0, w[0], w[1], hints)
			}
		}
		b.ReportMetric(float64(len(hints)), "hints")
	})
}

// largeSection lazily builds a production-scale synthetic text section
// (>= 8 MiB) by concatenating ground-truthed binaries generated at
// cumulative base addresses, so branch targets stay internally consistent
// across the whole buffer. Built once: generation is setup cost.
var (
	largeOnce  sync.Once
	largeCode  []byte
	largeBase  uint64
	largeEntry int
)

const largeSectionMin = 8 << 20

func largeSection(b *testing.B) ([]byte, uint64) {
	b.Helper()
	largeOnce.Do(func() {
		largeBase = 0x401000
		addr := largeBase
		var buf []byte
		for seed := int64(9000); len(buf) < largeSectionMin; seed++ {
			bin, err := synth.Generate(synth.Config{
				Seed:     seed,
				Profile:  synth.DefaultProfiles[int(seed)%len(synth.DefaultProfiles)],
				NumFuncs: 300,
				Base:     addr,
			})
			if err != nil {
				panic(err)
			}
			if len(buf) == 0 {
				largeEntry = int(bin.Entry - bin.Base)
			}
			buf = append(buf, bin.Code...)
			addr += uint64(len(bin.Code))
		}
		largeCode = buf
	})
	return largeCode, largeBase
}

// residentFactor measures how much heap the superset graph itself retains
// per section byte: HeapAlloc delta across a Build with forced GCs on both
// sides, divided by the section size. The packed side table reads
// about 8.1x (8 B/offset of Info plus 1/8 B of anchor bitmap); the
// eager representation was ~130x.
func residentFactor(code []byte, base uint64) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	g := superset.Build(code, base)
	runtime.GC()
	runtime.ReadMemStats(&after)
	delta := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	runtime.KeepAlive(g)
	return delta / float64(len(code))
}

// writeAllocReport appends the obs trace (per-span process-wide alloc
// deltas) as a JSON line to $PROBEDIS_ALLOC_REPORT, the artifact the CI
// bench-smoke job uploads. No-op when the variable is unset.
func writeAllocReport(b *testing.B, tr *obs.Span) {
	b.Helper()
	path := os.Getenv("PROBEDIS_ALLOC_REPORT")
	if path == "" {
		return
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	if err := obs.WriteJSON(f, tr); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkLargeSectionSuperset pins the compact-graph win on a
// production-scale section: superset decode of an >= 8 MiB text buffer,
// reporting the graph's resident footprint per section byte (resident_x)
// and the obs-tracked allocation volume alongside the standard ns/op and
// -benchmem numbers.
func BenchmarkLargeSectionSuperset(b *testing.B) {
	code, base := largeSection(b)
	b.SetBytes(int64(len(code)))
	resident := residentFactor(code, base)
	tr := obs.NewTrace("large-superset")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := tr.StartChild("build")
		g := superset.Build(code, base)
		sp.SetBytes(int64(len(code)))
		sp.End()
		runtime.KeepAlive(g)
	}
	b.StopTimer()
	tr.End()
	// Reported after ResetTimer, which clears earlier custom metrics.
	b.ReportMetric(resident, "resident_x")
	b.ReportMetric(float64(tr.AllocBytes)/float64(b.N), "obs-alloc-B/op")
	writeAllocReport(b, tr)
}

// BenchmarkLargeSectionSupersetCancellable is BenchmarkLargeSectionSuperset
// through New and one Decode with a live (never-fired) context, the
// path core runs: the price of the cancellation checkpoints on the
// superset hot loop. The acceptance bar for the cancellable pipeline is
// this staying within 1% of BenchmarkLargeSectionSuperset's ns/op.
func BenchmarkLargeSectionSupersetCancellable(b *testing.B) {
	code, base := largeSection(b)
	ctx := context.Background()
	b.SetBytes(int64(len(code)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := superset.New(code, base)
		g.Decode(ctx, 0, len(code))
		runtime.KeepAlive(g)
	}
}

// BenchmarkLargeSectionPipeline runs the full core pipeline over the
// large section: the end-to-end cost of disassembling a binary the size
// the disasmd service targets.
func BenchmarkLargeSectionPipeline(b *testing.B) {
	e := benchSetup(b)
	code, base := largeSection(b)
	d := core.New(e.model)
	b.SetBytes(int64(len(code)))
	tr := obs.NewTrace("large-pipeline")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := tr.StartChild("disassemble")
		d.Disassemble(code, base, largeEntry)
		sp.SetBytes(int64(len(code)))
		sp.End()
	}
	b.StopTimer()
	tr.End()
	b.ReportMetric(float64(tr.AllocBytes)/float64(b.N), "obs-alloc-B/op")
	writeAllocReport(b, tr)
}

// BenchmarkLargeSectionWorkers runs the pipeline over the >= 8 MiB
// single section serial (workers=1) vs the full worker pool: the one
// multi-worker section benchmark. At workers=1 its ns/op and allocs/op
// track BenchmarkLargeSectionPipeline's.
func BenchmarkLargeSectionWorkers(b *testing.B) {
	e := benchSetup(b)
	code, base := largeSection(b)
	workerSets := []int{1}
	if max := runtime.GOMAXPROCS(0); max > 1 {
		workerSets = append(workerSets, max)
	}
	for _, w := range workerSets {
		name := "workers=1"
		if w != 1 {
			name = "workers=max"
		}
		b.Run(name, func(b *testing.B) {
			d := core.New(e.model, core.WithWorkers(w))
			b.SetBytes(int64(len(code)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.DisassembleSectionTraceContext(nil, code, base, largeEntry, nil, nil)
			}
		})
	}
}

// BenchmarkE1Adversarial regenerates the anti-disassembly extension
// experiment: the core engine over junk-laced binaries.
func BenchmarkE1Adversarial(b *testing.B) {
	e := benchSetup(b)
	bin, err := synth.Generate(synth.Config{
		Seed: 21, Profile: synth.ProfileAdversarial, NumFuncs: 60,
	})
	if err != nil {
		b.Fatal(err)
	}
	d := core.New(e.model)
	b.SetBytes(int64(len(bin.Code)))
	b.ResetTimer()
	var f float64
	for i := 0; i < b.N; i++ {
		f = errFactor(d, []*synth.Binary{bin})
	}
	b.ReportMetric(f, "err/1k-inst")
}

// BenchmarkE2RewritePipeline regenerates the instrumentation experiment's
// core path: disassemble, rewrite with probes, execute both images.
func BenchmarkE2RewritePipeline(b *testing.B) {
	e := benchSetup(b)
	bin, err := synth.Generate(synth.Config{
		Seed: 3, Profile: synth.ProfileComplex, NumFuncs: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	d := core.New(e.model)
	b.SetBytes(int64(len(bin.Code)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det, _ := d.DisassembleSectionTraceContext(nil, bin.Code, bin.Base, int(bin.Entry-bin.Base), nil, nil)
		out, err := rewrite.Rewrite(det, rewrite.Options{
			NewBase: 0x600000, Probe: true, Entry: bin.Entry,
		})
		if err != nil {
			b.Fatal(err)
		}
		counters := make([]byte, out.CounterLen)
		m := emu.New(out.Code, out.Base)
		m.Map(emu.Region{Base: out.CounterBase, Data: counters})
		m.Run(out.Entry, 200000)
	}
}
