// Package core is the public entry point of the metadata-free
// disassembler: it combines superset disassembly, the data-driven
// statistical models, the static/behavioural analyses and the prioritized
// error-correction algorithm into a byte-precise code/data classification
// with recovered instructions, basic blocks and functions.
//
// Typical use:
//
//	d := core.New(core.DefaultModel())
//	res := d.Disassemble(text, base, entryOff)
package core

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"slices"

	"probedis/internal/analysis"
	"probedis/internal/cfg"
	"probedis/internal/correct"
	"probedis/internal/ctxutil"
	"probedis/internal/dis"
	"probedis/internal/obs"
	"probedis/internal/stats"
	"probedis/internal/superset"
	"probedis/internal/tier"
)

// PipelineFingerprint identifies the pipeline generation for the
// persistent result store (internal/store): entries written under a
// different fingerprint are invalidated wholesale, because a cached
// result is only reusable while the pipeline that produced it would
// reproduce it byte for byte. Bump the version suffix in any PR that
// changes pipeline output or the serialized response encoding (the
// pinned-accuracy and golden-listing tests are the tripwires for the
// former).
const PipelineFingerprint = "probedis-pipeline-v2"

// Option configures a Disassembler.
type Option func(*Disassembler)

// WithoutStats disables the statistical classification layer (ablation:
// analyses + correction only).
func WithoutStats() Option { return func(d *Disassembler) { d.useStats = false } }

// WithoutBehavior disables the behavioural chain penalty (ablation).
func WithoutBehavior() Option { return func(d *Disassembler) { d.penaltyWeight = 0 } }

// WithoutJumpTables disables jump-table discovery (ablation).
func WithoutJumpTables() Option { return func(d *Disassembler) { d.useJumpTables = false } }

// WithoutPrioritization removes the prioritized commit order (ablation):
// every hint gets the same priority and score, so the corrector consumes
// evidence in address order — the naive single-pass strategy — instead of
// proofs-first. The analyses still run; only the combination loses its
// ordering.
func WithoutPrioritization() Option { return func(d *Disassembler) { d.flatPrio = true } }

// WithThreshold shifts the statistical decision boundary (F4 sweep).
func WithThreshold(t float64) Option { return func(d *Disassembler) { d.threshold = t } }

// WithWorkers sizes the one work pool each call runs on. Sections,
// superset decode chunks, hint analyses and statistical scoring pieces
// are all tasks on that pool: a task runs on a new goroutine while one of
// the n slots is free, and on the goroutine that submitted it otherwise.
// n <= 0 (the default) means GOMAXPROCS; n == 1 runs the whole pipeline
// on the calling goroutine. The result is byte-identical for every n —
// parallelism only changes wall-clock time.
func WithWorkers(n int) Option { return func(d *Disassembler) { d.workers = n } }

// WithShardBytes has no effect: every hint analysis runs over the whole
// section as one task on the work pool.
//
// Deprecated: kept only for callers that still pass it; it will be
// deleted.
func WithShardBytes(int) Option { return func(*Disassembler) {} }

// Disassembler is a configured metadata-free disassembly pipeline. It is
// safe for concurrent use: all per-run state lives on the stack of
// Disassemble.
type Disassembler struct {
	model *stats.Model

	useStats      bool
	useJumpTables bool
	flatPrio      bool
	penaltyWeight float64
	threshold     float64
	workers       int
}

// Workers returns the effective worker-pool size (see WithWorkers).
func (d *Disassembler) Workers() int {
	if d.workers > 0 {
		return d.workers
	}
	return runtime.GOMAXPROCS(0)
}

// New returns a Disassembler using the given trained model. A nil model is
// allowed only with WithoutStats.
func New(model *stats.Model, opts ...Option) *Disassembler {
	d := &Disassembler{
		model:         model,
		useStats:      true,
		useJumpTables: true,
		penaltyWeight: 1.0,
	}
	for _, o := range opts {
		o(d)
	}
	if d.model == nil {
		d.useStats = false
	}
	return d
}

// Clone returns a copy of the disassembler with extra options applied —
// the configured base stays untouched, so a caller can derive e.g. a
// serial twin (Clone(WithWorkers(1))) of a shared pipeline.
func (d *Disassembler) Clone(opts ...Option) *Disassembler {
	c := *d
	for _, o := range opts {
		o(&c)
	}
	return &c
}

// HintsFor returns the single-phase hint list for one section (unsorted,
// priorities flattened under WithoutPrioritization): the structural
// stream the pipeline collects, followed by statistical hints over the
// whole section rather than only its contested windows, with viability
// recomputed from the graph. The statistical hints come from the two-walk
// reference (whole-section Model.ScoreAll, then analysis.StatHints), so
// the single-phase references built on HintsFor check the pipeline's
// fused walk. Exposed for the verification oracle, which checks that the
// hint stream is deterministic and totally ordered and rebuilds the tier
// partition from it, and for the convergence experiment, which replays
// correction with a bounded hint budget.
func (d *Disassembler) HintsFor(g *superset.Graph, entry int) []analysis.Hint {
	viable := analysis.Viability(g)
	hints, _ := d.collectHints(nil, g, viable, entry, nil, newWorkPool(d.Workers()))
	if d.useStats {
		scores := d.model.ScoreAll(g, analysis.StatWindow)
		hints = append(hints, analysis.StatHints(g, viable, scores, d.penaltyWeight, d.threshold)...)
	}
	d.flatten(hints)
	return hints
}

// flatten applies WithoutPrioritization to a hint stream in place: every
// hint drops to statistical priority with a zero score, so the corrector
// commits in address order. A no-op on every other configuration.
func (d *Disassembler) flatten(hints []analysis.Hint) {
	if !d.flatPrio {
		return
	}
	for i := range hints {
		hints[i].Prio = analysis.PrioStat
		hints[i].Score = 0
	}
}

// Fingerprint names what this disassembler's results depend on, for the
// persistent result store: PipelineFingerprint, then a short digest of
// the statistical model and of every option that changes output. Workers
// never change output, so they are not part of it.
func (d *Disassembler) Fingerprint() string {
	h := sha256.New()
	if d.useStats {
		sum := d.model.Digest()
		h.Write(sum[:])
	}
	fmt.Fprintf(h, "stats=%t jumptables=%t flat=%t penalty=%x threshold=%x",
		d.useStats, d.useJumpTables, d.flatPrio,
		math.Float64bits(d.penaltyWeight), math.Float64bits(d.threshold))
	return fmt.Sprintf("%s/%x", PipelineFingerprint, h.Sum(nil)[:8])
}

// Name implements dis.Engine.
func (d *Disassembler) Name() string { return "probedis" }

// Disassemble classifies one text section. entry is the section-relative
// entry-point offset, or -1 when unknown.
func (d *Disassembler) Disassemble(code []byte, base uint64, entry int) *dis.Result {
	det, _ := d.DisassembleSectionTraceContext(nil, code, base, entry, nil, nil)
	return det.Result
}

// Detail bundles the full pipeline output for callers that need more than
// the classification (listings, CFG consumers, the benchmarks).
type Detail struct {
	Result  *dis.Result
	Graph   *superset.Graph
	Viable  []bool
	Tables  []analysis.JumpTable
	Hints   int
	Outcome *correct.Outcome
	CFG     *cfg.CFG

	// Tier is the settled/contested partition the tiered correction
	// pre-pass derived after the structural commit phase. Under
	// WithoutPrioritization no hint is structural, so it is one window
	// covering the whole section.
	Tier *tier.Partition
}

// run is the section pipeline on a built superset graph. Viability runs
// over the whole section; the structural hint analyses run as
// whole-section tasks on the work pool, and so do the statistical walk's
// pieces of the contested windows. The hint stream merges in one
// canonical order, and the tiered corrector consumes it under its usual
// total order, so the output is byte-identical for every worker count.
//
// sp is the enclosing (per-section) trace span, or nil when tracing is
// off; every stage is a direct child of sp, so a rendered trace accounts
// for the whole run. ctx is polled at every stage boundary and inside the
// hint and correction loops; once it is done the run returns
// (nil, ctx.Err()) and partial stage output is discarded, never surfaced.
func (d *Disassembler) run(ctx context.Context, g *superset.Graph, entry int, sp *obs.Span, pool *workPool) (*Detail, error) {
	if ctxutil.Cancelled(ctx) {
		return nil, ctxutil.Err(ctx)
	}
	vsp := sp.StartChild("viability")
	viable := analysis.Viability(g)
	vsp.End()

	hsp := sp.StartChild("hints")
	hints, tables := d.collectHints(ctx, g, viable, entry, hsp, pool)
	// The seeds and the count are all finish needs of the stream, so it
	// dies once SplitHints has copied it into the two phases.
	seeds, nhints := funcSeeds(entry, hints), len(hints)
	hsp.Count("hints", int64(nhints))
	hsp.End()
	// A cancellation observed by collectHints leaves the hint stream
	// incomplete; abort before the partial stream reaches the corrector.
	if ctxutil.Cancelled(ctx) {
		return nil, ctxutil.Err(ctx)
	}
	// Flattened priorities leave no hint above PrioStat, so the split
	// below puts the whole stream in phase B over one whole-section window.
	d.flatten(hints)

	csp := sp.StartChild("correct")
	structural, weak := tier.SplitHints(hints)
	var part *tier.Partition
	statHints := 0
	opts := correct.Options{Trace: csp}
	if d.useStats {
		// Gap fill reads a score only at each gap start, so it is
		// computed there, where it equals ScoreAll's.
		opts.ScoreAt = func(off int) float64 { return d.model.Score(g, off, analysis.StatWindow) }
	}
	out, err := correct.RunTiered(ctx, g, viable, structural, func(o *correct.Outcome) ([]analysis.StatRec, []analysis.Hint) {
		tsp := csp.StartChild("tier")
		part = tier.FromStates(o.State)
		tsp.Count("settled", int64(part.SettledBytes))
		tsp.Count("contested", int64(part.ContestedBytes))
		tsp.Count("windows", int64(len(part.Windows)))
		tsp.End()
		if !d.useStats {
			return nil, weak
		}
		stat := d.statRecords(g, viable, part, pool, csp)
		statHints = len(stat)
		return stat, weak
	}, opts)
	csp.End()
	if err != nil {
		return nil, err
	}
	return d.finish(ctx, g, viable, tables, seeds, nhints+statHints, out, part, sp)
}

// funcSeeds returns the function-recovery seeds of a structural hint
// stream: the entry point, then the offsets of its call-target,
// prologue and entry code hints in stream order.
func funcSeeds(entry int, hints []analysis.Hint) []int {
	seeds := []int{}
	if entry >= 0 {
		seeds = append(seeds, entry)
	}
	for _, h := range hints {
		if h.Kind == analysis.HintCode &&
			(h.Src == "calltarget" || h.Src == "prologue" || h.Src == "entry") {
			seeds = append(seeds, h.Off)
		}
	}
	return seeds
}

// finish is the pipeline tail after correction: result emission and CFG
// recovery from the function seeds.
func (d *Disassembler) finish(ctx context.Context, g *superset.Graph, viable []bool, tables []analysis.JumpTable, seeds []int, hints int, out *correct.Outcome, part *tier.Partition, sp *obs.Span) (*Detail, error) {
	esp := sp.StartChild("emit")
	// Correction is done with out.InstStart, so the result shares it.
	res := &dis.Result{Base: g.Base, IsCode: make([]bool, g.Len()), InstStart: out.InstStart}
	for i, s := range out.State {
		res.IsCode[i] = s == correct.Code
	}
	esp.End()
	fsp := sp.StartChild("cfg")
	c, err := cfg.BuildTraceContext(ctx, g, out.InstStart, seeds, fsp)
	if err != nil {
		fsp.End()
		return nil, err
	}
	res.FuncStarts = c.FuncStarts()
	fsp.Count("blocks", int64(c.NumBlocks()))
	fsp.Count("funcs", int64(len(c.Funcs)))
	fsp.End()

	return &Detail{
		Result:  res,
		Graph:   g,
		Viable:  viable,
		Tables:  tables,
		Hints:   hints,
		Outcome: out,
		CFG:     c,
		Tier:    part,
	}, nil
}

// collectHints runs the six structural analyses as whole-section tasks
// on the pool, each inside its own child span of sp that records the
// hints it emitted. Each task writes only its own output, and the merge
// concatenates them in the fixed canonical stage order — entry, jump
// tables, call targets, prologues, data patterns, literal pools —
// whatever order the tasks finished in.
//
// ctx is polled before each task starts; once it is done the remaining
// tasks are skipped, leaving an incomplete stream the caller must discard
// after its own ctx check.
func (d *Disassembler) collectHints(ctx context.Context, g *superset.Graph, viable []bool, entry int, sp *obs.Span, pool *workPool) ([]analysis.Hint, []analysis.JumpTable) {
	var tables []analysis.JumpTable
	var entryH, jtH, ctH, proH, dataH, litH []analysis.Hint
	type task struct {
		name string
		fn   func() int
	}
	tasks := []task{
		{"entry", func() int { entryH = analysis.EntryHint(g, entry); return len(entryH) }},
		{"datapattern", func() int { dataH = analysis.DataPatternHints(g); return len(dataH) }},
	}
	if d.useJumpTables {
		tasks = append(tasks, task{"jumptable", func() int {
			tables = analysis.FindJumpTables(g, viable)
			jtH = analysis.JumpTableHints(tables)
			return len(jtH)
		}})
	}
	tasks = append(tasks,
		task{"calltarget", func() int { ctH = analysis.CallTargetHints(g, viable); return len(ctH) }},
		task{"prologue", func() int { proH = analysis.PrologueHints(g, viable); return len(proH) }},
		task{"literalpool", func() int { litH = analysis.LiteralPoolHints(g, viable); return len(litH) }},
	)
	pool.run(len(tasks), func(ti int) {
		if ctxutil.Cancelled(ctx) {
			return
		}
		ssp := sp.StartChild(tasks[ti].name)
		ssp.Count("hints", int64(tasks[ti].fn()))
		ssp.End()
	})
	return slices.Concat(entryH, jtH, ctH, proH, dataH, litH), tables
}
