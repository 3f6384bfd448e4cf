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
const PipelineFingerprint = "probedis-pipeline-v1"

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

// WithFloatRuns enables the experimental unreferenced-constant-pool
// detector (see analysis.FloatRunHints for why it is off by default).
func WithFloatRuns() Option { return func(d *Disassembler) { d.useFloatRuns = true } }

// WithWindow sets the scoring window in instructions (default 8).
func WithWindow(w int) Option { return func(d *Disassembler) { d.window = w } }

// WithWorkers bounds the pipeline's worker pool: ELF section fan-out and
// the concurrent hint analyses use at most n goroutines. n <= 0 (the
// default) means GOMAXPROCS; n == 1 forces the fully serial path. The
// result is byte-identical for every n — parallelism only changes
// wall-clock time.
func WithWorkers(n int) Option { return func(d *Disassembler) { d.workers = n } }

// WithShardBytes splits sections larger than n bytes into ~n-byte shards
// for the analysis stages: the superset side table becomes a windowed
// on-demand structure (resident working set O(shard x workers) instead
// of ~16x the section), viability and the anchored hint analyses run per
// shard on the worker pool — stealing slots across shards and sections
// within one request — and the per-shard outputs merge deterministically
// into the exact stream a one-shard run produces, so the final
// classification is byte-identical for every shard size (enforced by
// oracle.CheckShards and the seam boundary-sweep suite). n <= 0 (the
// default) runs every section as a single shard over the eager graph;
// positive values are clamped to a 256-byte floor. Production guidance:
// a few MiB; tests sweep tiny values to park seams on adversarial
// constructs.
func WithShardBytes(n int) Option {
	return func(d *Disassembler) {
		if n > 0 && n < minShardBytes {
			n = minShardBytes
		}
		d.shardBytes = n
	}
}

// ShardBytes returns the configured shard size (0 = one shard per section).
func (d *Disassembler) ShardBytes() int { return d.shardBytes }

// Disassembler is a configured metadata-free disassembly pipeline. It is
// safe for concurrent use: all per-run state lives on the stack of
// Disassemble.
type Disassembler struct {
	model *stats.Model

	useStats      bool
	useJumpTables bool
	useFloatRuns  bool
	flatPrio      bool
	penaltyWeight float64
	threshold     float64
	window        int
	workers       int
	shardBytes    int
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
		window:        8,
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

// HintsFor returns the combined hint list for one section exactly as the
// correction stage would consume it (unsorted, priorities flattened under
// WithoutPrioritization): viability and statistical scores are recomputed
// from the graph over the whole section. Exposed for the verification
// oracle, which checks that the hint stream is deterministic and totally
// ordered and rebuilds the tier partition from it.
func (d *Disassembler) HintsFor(g *superset.Graph, entry int) []analysis.Hint {
	viable := analysis.Viability(g)
	var scores []float64
	if d.useStats {
		scores = make([]float64, g.Len())
		d.model.ScoreAllInto(scores, g, d.window)
	}
	hints, _ := d.CollectHints(g, viable, entry, scores)
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

// DisassembleDetail is Disassemble plus all intermediate products.
func (d *Disassembler) DisassembleDetail(code []byte, base uint64, entry int) *Detail {
	det, _ := d.DisassembleSectionTraceContext(nil, code, base, entry, nil, nil)
	return det
}

// run is the section pipeline on a built superset graph. Viability and
// the per-shard hint analyses fan out over the shard plan on the
// work-stealing pool (pool may be nil: a section-level call gets its own);
// without sharding the plan is the single shard [0, n). The per-shard
// outputs merge into one canonical hint stream (each analysis emits in
// ascending anchor order, so concatenation in shard order reproduces the
// whole-section scan; call-target counts merge globally before emission),
// and the tiered corrector consumes it under its usual total order — which
// is the whole seam-resolution rule: no seam-local tie-breaking exists to
// get wrong, so the output is byte-identical for every shard size
// (enforced by oracle.CheckShards and the boundary-sweep suite).
//
// sp is the enclosing (per-section) trace span, or nil when tracing is
// off; every stage is a direct child of sp, so a rendered trace accounts
// for the whole run. ctx is polled at every stage boundary and inside the
// per-shard and correction loops; once it is done the run returns
// (nil, ctx.Err()) and partial stage output is discarded, never surfaced.
//
// Statistical scores live in per-contested-window buffers (see
// windowScores), so with a windowed graph (superset.BuildLazy) pipeline
// residency beyond the unavoidable O(section) output arrays is
// O(shard x workers).
func (d *Disassembler) run(ctx context.Context, g *superset.Graph, entry int, sp *obs.Span, pool *workPool) (*Detail, error) {
	if pool == nil {
		pool = newWorkPool(d.Workers())
	}
	shards := ShardPlan(g.Len(), d.shardBytes)
	sp.Count("shards", int64(len(shards)))

	vsp := sp.StartChild("viability")
	viable, err := analysis.ViabilityRanges(ctx, g, shards, pool.run)
	vsp.End()
	if err != nil {
		return nil, err
	}

	hsp := sp.StartChild("hints")
	hints, tables := d.collectHints(ctx, g, viable, entry, shards, hsp, pool)
	hsp.Count("hints", int64(len(hints)))
	hsp.End()
	// A cancellation observed by collectHints leaves the hint stream
	// incomplete; abort before the partial stream reaches the corrector.
	if ctxutil.Cancelled(ctx) {
		return nil, ctxutil.Err(ctx)
	}
	// Flattened priorities leave no hint above PrioStat, so the split
	// below puts the whole stream in phase B over one whole-section window.
	d.flatten(hints)

	// The sequential per-shard scans are done; everything from here on —
	// hint commits in priority order, contested-window scoring, gap fill,
	// the CFG walk — reads the graph in scattered order, where faulting a
	// whole block to serve one offset would thrash the resident-block cap.
	// Point reads serve those misses at single-decode cost instead, keeping
	// residency frozen at its scan-phase bound (no-op on an eager graph).
	g.SetPointReads(true)

	csp := sp.StartChild("correct")
	structural, weak := tier.SplitHints(hints)
	var part *tier.Partition
	ws := &windowScores{}
	statHints := 0
	opts := correct.Options{Trace: csp}
	if d.useStats {
		opts.ScoreAt = ws.at
	}
	out, err := correct.RunTieredContext(ctx, g, viable, structural, func(o *correct.Outcome) []analysis.Hint {
		part = tier.FromStates(o.State)
		tsp := csp.StartChild("tier")
		tsp.Count("settled", int64(part.SettledBytes))
		tsp.Count("contested", int64(part.ContestedBytes))
		tsp.Count("windows", int64(len(part.Windows)))
		tsp.End()
		if !d.useStats {
			return weak
		}
		ssp := csp.StartChild("stats")
		ws.score(d, g, part, pool)
		ssp.Count("scored", int64(part.ContestedBytes))
		ssp.End()
		shsp := csp.StartChild("stathints")
		var stat []analysis.Hint
		for i, w := range part.Windows {
			stat = analysis.StatHintsRangeRel(g, viable, ws.bufs[i],
				d.penaltyWeight, d.threshold, w[0], w[1], stat)
		}
		d.flatten(stat)
		shsp.Count("hints", int64(len(stat)))
		shsp.End()
		statHints = len(stat)
		return append(stat, weak...)
	}, opts)
	csp.End()
	if err != nil {
		return nil, err
	}
	return d.finish(ctx, g, entry, viable, tables, hints, statHints, out, part, sp)
}

// finish is the pipeline tail after correction: result emission,
// function-seed extraction and CFG recovery.
func (d *Disassembler) finish(ctx context.Context, g *superset.Graph, entry int, viable []bool, tables []analysis.JumpTable, hints []analysis.Hint, statHints int, out *correct.Outcome, part *tier.Partition, sp *obs.Span) (*Detail, error) {
	esp := sp.StartChild("emit")
	res := dis.NewResult(g.Base, g.Len())
	for i, s := range out.State {
		res.IsCode[i] = s == correct.Code
	}
	copy(res.InstStart, out.InstStart)

	// Function recovery.
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
		Hints:   len(hints) + statHints,
		Outcome: out,
		CFG:     c,
		Tier:    part,
	}, nil
}

// CollectHints runs every enabled analysis over the whole section and
// returns the combined hint list (unsorted) plus discovered jump tables:
// the structural stream of a one-shard run, followed by the statistical
// hints when scores is non-nil and the statistical layer is enabled.
// Exposed for the convergence experiment, which replays correction with a
// bounded hint budget.
func (d *Disassembler) CollectHints(g *superset.Graph, viable []bool, entry int, scores []float64) ([]analysis.Hint, []analysis.JumpTable) {
	hints, tables := d.collectHints(nil, g, viable, entry, ShardPlan(g.Len(), 0), nil, newWorkPool(d.Workers()))
	if d.useStats && scores != nil {
		hints = append(hints, analysis.StatHints(g, viable, scores, d.penaltyWeight, d.threshold)...)
	}
	return hints, tables
}

// collectHints runs the structural analyses over the shard plan: the
// anchored analyses (jump tables, call targets, prologues, literal pools)
// run once per shard as independent tasks on the pool, while the
// inherently global stages (entry; the raw-byte data-pattern runs, whose
// fill/string/pointer runs are unbounded and must not be split; float
// runs) stay whole-section tasks riding the same pool. Outputs merge in
// the fixed canonical stage order — entry, jump tables, call targets,
// prologues, data patterns, literal pools, float runs — with shards
// ascending inside each stage, which reproduces the whole-section
// analyses' stream element for element, whatever the tiling or the
// order tasks finished in.
//
// Each task runs inside its own child span of sp. ctx is polled before
// each task starts; once it is done the remaining tasks are skipped,
// leaving an incomplete stream the caller must discard after its own ctx
// check.
func (d *Disassembler) collectHints(ctx context.Context, g *superset.Graph, viable []bool, entry int, shards [][2]int, sp *obs.Span, pool *workPool) ([]analysis.Hint, []analysis.JumpTable) {
	k := len(shards)
	var entryPart, dataPart, floatPart []analysis.Hint
	jtParts := make([][]analysis.JumpTable, k)
	jtHints := make([][]analysis.Hint, k)
	ctCounts := make([]map[int]int32, k)
	proParts := make([][]analysis.Hint, k)
	litParts := make([][]analysis.Hint, k)

	// Task order is shard-major — the whole-section tasks first, then every
	// per-shard analysis for shard 0, then shard 1, ... — so consecutive
	// tasks read the same windowed-graph blocks. Stage-major order (all
	// jump-table shards, then all call-target shards, ...) would sweep the
	// section once per stage and refault every block each time under the
	// resident cap. Execution order is pure cost: each task writes only its
	// own slot, and the merge below imposes the canonical stage order.
	// Each task returns the number of hints it emitted, which its span
	// records.
	type task struct {
		name string
		fn   func() int
	}
	tasks := []task{
		{"entry", func() int { entryPart = analysis.EntryHint(g, entry); return len(entryPart) }},
		{"datapattern", func() int { dataPart = analysis.DataPatternHints(g); return len(dataPart) }},
	}
	if d.useFloatRuns {
		tasks = append(tasks, task{"floatrun", func() int { floatPart = analysis.FloatRunHints(g); return len(floatPart) }})
	}
	ctTask := -1
	for i := range shards {
		i := i
		if d.useJumpTables {
			tasks = append(tasks, task{"jumptable", func() int {
				jtParts[i] = analysis.FindJumpTablesRange(g, viable, shards[i][0], shards[i][1], nil)
				jtHints[i] = analysis.JumpTableHints(jtParts[i])
				return len(jtHints[i])
			}})
		}
		if ctTask < 0 {
			ctTask = len(tasks)
		}
		tasks = append(tasks, task{"calltarget", func() int {
			m := make(map[int]int32)
			analysis.CallTargetCountsRange(g, viable, shards[i][0], shards[i][1], m)
			ctCounts[i] = m
			return 0 // hints exist only after the global count merge
		}})
		tasks = append(tasks, task{"prologue", func() int {
			proParts[i] = analysis.PrologueHintsRange(g, viable, shards[i][0], shards[i][1], nil)
			return len(proParts[i])
		}})
		tasks = append(tasks, task{"literalpool", func() int {
			litParts[i] = analysis.LiteralPoolHintsRange(g, viable, shards[i][0], shards[i][1], nil)
			return len(litParts[i])
		}})
	}

	spans := make([]*obs.Span, len(tasks))
	pool.run(len(tasks), func(ti int) {
		if ctxutil.Cancelled(ctx) {
			return
		}
		ssp := sp.StartChild(tasks[ti].name)
		ssp.Count("hints", int64(tasks[ti].fn()))
		ssp.End()
		spans[ti] = ssp
	})

	// Merge: canonical stage order, shards ascending within a stage. Jump
	// table hints are emitted table by table, so the per-shard hint lists
	// concatenate to the hints of the concatenated tables.
	var tables []analysis.JumpTable
	for _, p := range jtParts {
		tables = append(tables, p...)
	}
	counts := make(map[int]int32)
	for _, m := range ctCounts {
		for t, n := range m {
			counts[t] += n
		}
	}
	ctHints := analysis.CallTargetHintsFromCounts(counts)
	spans[ctTask].Count("hints", int64(len(ctHints)))
	parts := [][]analysis.Hint{entryPart}
	parts = append(parts, jtHints...)
	parts = append(parts, ctHints)
	parts = append(parts, proParts...)
	parts = append(parts, dataPart)
	parts = append(parts, litParts...)
	parts = append(parts, floatPart)
	return slices.Concat(parts...), tables
}
