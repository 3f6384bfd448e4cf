package main

import (
	"fmt"
	"sync"

	"probedis/internal/analysis"
	"probedis/internal/cfg"
	"probedis/internal/core"
	"probedis/internal/correct"
	"probedis/internal/dis"
	"probedis/internal/elfx"
	"probedis/internal/stats"
	"probedis/internal/superset"
	"probedis/internal/tier"
)

// Pipeline parameters at core's defaults (core.New without options).
const (
	replayWindow    = 8
	replayPenalty   = 1.0
	replayThreshold = 0.0
)

// scorePool recycles score buffers the way core's pool does.
var scorePool sync.Pool

func scoreBuf(n int) []float64 {
	if v, _ := scorePool.Get().(*[]float64); v != nil && cap(*v) >= n {
		return (*v)[:n]
	}
	return make([]float64, n)
}

// replayer re-runs the default pipeline from outside the program, one
// public layer call at a time, with a span around each call. The calls
// are serial, like a WithWorkers(1) run, so layer times add up to the
// image's wall time. TestReplayMatchesPipeline pins that the replay
// returns exactly what core.DisassembleELF returns.
type replayer struct {
	tr    *tracer
	model *stats.Model

	// Work counts over every replayed section.
	sectionBytes   int64
	scanFallbacks  int64
	dcHits, dcMiss int64
	hints          int64
	settled        int64
	scored         int64
	committed      int64
	rejected       int64
	retracted      int64
	blocks         int64
}

// image replays the pipeline over one ELF image under a root span named
// "image" tagged with request id req.
func (p *replayer) image(img []byte, req int) ([]core.SectionResult, error) {
	root := p.tr.start("image", 0, req)
	defer p.tr.end(root)
	var f *elfx.File
	var err error
	p.tr.call("elfx.parse", root, req, func() { f, err = elfx.Parse(img) })
	if err != nil {
		return nil, err
	}
	secs := f.ExecutableSections()
	if len(secs) == 0 {
		return nil, fmt.Errorf("no executable sections")
	}
	out := make([]core.SectionResult, len(secs))
	for i, s := range secs {
		// Entry offset and extern ranges exactly as core derives them.
		entry := -1
		if f.Entry >= s.Addr && f.Entry-s.Addr < uint64(len(s.Data)) {
			entry = int(f.Entry - s.Addr)
		}
		var extern []superset.Range
		for j, o := range secs {
			if j != i && len(o.Data) > 0 {
				extern = append(extern, superset.Range{Start: o.Addr, End: o.Addr + uint64(len(o.Data))})
			}
		}
		out[i] = core.SectionResult{Name: s.Name, Addr: s.Addr, Result: p.section(s.Data, s.Addr, entry, extern, root, req)}
	}
	return out, nil
}

// section replays the unsharded tiered pipeline over one section.
func (p *replayer) section(code []byte, base uint64, entry int, extern []superset.Range, root, req int) *dis.Result {
	call := func(name string, fn func()) { p.tr.call(name, root, req, fn) }
	h0, m0 := superset.DecodeCacheStats()

	var g *superset.Graph
	call("superset.build", func() { g = superset.Build(code, base) })
	g.SetExtern(extern)
	var viable []bool
	call("analysis.viability", func() { viable = analysis.Viability(g) })

	// The structural analyses, in core's canonical concatenation order.
	var hints []analysis.Hint
	var tables []analysis.JumpTable
	for _, a := range []struct {
		name string
		fn   func() []analysis.Hint
	}{
		{"entry", func() []analysis.Hint { return analysis.EntryHint(g, entry) }},
		{"jumptable", func() []analysis.Hint {
			tables = analysis.FindJumpTables(g, viable)
			return analysis.JumpTableHints(tables)
		}},
		{"calltarget", func() []analysis.Hint { return analysis.CallTargetHints(g, viable) }},
		{"prologue", func() []analysis.Hint { return analysis.PrologueHints(g, viable) }},
		{"datapattern", func() []analysis.Hint { return analysis.DataPatternHints(g) }},
		{"literalpool", func() []analysis.Hint { return analysis.LiteralPoolHints(g, viable) }},
	} {
		call("analysis.hints."+a.name, func() { hints = append(hints, a.fn()...) })
	}

	var structural, weak []analysis.Hint
	call("tier.partition", func() { structural, weak = tier.SplitHints(hints) })
	// The score buffer cycles through a pool exactly as in core, so the
	// replay pays the same allocations: for sections large enough to
	// trigger collections mid-run the pool is usually empty. The tiered
	// path writes every score it later reads, so stale values never leak.
	scores := scoreBuf(g.Len())
	defer scorePool.Put(&scores)
	var part *tier.Partition
	var stat []analysis.Hint
	cid := p.tr.start("correct", root, req)
	out, _ := correct.RunTieredContext(nil, g, viable, structural, func(o *correct.Outcome) []analysis.Hint {
		inner := func(name string, fn func()) { p.tr.call(name, cid, req, fn) }
		inner("tier.partition", func() { part = tier.FromStates(o.State) })
		inner("stats.score", func() { p.model.ScoreRangesInto(scores, g, replayWindow, part.Windows) })
		inner("analysis.stathints", func() {
			for _, w := range part.Windows {
				stat = analysis.StatHintsRange(g, viable, scores, replayPenalty, replayThreshold, w[0], w[1], stat)
			}
		})
		return append(stat, weak...)
	}, correct.Options{Scores: scores})
	p.tr.end(cid)

	var res *dis.Result
	var seeds []int
	call("core.emit", func() {
		res = dis.NewResult(g.Base, g.Len())
		for i, s := range out.State {
			res.IsCode[i] = s == correct.Code
		}
		copy(res.InstStart, out.InstStart)
		seeds = []int{}
		if entry >= 0 {
			seeds = append(seeds, entry)
		}
		for _, h := range hints {
			if h.Kind == analysis.HintCode && (h.Src == "calltarget" || h.Src == "prologue" || h.Src == "entry") {
				seeds = append(seeds, h.Off)
			}
		}
	})
	var c *cfg.CFG
	call("cfg", func() { c = cfg.Build(g, out.InstStart, seeds) })
	res.FuncStarts = c.FuncStarts()

	h1, m1 := superset.DecodeCacheStats()
	p.sectionBytes += int64(len(code))
	p.scanFallbacks += g.ScanFallbackCount()
	p.dcHits += h1 - h0
	p.dcMiss += m1 - m0
	p.hints += int64(len(hints) + len(stat))
	p.settled += int64(part.SettledBytes)
	p.scored += int64(part.ContestedBytes)
	p.committed += int64(out.Committed)
	p.rejected += int64(out.Rejected)
	p.retracted += int64(out.Retracted)
	p.blocks += int64(c.NumBlocks())
	return res
}
