package core

import (
	"fmt"
	"reflect"
	"testing"

	"probedis/internal/analysis"
	"probedis/internal/cfg"
	"probedis/internal/correct"
	"probedis/internal/dis"
	"probedis/internal/superset"
	"probedis/internal/synth"
)

// singlePhase is the reference the pipeline's tiered corrector must
// reproduce: the single-phase run it replaced, rebuilt from public pieces
// — an eager graph, whole-section viability and scores, the full hint
// stream from HintsFor, one correct.Run, then the same emit and CFG tail.
func singlePhase(d *Disassembler, code []byte, base uint64, entry int) (*dis.Result, *correct.Outcome) {
	g := superset.Build(code, base)
	viable := analysis.Viability(g)
	var scores []float64
	if d.useStats {
		scores = make([]float64, g.Len())
		d.model.ScoreAllInto(scores, g, d.window)
	}
	hints := d.HintsFor(g, entry)
	out := correct.Run(g, viable, hints, correct.Options{Scores: scores})

	res := dis.NewResult(base, len(code))
	for i, s := range out.State {
		res.IsCode[i] = s == correct.Code
	}
	copy(res.InstStart, out.InstStart)
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
	res.FuncStarts = cfg.Build(g, out.InstStart, seeds).FuncStarts()
	return res, out
}

// requireMatchesSinglePhase checks a pipeline run against singlePhase:
// the same result (classification, instruction and function starts), the
// same committed state with the same deciding analysis per byte, and the
// same committed and retracted counts. Only Rejected may differ — the
// tiered run never generates the statistical hints at settled offsets
// that the single-phase run rejects.
func requireMatchesSinglePhase(tb testing.TB, label string, d *Disassembler, code []byte, base uint64, entry int, got *Detail) {
	tb.Helper()
	wantRes, want := singlePhase(d, code, base, entry)
	if !reflect.DeepEqual(wantRes, got.Result) {
		tb.Fatalf("%s: result differs from the single-phase reference", label)
	}
	o := got.Outcome
	if !reflect.DeepEqual(want.State, o.State) || !reflect.DeepEqual(want.Owner, o.Owner) {
		tb.Fatalf("%s: correction state differs from the single-phase reference", label)
	}
	for i := range want.SrcOf {
		if want.SrcName(i) != o.SrcName(i) {
			tb.Fatalf("%s: byte +%#x decided by %q, reference says %q", label, i, o.SrcName(i), want.SrcName(i))
		}
	}
	if want.Committed != o.Committed || want.Retracted != o.Retracted {
		tb.Fatalf("%s: committed/retracted %d/%d, reference %d/%d",
			label, o.Committed, o.Retracted, want.Committed, want.Retracted)
	}
}

// TestMatchesSinglePhaseReference pins every configuration of the one
// pipeline path — the default and each ablation, unsharded and at a small
// shard size — to the single-phase reference over every synth profile.
// WithoutPrioritization and WithoutStats are the degenerate cases of the
// tiered corrector (one whole-section window; no statistical phase), so
// this is what lets them share its code.
func TestMatchesSinglePhaseReference(t *testing.T) {
	model := DefaultModel()
	configs := []struct {
		name string
		opts []Option
	}{
		{"default", nil},
		{"nostats", []Option{WithoutStats()}},
		{"noprio", []Option{WithoutPrioritization()}},
		{"nobehav", []Option{WithoutBehavior()}},
		{"nojt", []Option{WithoutJumpTables()}},
		{"floatruns", []Option{WithFloatRuns()}},
		{"threshold", []Option{WithThreshold(0.5)}},
		{"nostats+noprio", []Option{WithoutStats(), WithoutPrioritization()}},
	}
	for pi, prof := range synth.AllProfiles() {
		bin, err := synth.Generate(synth.Config{Seed: int64(300 + pi), Profile: prof, NumFuncs: 10})
		if err != nil {
			t.Fatal(err)
		}
		entry := int(bin.Entry - bin.Base)
		for _, c := range configs {
			d := New(model, c.opts...)
			for _, shard := range []int{0, 512} {
				label := fmt.Sprintf("%s/%s/shard=%d", prof.Name, c.name, shard)
				got := d.Clone(WithShardBytes(shard)).DisassembleSection(bin.Code, bin.Base, entry, nil)
				if shard > 0 && len(bin.Code) > shard && !got.Graph.Lazy() {
					t.Fatalf("%s: sharded run should use the windowed graph", label)
				}
				requireMatchesSinglePhase(t, label, d, bin.Code, bin.Base, entry, got)
			}
		}
	}
}

// TestHintsForFlattensWithoutPrioritization: HintsFor promises the stream
// exactly as the corrector consumes it, so under WithoutPrioritization
// every hint carries the flat priority and zero score the pipeline
// commits it with.
func TestHintsForFlattensWithoutPrioritization(t *testing.T) {
	bin := shardTestBins(t)[0]
	d := New(DefaultModel(), WithoutPrioritization())
	g := superset.Build(bin.Code, bin.Base)
	hints := d.HintsFor(g, int(bin.Entry-bin.Base))
	if len(hints) == 0 {
		t.Fatal("precondition: no hints collected")
	}
	for i, h := range hints {
		if h.Prio != analysis.PrioStat || h.Score != 0 {
			t.Fatalf("hint %d (%s at +%#x): prio %d score %v, want prio %d score 0",
				i, h.Src, h.Off, h.Prio, h.Score, analysis.PrioStat)
		}
	}
}
