package core

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"

	"probedis/internal/analysis"
	"probedis/internal/obs"
	"probedis/internal/stats"
	"probedis/internal/superset"
	"probedis/internal/synth"
)

func accuracy(b *synth.Binary, isCode, instStart []bool) (byteErr float64, fp, fn, tp int) {
	wrongBytes := 0
	for i, c := range b.Truth.Classes {
		var truthCode bool = c == synth.ClassCode
		if isCode[i] != truthCode {
			wrongBytes++
		}
	}
	for i := range instStart {
		switch {
		case instStart[i] && b.Truth.InstStart[i]:
			tp++
		case instStart[i] && !b.Truth.InstStart[i]:
			fp++
		case !instStart[i] && b.Truth.InstStart[i]:
			fn++
		}
	}
	return float64(wrongBytes) / float64(len(b.Code)), fp, fn, tp
}

func TestEndToEndAccuracy(t *testing.T) {
	d := New(DefaultModel())
	for _, p := range synth.DefaultProfiles {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			b, err := synth.Generate(synth.Config{Seed: 5, Profile: p, NumFuncs: 50})
			if err != nil {
				t.Fatal(err)
			}
			entry := int(b.Entry - b.Base)
			res := d.Disassemble(b.Code, b.Base, entry)
			byteErr, fp, fn, tp := accuracy(b, res.IsCode, res.InstStart)
			t.Logf("bytes=%d dataBytes=%d byteErr=%.5f instFP=%d instFN=%d instTP=%d",
				len(b.Code), b.Truth.DataBytes(), byteErr, fp, fn, tp)
			if byteErr > 0.02 {
				t.Errorf("byte error rate %.4f > 2%%", byteErr)
			}
			if tp == 0 {
				t.Fatal("no true positives")
			}
			if errFrac := float64(fp+fn) / float64(tp+fn); errFrac > 0.03 {
				t.Errorf("instruction error fraction %.4f > 3%%", errFrac)
			}
		})
	}
}

// TestSavedModelMatchesTrained: the default model, saved by WriteTo and
// loaded by stats.ReadModel, drives the pipeline exactly as the trained
// model does. On this binary a model file that rounds the scores to
// float32, whether both models' tables or their difference, commits and
// rejects a different number of hints.
func TestSavedModelMatchesTrained(t *testing.T) {
	var buf bytes.Buffer
	if _, err := DefaultModel().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := stats.ReadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	b, err := synth.Generate(synth.Config{Seed: 2, Profile: synth.ProfileVec, NumFuncs: 300})
	if err != nil {
		t.Fatal(err)
	}
	entry := int(b.Entry - b.Base)
	want, _ := New(DefaultModel()).DisassembleSectionTraceContext(nil, b.Code, b.Base, entry, nil, nil)
	got, _ := New(loaded).DisassembleSectionTraceContext(nil, b.Code, b.Base, entry, nil, nil)
	if !reflect.DeepEqual(got.Result, want.Result) || !reflect.DeepEqual(got.Outcome, want.Outcome) {
		t.Fatalf("loaded model: %d code bytes, %d committed, %d rejected; trained model: %d, %d, %d",
			got.Result.CodeBytes(), got.Outcome.Committed, got.Outcome.Rejected,
			want.Result.CodeBytes(), want.Outcome.Committed, want.Outcome.Rejected)
	}
}

// requireSameDetail compares two section runs across every output the
// pipeline produces — classification bytes, instruction starts, function
// starts, jump tables, hint count, outcome counters and tier partition.
func requireSameDetail(tb testing.TB, label string, want, got *Detail) {
	tb.Helper()
	wr, gr := want.Result, got.Result
	if len(wr.IsCode) != len(gr.IsCode) {
		tb.Fatalf("%s: result length %d vs %d", label, len(wr.IsCode), len(gr.IsCode))
	}
	for off := range wr.IsCode {
		if wr.IsCode[off] != gr.IsCode[off] {
			tb.Fatalf("%s: IsCode diverges at +%#x (want %v)", label, off, wr.IsCode[off])
		}
		if wr.InstStart[off] != gr.InstStart[off] {
			tb.Fatalf("%s: InstStart diverges at +%#x (want %v)", label, off, wr.InstStart[off])
		}
	}
	if !reflect.DeepEqual(wr.FuncStarts, gr.FuncStarts) {
		tb.Fatalf("%s: FuncStarts %v vs %v", label, wr.FuncStarts, gr.FuncStarts)
	}
	if !reflect.DeepEqual(want.Viable, got.Viable) {
		tb.Fatalf("%s: viability masks diverge", label)
	}
	if !reflect.DeepEqual(want.Tables, got.Tables) && !(len(want.Tables) == 0 && len(got.Tables) == 0) {
		tb.Fatalf("%s: jump tables diverge: %v vs %v", label, want.Tables, got.Tables)
	}
	if want.Hints != got.Hints {
		tb.Fatalf("%s: hint counts %d vs %d", label, want.Hints, got.Hints)
	}
	wo, go_ := want.Outcome, got.Outcome
	if wo.Committed != go_.Committed || wo.Rejected != go_.Rejected || wo.Retracted != go_.Retracted {
		tb.Fatalf("%s: outcome counters (%d,%d,%d) vs (%d,%d,%d)", label,
			wo.Committed, wo.Rejected, wo.Retracted, go_.Committed, go_.Rejected, go_.Retracted)
	}
	if !reflect.DeepEqual(want.Tier, got.Tier) {
		tb.Fatalf("%s: tier partitions diverge", label)
	}
}

// testBins returns four multi-KiB sections: one each of the O2,
// adversarial, overlap and obfuscation profiles.
func testBins(tb testing.TB) []*synth.Binary {
	tb.Helper()
	var bins []*synth.Binary
	for _, cfg := range []synth.Config{
		{Seed: 61, Profile: synth.ProfileO2, NumFuncs: 16},
		{Seed: 62, Profile: synth.ProfileAdversarial, NumFuncs: 16},
		{Seed: 63, Profile: synth.ProfileAdvOverlap, NumFuncs: 12},
		{Seed: 64, Profile: synth.ProfileAdvObf, NumFuncs: 12},
	} {
		bin, err := synth.Generate(cfg)
		if err != nil {
			tb.Fatal(err)
		}
		bins = append(bins, bin)
	}
	return bins
}

// TestHintStreamCanonicalOrder pins the merge rule at its strongest: the
// collector's stream equals the whole-section analyses called in
// canonical order, element for element (not just as a sorted multiset),
// at one worker and at four, so the corrector consumes the same sequence
// whatever order the tasks finished in.
func TestHintStreamCanonicalOrder(t *testing.T) {
	d := New(DefaultModel())
	for bi, bin := range testBins(t) {
		g := superset.Build(bin.Code, bin.Base)
		viable := analysis.Viability(g)
		entry := int(bin.Entry - bin.Base)
		wantTables := analysis.FindJumpTables(g, viable)
		want := slices.Concat(
			analysis.EntryHint(g, entry),
			analysis.JumpTableHints(wantTables),
			analysis.CallTargetHints(g, viable),
			analysis.PrologueHints(g, viable),
			analysis.DataPatternHints(g),
			analysis.LiteralPoolHints(g, viable),
		)
		for _, workers := range []int{1, 4} {
			got, gotTables := d.collectHints(nil, g, viable, entry, nil, newWorkPool(workers))
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("bin %d workers %d: hint stream diverges (%d vs %d hints)", bi, workers, len(want), len(got))
			}
			if !reflect.DeepEqual(wantTables, gotTables) {
				t.Fatalf("bin %d workers %d: tables diverge", bi, workers)
			}
		}
	}
}

// TestWithShardBytesIsInert: the deprecated shard option changes nothing.
// On a multi-KiB section a 1 KiB shard size gives the default run's
// Detail, and the hints span has exactly the six whole-section analysis
// children, with no per-shard tasks and no shards counter.
func TestWithShardBytesIsInert(t *testing.T) {
	bin := testBins(t)[1]
	if len(bin.Code) < 4<<10 {
		t.Fatalf("precondition: section of %d bytes, want several KiB", len(bin.Code))
	}
	entry := int(bin.Entry - bin.Base)
	want, _ := New(DefaultModel(), WithWorkers(1)).DisassembleSectionTraceContext(nil, bin.Code, bin.Base, entry, nil, nil)
	sp := obs.NewTrace("section")
	got, _ := New(DefaultModel(), WithWorkers(1), WithShardBytes(1024)).DisassembleSectionTraceContext(nil, bin.Code, bin.Base, entry, nil, sp)
	sp.End()
	requireSameDetail(t, "WithShardBytes(1024)", want, got)
	if n := sp.Counter("shards"); n != 0 {
		t.Errorf("section span counts %d shards", n)
	}
	var hints *obs.Span
	for _, c := range sp.Children() {
		if c.Name == "hints" {
			hints = c
		}
	}
	if hints == nil {
		t.Fatalf("no hints span among %v", names(sp.Children()))
	}
	wantAn := []string{"entry", "datapattern", "jumptable", "calltarget", "prologue", "literalpool"}
	if an := names(hints.Children()); !reflect.DeepEqual(an, wantAn) {
		t.Errorf("hints span children = %v, want %v", an, wantAn)
	}
}

// TestFingerprintNamesModelAndOptions: the store fingerprint changes with
// the model and with every option that changes output, and not with the
// worker count, which never does.
func TestFingerprintNamesModelAndOptions(t *testing.T) {
	base := New(DefaultModel())
	fp := base.Fingerprint()
	if !strings.HasPrefix(fp, PipelineFingerprint+"/") {
		t.Fatalf("fingerprint %q does not start with the pipeline generation", fp)
	}
	if got := base.Clone(WithWorkers(3)).Fingerprint(); got != fp {
		t.Errorf("workers changed the fingerprint: %q vs %q", got, fp)
	}
	seen := map[string]string{fp: "default"}
	for name, d := range map[string]*Disassembler{
		"other model": New(TrainModel(2_000_000, 1, 20)),
		"nostats":     base.Clone(WithoutStats()),
		"nobehav":     base.Clone(WithoutBehavior()),
		"nojt":        base.Clone(WithoutJumpTables()),
		"noprio":      base.Clone(WithoutPrioritization()),
		"threshold":   base.Clone(WithThreshold(0.5)),
	} {
		got := d.Fingerprint()
		if prev, ok := seen[got]; ok {
			t.Errorf("%s shares fingerprint %q with %s", name, got, prev)
		}
		seen[got] = name
	}
}
