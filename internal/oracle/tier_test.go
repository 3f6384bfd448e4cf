package oracle

import (
	"reflect"
	"testing"

	"probedis/internal/analysis"
	"probedis/internal/cfg"
	"probedis/internal/core"
	"probedis/internal/correct"
	"probedis/internal/dis"
	"probedis/internal/eval"
	"probedis/internal/stats"
	"probedis/internal/synth"
)

// tierDetail runs the default (tiered) pipeline on a fixed binary and
// returns everything CheckTier needs.
func tierDetail(t *testing.T) (d *core.Disassembler, entry int, code []byte, det *core.Detail) {
	t.Helper()
	bin, err := synth.Generate(synth.Config{Seed: 42, Profile: synth.ProfileO2, NumFuncs: 6})
	if err != nil {
		t.Fatal(err)
	}
	d = testDis()
	entry = int(bin.Entry - bin.Base)
	det, _ = d.DisassembleSectionTraceContext(nil, bin.Code, bin.Base, entry, nil, nil)
	if det.Tier == nil {
		t.Fatal("precondition: default pipeline should record a tier partition")
	}
	if len(det.Tier.Windows) == 0 {
		t.Fatal("precondition: corpus binary should leave contested windows")
	}
	return d, entry, bin.Code, det
}

// TestCheckTierClean: an untampered tiered run passes the tier invariant.
func TestCheckTierClean(t *testing.T) {
	d, entry, _, det := tierDetail(t)
	rep := &Report{}
	CheckTier(rep, "t", d, entry, det)
	if !rep.OK() {
		t.Fatalf("clean tiered run reported violations: %v", rep.Violations)
	}
}

// TestDetectsSettledRegionContainingContestedOffset deliberately corrupts
// the recorded partition so a settled region swallows the first contested
// byte — exactly the corruption that would make the pipeline skip
// statistical evidence the single-phase run consults. CheckTier must
// flag it.
func TestDetectsSettledRegionContainingContestedOffset(t *testing.T) {
	d, entry, _, det := tierDetail(t)
	det.Tier.Windows[0][0]++ // first contested byte now claimed settled
	det.Tier.SettledBytes++
	det.Tier.ContestedBytes--
	if det.Tier.Windows[0][0] >= det.Tier.Windows[0][1] {
		det.Tier.Windows = det.Tier.Windows[1:]
	}
	rep := &Report{}
	CheckTier(rep, "t", d, entry, det)
	if !hasViolation(rep, InvTier) {
		t.Fatalf("corrupted tier partition not flagged; report: %v", rep.Violations)
	}
}

// TestDetectsTierByteCountMismatch: inconsistent partition bookkeeping
// (counters not matching the windows) must be flagged even before the
// expensive recomputation.
func TestDetectsTierByteCountMismatch(t *testing.T) {
	d, entry, _, det := tierDetail(t)
	det.Tier.SettledBytes++ // settled+contested no longer == total
	rep := &Report{}
	CheckTier(rep, "t", d, entry, det)
	if !hasViolation(rep, InvTier) {
		t.Fatalf("inconsistent tier byte counts not flagged; report: %v", rep.Violations)
	}
}

// singlePhaseResult is the single-phase reference for one section: one
// correct.Run over the full HintsFor stream with whole-section scores,
// then the pipeline's emit and CFG tail (function seeds from the entry
// and the call-target, prologue and entry code hints).
func singlePhaseResult(d *core.Disassembler, model *stats.Model, b *synth.Binary, det *core.Detail) (*dis.Result, *correct.Outcome) {
	g := det.Graph
	entry := int(b.Entry - b.Base)
	hints := d.HintsFor(g, entry)
	out := correct.Run(g, analysis.Viability(g), hints, correct.Options{Scores: model.ScoreAll(g, 8)})
	res := dis.NewResult(b.Base, len(b.Code))
	for i, s := range out.State {
		res.IsCode[i] = s == correct.Code
	}
	copy(res.InstStart, out.InstStart)
	seeds := []int{entry}
	for _, h := range hints {
		if h.Kind == analysis.HintCode &&
			(h.Src == "calltarget" || h.Src == "prologue" || h.Src == "entry") {
			seeds = append(seeds, h.Off)
		}
	}
	res.FuncStarts = cfg.Build(g, out.InstStart, seeds).FuncStarts()
	return res, out
}

// TestTieredMatchesSinglePhase is the equivalence oracle for the tiered
// correction pass: over the whole default synthetic corpus, the pipeline
// (statistics restricted to contested windows) must reach exactly the
// correction state, classification, instruction starts and function
// starts of the single-phase reference. This is the metamorphic guarantee
// the 2x throughput win rests on.
func TestTieredMatchesSinglePhase(t *testing.T) {
	spec := eval.DefaultCorpus()
	spec.PerProfile = 2
	spec.Funcs = 40
	corpus, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	model := core.DefaultModel()
	d := core.New(model)
	for ci, b := range corpus {
		entry := int(b.Entry - b.Base)
		det, _ := d.DisassembleSectionTraceContext(nil, b.Code, b.Base, entry, nil, nil)
		if det.Tier == nil {
			t.Errorf("corpus binary %d: tiered run recorded no partition", ci)
		}
		want, single := singlePhaseResult(d, model, b, det)
		if !reflect.DeepEqual(det.Outcome.State, single.State) {
			t.Errorf("binary %d: correction state diverges between tiered and single-phase", ci)
		}
		got := det.Result
		if !reflect.DeepEqual(got.IsCode, want.IsCode) {
			t.Errorf("binary %d: IsCode diverges between tiered and single-phase", ci)
		}
		if !reflect.DeepEqual(got.InstStart, want.InstStart) {
			t.Errorf("binary %d: InstStart diverges between tiered and single-phase", ci)
		}
		if !reflect.DeepEqual(got.FuncStarts, want.FuncStarts) {
			t.Errorf("binary %d: FuncStarts diverge between tiered and single-phase", ci)
		}
	}
}
