package oracle

import (
	"testing"

	"probedis/internal/elfx"
	"probedis/internal/eval"
	"probedis/internal/superset"
	"probedis/internal/synth"
)

// TestMetamorphicSuite: the full transform catalogue must hold on healthy
// pipelines across profiles.
func TestMetamorphicSuite(t *testing.T) {
	d := testDis()
	CheckMetamorphic(t, d, synth.Config{Seed: 107, Profile: synth.ProfileO2, NumFuncs: 25})
	CheckMetamorphic(t, d, synth.Config{Seed: 211, Profile: synth.ProfileComplex, NumFuncs: 25})
}

// TestColdNobitsCatchesPhantomExtern re-introduces the PR 1 bug — extern
// ranges derived from a NOBITS section's header Size instead of its actual
// bytes — by replaying the section with the phantom range the buggy code
// would have registered. The cold-nobits transform's exact-equality
// contract must catch the difference.
func TestColdNobitsCatchesPhantomExtern(t *testing.T) {
	// The adversarial profile's misleading padding makes classification
	// sensitive to which escaping branches count as viable, so the phantom
	// range produces visible drift.
	bin, err := synth.Generate(synth.Config{Seed: 7, Profile: synth.ProfileAdversarial, NumFuncs: 25})
	if err != nil {
		t.Fatal(err)
	}
	d := testDis()
	entry := int(bin.Entry - bin.Base)
	clean, _ := d.DisassembleSectionTraceContext(nil, bin.Code, bin.Base, entry, nil, nil)
	m0 := eval.ScoreTruth(bin.Truth, clean.Result)

	// What the pre-fix code computed for the cold-nobits variant: the
	// phantom section's [Addr, Addr+Size) even though no bytes back it.
	phantom := []superset.Range{{
		Start: bin.Base + 0x200000,
		End:   bin.Base + 0x200000 + coldNobitsSize,
	}}
	buggy, _ := d.DisassembleSectionTraceContext(nil, bin.Code, bin.Base, entry, phantom, nil)
	mBug := eval.ScoreTruth(bin.Truth, buggy.Result)

	if mBug == m0 {
		t.Fatal("phantom NOBITS extern range did not change the metrics; the cold-nobits transform would not catch the Size-vs-len bug")
	}
	t.Logf("phantom extern drift: baseline FP/FN %d/%d, buggy %d/%d",
		m0.ByteFP, m0.ByteFN, mBug.ByteFP, mBug.ByteFN)
}

// TestSplitCatchesMissingBoundaryEscape re-introduces the PR 1 boundary
// bug — an adjacent text section not registered as a legitimate branch
// target, so cross-boundary fallthrough and branches poison viability —
// and requires the split transform to see the difference.
func TestSplitCatchesMissingBoundaryEscape(t *testing.T) {
	bin, err := synth.Generate(synth.Config{Seed: 107, Profile: synth.ProfileO2, NumFuncs: 25})
	if err != nil {
		t.Fatal(err)
	}
	cut := splitPoint(bin)
	if cut == 0 {
		t.Fatal("no split point")
	}
	d := testDis()
	lo := bin.Code[:cut]
	entry := int(bin.Entry - bin.Base)
	if entry >= cut {
		entry = -1
	}
	hi := superset.Range{Start: bin.Base + uint64(cut), End: bin.Base + uint64(len(bin.Code))}
	good, _ := d.DisassembleSectionTraceContext(nil, lo, bin.Base, entry, []superset.Range{hi}, nil)
	bad, _ := d.DisassembleSectionTraceContext(nil, lo, bin.Base, entry, nil, nil)

	diff := 0
	for i := range lo {
		if good.Result.IsCode[i] != bad.Result.IsCode[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("dropping the adjacent-section extern range changed nothing; the split transform would not catch the boundary-escape bug")
	}
	t.Logf("boundary-escape bug flips %d of %d bytes", diff, len(lo))
}

// TestRebaseCatchesDrift corrupts the rebased image's code bytes and
// requires the rebase transform's exact-equality contract to flag the
// resulting classification drift — the generic "any drift is visible"
// property of the exact transforms.
func TestRebaseCatchesDrift(t *testing.T) {
	cfg := synth.Config{Seed: 107, Profile: synth.ProfileO2, NumFuncs: 25}
	d := testDis()
	bin, vs, err := Variants(cfg)
	if err != nil {
		t.Fatal(err)
	}
	img, err := bin.ELF()
	if err != nil {
		t.Fatal(err)
	}
	m0, err := ScoreImage(d, img, []string{".text"}, bin.Truth)
	if err != nil {
		t.Fatal(err)
	}
	var reb *Variant
	for i := range vs {
		if vs[i].Name == "rebase" {
			reb = &vs[i]
		}
	}
	if reb == nil {
		t.Fatal("rebase variant missing")
	}
	// Sanity: untampered, the contract holds.
	rep := &Report{}
	compareVariant(rep, d, reb, m0)
	if !rep.OK() {
		t.Fatalf("clean rebase flagged: %v", rep.Violations)
	}
	// Zero out a run of true code bytes in the image (elfx.Parse returns
	// sections aliasing the image buffer).
	f, err := elfx.Parse(reb.Img)
	if err != nil {
		t.Fatal(err)
	}
	text := f.Section(".text")
	run := findCodeRun(reb.Truth, 32)
	for i := 0; i < 32; i++ {
		text.Data[run+i] = 0
	}
	rep = &Report{}
	compareVariant(rep, d, reb, m0)
	if !hasViolation(rep, InvMetamorphic) {
		t.Fatal("corrupted rebase image not flagged by the exact-equality contract")
	}
}

// findCodeRun returns the start of an n-byte all-code ground-truth run.
func findCodeRun(truth *synth.Truth, n int) int {
	run := 0
	for i, c := range truth.Classes {
		if c == synth.ClassCode {
			run++
			if run == n {
				return i - n + 1
			}
		} else {
			run = 0
		}
	}
	return 0
}
