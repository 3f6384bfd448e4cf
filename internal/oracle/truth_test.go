package oracle

import (
	"testing"

	"probedis/internal/core"
	"probedis/internal/eval"
	"probedis/internal/synth"
)

// freshTruth generates one synthetic binary whose recorded truth must be
// clean under TruthStrict; each caller gets its own copy to mutate.
func freshTruth(t *testing.T) *synth.Binary {
	t.Helper()
	bin, err := synth.Generate(synth.Config{Seed: 42, Profile: synth.ProfileComplex, NumFuncs: 8})
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

func TestTruthClean(t *testing.T) {
	for _, p := range synth.AllProfiles() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			bin, err := synth.Generate(synth.Config{Seed: 19, Profile: p, NumFuncs: 20})
			if err != nil {
				t.Fatal(err)
			}
			rep := &Report{}
			CheckTruth(rep, p.Name, bin.Code, bin.Base, bin.Truth, TruthStrict)
			if !rep.OK() {
				t.Fatalf("clean truth reported violations: %v", rep.Violations)
			}
		})
	}
}

// TestAdversarialProfilesPassOracle: a full pipeline run over an ELF
// generated from each adversarial profile satisfies every structural
// invariant — the hostile constructs may cost accuracy but must never
// drive the pipeline into an inconsistent state.
func TestAdversarialProfilesPassOracle(t *testing.T) {
	d := core.New(core.DefaultModel())
	for _, p := range synth.AdversarialProfiles {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			bin, err := synth.Generate(synth.Config{Seed: 31, Profile: p, NumFuncs: 15})
			if err != nil {
				t.Fatal(err)
			}
			img, err := bin.ELF()
			if err != nil {
				t.Fatal(err)
			}
			rep, err := CheckELF(nil, d, img)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range rep.Violations {
				t.Errorf("%s", v)
			}
		})
	}
}

// The tests below each break the truth record deliberately and require the
// oracle to flag InvTruth, proving the check can actually fail.

func TestDetectsTruthStartInsideInstruction(t *testing.T) {
	bin := freshTruth(t)
	tr := bin.Truth
	// Claim an instruction start inside another truth instruction: find a
	// multi-byte instruction (next start more than one byte away) and mark
	// its second byte.
	for off := 0; off < len(bin.Code)-1; off++ {
		if tr.InstStart[off] && !tr.InstStart[off+1] && tr.Classes[off+1] == synth.ClassCode {
			tr.InstStart[off+1] = true
			break
		}
	}
	rep := &Report{}
	CheckTruth(rep, "t", bin.Code, bin.Base, tr, TruthStrict)
	if !hasViolation(rep, InvTruth) {
		t.Fatalf("mid-instruction truth start not detected: %v", rep.Violations)
	}
}

func TestDetectsTruthLengthMismatch(t *testing.T) {
	bin := freshTruth(t)
	tr := bin.Truth
	tr.Classes = tr.Classes[:len(tr.Classes)-1]
	rep := &Report{}
	CheckTruth(rep, "t", bin.Code, bin.Base, tr, TruthStrict)
	if !hasViolation(rep, InvTruth) {
		t.Fatalf("truth/section length mismatch not detected: %v", rep.Violations)
	}
}

func TestDetectsTruthStartOnDataByte(t *testing.T) {
	bin := freshTruth(t)
	tr := bin.Truth
	for i, c := range tr.Classes {
		if c != synth.ClassCode && !tr.InstStart[i] {
			tr.InstStart[i] = true
			break
		}
	}
	rep := &Report{}
	CheckTruth(rep, "t", bin.Code, bin.Base, tr, TruthStrict)
	if !hasViolation(rep, InvTruth) {
		t.Fatalf("instruction start on data byte not detected: %v", rep.Violations)
	}
}

func TestDetectsTruthFuncStartOffInstruction(t *testing.T) {
	bin := freshTruth(t)
	tr := bin.Truth
	for i := range bin.Code {
		if !tr.InstStart[i] {
			tr.FuncStarts = []int{i}
			break
		}
	}
	rep := &Report{}
	CheckTruth(rep, "t", bin.Code, bin.Base, tr, TruthStrict)
	if !hasViolation(rep, InvTruth) {
		t.Fatalf("func start off truth instruction not detected: %v", rep.Violations)
	}
}

// TestRealCorpusTruthConsistent: the committed real-binary corpus
// (testdata/real) passes the truth-consistency invariant against the
// stripped executables' actual bytes.
func TestRealCorpusTruthConsistent(t *testing.T) {
	corpus, err := eval.LoadReal("../../testdata/real")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range corpus {
		rep := &Report{}
		CheckTruth(rep, b.Name, b.Code, b.Base, b.Truth, TruthStructural)
		for _, v := range rep.Violations {
			t.Errorf("%s: %s", b.Name, v)
		}
	}
}

// TestStructuralModeToleratesDecoderGaps: truth from real binaries may
// describe instructions the project decoder cannot decode; structural
// mode accepts them while strict mode rejects.
func TestStructuralModeToleratesDecoderGaps(t *testing.T) {
	// One undecodable byte claimed as a code instruction.
	code := []byte{0x06, 0x90, 0xc3} // 0x06 is invalid in 64-bit mode
	tr := &synth.Truth{
		Classes:   []synth.ByteClass{synth.ClassCode, synth.ClassCode, synth.ClassCode},
		InstStart: []bool{true, true, true},
	}
	rep := &Report{}
	CheckTruth(rep, "t", code, 0x401000, tr, TruthStructural)
	if !rep.OK() {
		t.Fatalf("structural mode rejected decoder gap: %v", rep.Violations)
	}
	rep = &Report{}
	CheckTruth(rep, "t", code, 0x401000, tr, TruthStrict)
	if !hasViolation(rep, InvTruth) {
		t.Fatal("strict mode accepted an undecodable truth instruction")
	}
}
