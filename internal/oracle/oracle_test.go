package oracle

import (
	"strings"
	"testing"

	"probedis/internal/analysis"
	"probedis/internal/core"
	"probedis/internal/correct"
	"probedis/internal/synth"
)

func testDis() *core.Disassembler { return core.New(core.DefaultModel()) }

// freshDetail runs the pipeline on a small fixed binary; each caller gets
// its own Detail to mutate.
func freshDetail(t *testing.T) ([]byte, *core.Detail) {
	t.Helper()
	bin, err := synth.Generate(synth.Config{Seed: 42, Profile: synth.ProfileO2, NumFuncs: 6})
	if err != nil {
		t.Fatal(err)
	}
	det, _ := testDis().DisassembleSectionTraceContext(nil, bin.Code, bin.Base, int(bin.Entry-bin.Base), nil, nil)
	return bin.Code, det
}

func hasViolation(rep *Report, inv string) bool {
	for _, v := range rep.Violations {
		if v.Invariant == inv {
			return true
		}
	}
	return false
}

// TestPipelineClean: a healthy pipeline run must pass every invariant.
// This is the reusable entry point other packages call as oracle.Check.
func TestPipelineClean(t *testing.T) {
	for _, p := range []synth.Profile{synth.ProfileO0, synth.ProfileComplex} {
		bin, err := synth.Generate(synth.Config{Seed: 7, Profile: p, NumFuncs: 12})
		if err != nil {
			t.Fatal(err)
		}
		img, err := bin.ELF()
		if err != nil {
			t.Fatal(err)
		}
		Check(t, testDis(), img)
	}
}

// TestCheckSectionClean covers the bare-section entry point.
func TestCheckSectionClean(t *testing.T) {
	code, _ := freshDetail(t)
	if rep := CheckSection(testDis(), code, 0x401000, 0); !rep.OK() {
		t.Fatalf("clean section reported violations: %v", rep.Violations)
	}
}

// The tests below each break one invariant deliberately and require the
// oracle to flag exactly that invariant — proving every check can actually
// fail (acceptance criterion for this harness).

func TestDetectsUnclassifiedByte(t *testing.T) {
	code, det := freshDetail(t)
	det.Outcome.State[len(code)/2] = correct.Unknown
	rep := &Report{}
	CheckDetail(rep, "t", code, det)
	if !hasViolation(rep, InvPartition) {
		t.Fatalf("partition violation not detected: %v", rep.Violations)
	}
}

func TestDetectsResultOutcomeDisagreement(t *testing.T) {
	code, det := freshDetail(t)
	// Flip IsCode on a data byte without touching the outcome.
	for i := range code {
		if !det.Result.IsCode[i] {
			det.Result.IsCode[i] = true
			break
		}
	}
	rep := &Report{}
	CheckDetail(rep, "t", code, det)
	if !hasViolation(rep, InvPartition) && !hasViolation(rep, InvCodeOwned) {
		t.Fatalf("code-owned/partition violation not detected: %v", rep.Violations)
	}
}

// TestDetectsUncoveredCodeByte: a byte that is code in both the result and
// the outcome but lies in no committed instruction breaks ownership alone,
// which only the walk's coverage check can see.
func TestDetectsUncoveredCodeByte(t *testing.T) {
	code, det := freshDetail(t)
	mutated := false
	for i := range code {
		if !det.Result.IsCode[i] {
			det.Result.IsCode[i] = true
			det.Outcome.State[i] = correct.Code
			mutated = true
			break
		}
	}
	if !mutated {
		t.Fatal("setup: no data byte to mutate")
	}
	rep := &Report{}
	CheckDetail(rep, "t", code, det)
	if !hasViolation(rep, InvCodeOwned) || hasViolation(rep, InvPartition) {
		t.Fatalf("want a code-owned violation alone: %v", rep.Violations)
	}
}

func TestDetectsOverlappingInstructions(t *testing.T) {
	code, det := freshDetail(t)
	res := det.Result
	// Mark an instruction start inside a committed multi-byte instruction.
	for off := 0; off < len(code); off++ {
		if res.InstStart[off] && det.Graph.Valid(off) && det.Graph.Info[off].Len() >= 2 {
			res.InstStart[off+1] = true
			break
		}
	}
	rep := &Report{}
	CheckDetail(rep, "t", code, det)
	if !hasViolation(rep, InvInstIntegrity) {
		t.Fatalf("inst-integrity violation not detected: %v", rep.Violations)
	}
}

func TestDetectsInstructionSpanningIntoData(t *testing.T) {
	code, det := freshDetail(t)
	res := det.Result
	// Turn the tail byte of a committed instruction into data.
	for off := 0; off < len(code); off++ {
		if res.InstStart[off] && det.Graph.Valid(off) && det.Graph.Info[off].Len() >= 2 {
			tail := off + det.Graph.Info[off].Len() - 1
			res.IsCode[tail] = false
			det.Outcome.State[tail] = correct.Data
			break
		}
	}
	rep := &Report{}
	CheckDetail(rep, "t", code, det)
	if !hasViolation(rep, InvInstIntegrity) {
		t.Fatalf("inst-integrity violation not detected: %v", rep.Violations)
	}
}

func TestDetectsNonViableCommit(t *testing.T) {
	code, det := freshDetail(t)
	for off := 0; off < len(code); off++ {
		if det.Result.InstStart[off] {
			det.Viable[off] = false
			break
		}
	}
	rep := &Report{}
	CheckDetail(rep, "t", code, det)
	if !hasViolation(rep, InvViability) {
		t.Fatalf("viability violation not detected: %v", rep.Violations)
	}
}

func TestDetectsUnsortedFuncStarts(t *testing.T) {
	code, det := freshDetail(t)
	res := det.Result
	if len(res.FuncStarts) < 2 {
		t.Skip("need two functions")
	}
	res.FuncStarts[0], res.FuncStarts[1] = res.FuncStarts[1], res.FuncStarts[0]
	rep := &Report{}
	CheckDetail(rep, "t", code, det)
	if !hasViolation(rep, InvFuncStarts) {
		t.Fatalf("func-starts violation not detected: %v", rep.Violations)
	}
}

func TestDetectsFuncStartOffInstruction(t *testing.T) {
	code, det := freshDetail(t)
	res := det.Result
	// Point a function start at a non-instruction byte.
	for i := range code {
		if !res.InstStart[i] && len(res.FuncStarts) > 0 {
			res.FuncStarts[len(res.FuncStarts)-1] = i
			break
		}
	}
	rep := &Report{}
	CheckDetail(rep, "t", code, det)
	if !hasViolation(rep, InvFuncStarts) {
		t.Fatalf("func-starts violation not detected: %v", rep.Violations)
	}
}

func TestDetectsCFGEscape(t *testing.T) {
	code, det := freshDetail(t)
	// Aim a successor edge at a byte that is not a committed instruction.
	target := -1
	for i := range code {
		if !det.Result.InstStart[i] {
			target = i
			break
		}
	}
	mutated := false
	for i := range det.CFG.Blocks {
		if s := det.CFG.Blocks[i].Succs(); len(s) > 0 {
			s[0] = target
			mutated = true
			break
		}
	}
	if !mutated {
		t.Skip("no block with successors")
	}
	rep := &Report{}
	CheckDetail(rep, "t", code, det)
	if !hasViolation(rep, InvCFGDomain) {
		t.Fatalf("cfg-domain violation not detected: %v", rep.Violations)
	}
}

// TestDetectsUnsortedBlocks: BlockAt binary-searches the block array, so
// two swapped blocks must be reported.
func TestDetectsUnsortedBlocks(t *testing.T) {
	code, det := freshDetail(t)
	bs := det.CFG.Blocks
	if len(bs) < 2 {
		t.Skip("fewer than two blocks")
	}
	bs[0], bs[1] = bs[1], bs[0]
	rep := &Report{}
	CheckDetail(rep, "t", code, det)
	for _, v := range rep.Violations {
		if v.Invariant == InvCFGDomain && v.Off == bs[1].Start && strings.Contains(v.Msg, "not after") {
			return
		}
	}
	t.Fatalf("block %#x out of order not detected: %v", bs[1].Start, rep.Violations)
}

func TestDetectsBrokenHintOrder(t *testing.T) {
	hints := []analysis.Hint{
		{Kind: analysis.HintCode, Off: 0, Prio: analysis.PrioProof, Score: 9},
		{Kind: analysis.HintCode, Off: 4, Prio: analysis.PrioMedium, Score: 4},
	}
	rep := &Report{}
	CheckHintOrder(rep, "t", hints)
	if !rep.OK() {
		t.Fatalf("sorted hints flagged: %v", rep.Violations)
	}
	rep = &Report{}
	CheckHintOrder(rep, "t", []analysis.Hint{hints[1], hints[0]})
	if !hasViolation(rep, InvHintOrder) {
		t.Fatal("mis-sorted hints not detected")
	}
}

func TestDetectsNondeterministicHints(t *testing.T) {
	flip := 0
	rep := &Report{}
	CheckHintDeterminism(rep, "t", func() []analysis.Hint {
		flip++
		return []analysis.Hint{{Kind: analysis.HintCode, Off: flip, Prio: analysis.PrioStat}}
	})
	if !hasViolation(rep, InvHintOrder) {
		t.Fatal("nondeterministic hint collection not detected")
	}
}

func TestDetectsSerialParallelDivergence(t *testing.T) {
	code, det := freshDetail(t)
	code2, det2 := freshDetail(t)
	a := []core.SectionDetail{{Name: ".text", Addr: 0x401000, Data: code, Detail: det}}
	b := []core.SectionDetail{{Name: ".text", Addr: 0x401000, Data: code2, Detail: det2}}
	// Sanity: identical runs agree.
	rep := &Report{}
	CheckAgreement(rep, "elf", a, b)
	if !rep.OK() {
		t.Fatalf("identical runs flagged: %v", rep.Violations)
	}
	// Diverge one byte.
	i := len(code2) / 3
	det2.Result.IsCode[i] = !det2.Result.IsCode[i]
	rep = &Report{}
	CheckAgreement(rep, "elf", a, b)
	if !hasViolation(rep, InvDeterminism) {
		t.Fatal("serial/parallel divergence not detected")
	}
}
