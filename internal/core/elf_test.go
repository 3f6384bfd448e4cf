package core

import (
	"os"
	"testing"

	"probedis/internal/elfx"
	"probedis/internal/synth"
	"probedis/internal/x86"
	"probedis/internal/x86/xasm"
)

func TestDisassembleELFSingleSection(t *testing.T) {
	b, err := synth.Generate(synth.Config{Seed: 97, Profile: synth.ProfileO2, NumFuncs: 20})
	if err != nil {
		t.Fatal(err)
	}
	img, err := b.ELF()
	if err != nil {
		t.Fatal(err)
	}
	d := New(DefaultModel())
	secs, err := d.DisassembleELF(img)
	if err != nil {
		t.Fatal(err)
	}
	if len(secs) != 1 || secs[0].Name != ".text" {
		t.Fatalf("sections = %+v", secs)
	}
	res := secs[0].Result
	// Must match the raw-bytes path exactly.
	direct := d.Disassemble(b.Code, b.Base, int(b.Entry-b.Base))
	for i := range res.IsCode {
		if res.IsCode[i] != direct.IsCode[i] {
			t.Fatalf("ELF path diverges from direct path at +%#x", i)
		}
	}
}

func TestDisassembleELFRejectsGarbage(t *testing.T) {
	d := New(DefaultModel())
	if _, err := d.DisassembleELF([]byte("not an elf")); err == nil {
		t.Fatal("expected parse error")
	}
}

// TestCrossSectionTailCall: a .plt-like second section receives a tail
// call from .text; the calling code must stay viable/code even though the
// branch leaves the section.
func TestCrossSectionTailCall(t *testing.T) {
	const textBase, pltBase = 0x401000, 0x403000

	// .plt stub: jmp through a register (would be a GOT load in reality).
	plt := xasm.New(pltBase)
	plt.Label("stub")
	plt.LeaLabel(x86.RAX, "stub") // self-referential, just to have bytes
	plt.JmpReg(x86.RAX)
	pltCode, err := plt.Bytes()
	if err != nil {
		t.Fatal(err)
	}

	// .text: a function whose last instruction tail-jumps to the stub.
	text := xasm.New(textBase)
	text.Label("entry")
	text.Push(x86.RBP)
	text.MovRegReg(true, x86.RBP, x86.RSP)
	text.CallLabel("leaf")
	text.Pop(x86.RBP)
	text.Ret()
	text.Label("leaf")
	text.AluImm(true, xasm.AluAdd, x86.RAX, 1)
	// Tail call into the other section: jmp rel32 with an out-of-section
	// target.
	text.Raw(0xe9)
	rel := int64(pltBase) - (int64(textBase) + int64(text.Len()) + 4)
	text.U32(uint32(int32(rel)))
	textCode, err := text.Bytes()
	if err != nil {
		t.Fatal(err)
	}

	var bld elfx.Builder
	bld.Entry = textBase
	bld.AddSection(".text", textBase, elfx.SHFAlloc|elfx.SHFExecinstr, textCode)
	bld.AddSection(".plt", pltBase, elfx.SHFAlloc|elfx.SHFExecinstr, pltCode)
	img, err := bld.Write()
	if err != nil {
		t.Fatal(err)
	}

	d := New(DefaultModel())
	secs, err := d.DisassembleELF(img)
	if err != nil {
		t.Fatal(err)
	}
	if len(secs) != 2 {
		t.Fatalf("sections = %d", len(secs))
	}
	res := secs[0].Result
	leafOff, _ := text.LabelAddr("leaf")
	// The leaf (including the cross-section jmp) must be code.
	for i := int(leafOff - textBase); i < len(textCode); i++ {
		if !res.IsCode[i] {
			t.Fatalf("tail-calling code at +%#x classified as data "+
				"(cross-section branch poisoned viability)", i)
		}
	}
	// And without the extern registration the same bytes are non-viable:
	// verify the mechanism actually did something.
	direct := d.Disassemble(textCode, textBase, 0)
	jmpOff := len(textCode) - 5
	if direct.InstStart[jmpOff] {
		t.Fatal("single-section path unexpectedly kept the out-of-section jmp")
	}
}

func TestOptionVariants(t *testing.T) {
	b, err := synth.Generate(synth.Config{Seed: 98, Profile: synth.ProfileComplex, NumFuncs: 15})
	if err != nil {
		t.Fatal(err)
	}
	entry := int(b.Entry - b.Base)
	for _, opts := range [][]Option{
		{WithoutStats()},
		{WithoutBehavior()},
		{WithoutJumpTables()},
		{WithoutPrioritization()},
		{WithThreshold(2)},
		{WithoutStats(), WithoutJumpTables()},
	} {
		d := New(DefaultModel(), opts...)
		res := d.Disassemble(b.Code, b.Base, entry)
		if res.Len() != len(b.Code) {
			t.Fatalf("option variant returned wrong size")
		}
		if res.NumInsts() == 0 {
			t.Fatalf("option variant recovered nothing")
		}
	}
	// nil model forces the no-stats path.
	d := New(nil)
	if res := d.Disassemble(b.Code, b.Base, entry); res.NumInsts() == 0 {
		t.Fatal("nil-model pipeline recovered nothing")
	}
}

// TestConcurrentUse: one Disassembler must be usable from many goroutines.
func TestConcurrentUse(t *testing.T) {
	d := New(DefaultModel())
	b, err := synth.Generate(synth.Config{Seed: 99, Profile: synth.ProfileO0, NumFuncs: 10})
	if err != nil {
		t.Fatal(err)
	}
	entry := int(b.Entry - b.Base)
	ref := d.Disassemble(b.Code, b.Base, entry)
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func() {
			res := d.Disassemble(b.Code, b.Base, entry)
			for i := range res.IsCode {
				if res.IsCode[i] != ref.IsCode[i] {
					done <- errAt(i)
					return
				}
			}
			done <- nil
		}()
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

type errAt int

func (e errAt) Error() string { return "concurrent result diverged" }

// TestRealBinarySmoke runs the pipeline on a real system binary when one
// is available: it must not panic, and .text — which on real binaries is
// overwhelmingly code — must classify as mostly code even though the
// statistical model was trained purely on synthetic corpora.
func TestRealBinarySmoke(t *testing.T) {
	img, err := os.ReadFile("/usr/bin/cat")
	if err != nil {
		t.Skip("no /usr/bin/cat on this system")
	}
	d := New(DefaultModel())
	secs, err := d.DisassembleELFTraceContext(nil, img, nil)
	if err != nil {
		t.Skipf("not a parseable ELF64: %v", err)
	}
	for _, s := range secs {
		if s.Name != ".text" {
			continue
		}
		res := s.Detail.Result
		frac := float64(res.CodeBytes()) / float64(res.Len())
		t.Logf(".text: %d bytes, %.1f%% code, %d insts, %d funcs",
			res.Len(), 100*frac, res.NumInsts(), len(res.FuncStarts))
		if frac < 0.90 {
			t.Errorf("real .text classified only %.1f%% code", 100*frac)
		}
		return
	}
	t.Skip("no .text section")
}
