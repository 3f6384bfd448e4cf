package rewrite

import (
	"encoding/binary"
	"testing"

	"probedis/internal/core"
	"probedis/internal/emu"
	"probedis/internal/synth"
	"probedis/internal/x86"
)

// TestRewriteIdentity: rewriting without probes at the same base must
// reproduce behaviour (layout can still shift if rel8 branches widen).
func TestRewriteIdentity(t *testing.T) {
	b, err := synth.Generate(synth.Config{Seed: 41, Profile: synth.ProfileComplex, NumFuncs: 12})
	if err != nil {
		t.Fatal(err)
	}
	d := core.New(core.DefaultModel())
	det, _ := d.DisassembleSectionTraceContext(nil, b.Code, b.Base, int(b.Entry-b.Base), nil, nil)
	out, err := Rewrite(det, Options{Entry: b.Entry})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Code) < len(b.Code) {
		t.Fatalf("rewritten image shrank: %d < %d", len(out.Code), len(b.Code))
	}
	origOut := emu.New(b.Code, b.Base).Run(b.Entry, 100000)
	newOut := emu.New(out.Code, out.Base).Run(out.Entry, 100000)
	if origOut.Stop != newOut.Stop || origOut.Trap != newOut.Trap {
		t.Fatalf("behaviour diverged: orig=%v(%s) new=%v(%s)",
			origOut.Stop, origOut.Trap, newOut.Stop, newOut.Trap)
	}
}

// blockCounts executes code and tallies executions per recovered block
// start (layout-independent observable).
func blockCounts(code []byte, base, entry uint64, starts map[uint64]int, fuel int) (map[int]uint64, emu.Outcome) {
	counts := map[int]uint64{}
	m := emu.New(code, base)
	m.OnStep = func(pc uint64) {
		if i, ok := starts[pc]; ok {
			counts[i]++
		}
	}
	out := m.Run(entry, fuel)
	return counts, out
}

// TestProbeCountsMatchExecution is the end-to-end validation of the whole
// repository: generate a binary, disassemble it without metadata, rewrite
// it with basic-block counters at a different base, execute BOTH images in
// the emulator, and require (a) identical behaviour and (b) probe counters
// exactly equal to the original per-block execution counts.
func TestProbeCountsMatchExecution(t *testing.T) {
	d := core.New(core.DefaultModel())
	validated := 0
	for seed := int64(1); seed <= 6; seed++ {
		for _, p := range []synth.Profile{synth.ProfileO2, synth.ProfileComplex} {
			b, err := synth.Generate(synth.Config{Seed: seed, Profile: p, NumFuncs: 8})
			if err != nil {
				t.Fatal(err)
			}
			det, _ := d.DisassembleSectionTraceContext(nil, b.Code, b.Base, int(b.Entry-b.Base), nil, nil)
			out, err := Rewrite(det, Options{
				NewBase: 0x600000,
				Probe:   true,
				Entry:   b.Entry,
			})
			if err != nil {
				t.Fatalf("%s: %v", b.Name, err)
			}
			if out.Probes == 0 {
				t.Fatalf("%s: no probes inserted", b.Name)
			}

			// Original run: tally executions of each recovered block start.
			blockIdx := map[uint64]int{}
			for i, blk := range det.CFG.Blocks {
				blockIdx[b.Base+uint64(blk.Start)] = i
			}
			const fuel = 150000
			origCounts, origOut := blockCounts(b.Code, b.Base, b.Entry, blockIdx, fuel)

			// Rewritten run with mapped counters.
			counters := make([]byte, out.CounterLen)
			m := emu.New(out.Code, out.Base)
			m.Map(emu.Region{Base: out.CounterBase, Data: counters})
			newOut := m.Run(out.Entry, fuel+out.Probes*1000)

			if origOut.Stop == emu.StopFuel || newOut.Stop == emu.StopFuel {
				continue // nondeterministic cutoff: not comparable
			}
			if origOut.Stop != newOut.Stop || origOut.Trap != newOut.Trap {
				t.Errorf("%s: behaviour diverged: orig=%v(%q) new=%v(%q)",
					b.Name, origOut.Stop, origOut.Trap, newOut.Stop, newOut.Trap)
				continue
			}
			if origOut.Stop == emu.StopTrap {
				validated++
				continue // counts up to a trap are cut mid-block; kind match is enough
			}

			// Probe i corresponds to CFG.Blocks[i] (the rewriter allocates
			// counters in item order, which is address order — the order
			// of Blocks).
			mismatch := 0
			for i := range det.CFG.Blocks {
				var got uint64
				if 4*i+4 <= len(counters) {
					got = uint64(binary.LittleEndian.Uint32(counters[4*i:]))
				}
				want := origCounts[i]
				if got != want {
					mismatch++
					if mismatch < 4 {
						t.Errorf("%s: block %d (old +%#x): probe=%d, executed=%d",
							b.Name, i, det.CFG.Blocks[i].Start, got, want)
					}
				}
			}
			if mismatch == 0 {
				validated++
			}
		}
	}
	if validated == 0 {
		t.Fatal("no run completed deterministically; validation vacuous")
	}
	t.Logf("validated %d binaries end-to-end", validated)
}

// TestLoopFamilyExpansion: loop/loope/loopne/jrcxz have no rel32 form and
// expand to flag-preserving sequences; the rewritten program must compute
// the same result under probes and relocation.
func TestLoopFamilyExpansion(t *testing.T) {
	// sum 1..5 via LOOP:
	//   xor eax,eax; mov ecx,5; L: add rax,rcx; loop L; ret
	code := []byte{
		0x31, 0xc0, // xor eax, eax
		0xb9, 0x05, 0x00, 0x00, 0x00, // mov ecx, 5
		0x48, 0x01, 0xc8, // add rax, rcx
		0xe2, 0xfb, // loop -5
		0xc3, // ret
	}
	d := core.New(core.DefaultModel())
	det, _ := d.DisassembleSectionTraceContext(nil, code, 0x1000, 0, nil, nil)
	if !det.Result.InstStart[0] || !det.Result.InstStart[10] {
		t.Fatalf("loop program misclassified: %v", det.Result.InstStart)
	}
	orig := emu.New(code, 0x1000).Run(0x1000, 1000)
	if orig.Stop != emu.StopRet || orig.Regs[0] != 15 {
		t.Fatalf("original run: %+v", orig)
	}
	out, err := Rewrite(det, Options{NewBase: 0x9000, Probe: true})
	if err != nil {
		t.Fatal(err)
	}
	counters := make([]byte, out.CounterLen)
	m := emu.New(out.Code, out.Base)
	m.Map(emu.Region{Base: out.CounterBase, Data: counters})
	res := m.Run(out.Entry, 1000)
	if res.Stop != emu.StopRet || res.Regs[0] != 15 {
		t.Fatalf("rewritten loop run: %+v", res)
	}

	// jrcxz variant: rcx=0 branches over the trap.
	code2 := []byte{
		0x31, 0xc9, // xor ecx, ecx
		0xe3, 0x02, // jrcxz +2 -> skip ud2
		0x0f, 0x0b, // ud2
		0xb8, 0x2a, 0x00, 0x00, 0x00, // mov eax, 42
		0xc3, // ret
	}
	det2, _ := d.DisassembleSectionTraceContext(nil, code2, 0x1000, 0, nil, nil)
	out2, err := Rewrite(det2, Options{NewBase: 0x9000, Probe: true})
	if err != nil {
		t.Fatal(err)
	}
	counters2 := make([]byte, out2.CounterLen)
	m2 := emu.New(out2.Code, out2.Base)
	m2.Map(emu.Region{Base: out2.CounterBase, Data: counters2})
	res2 := m2.Run(out2.Entry, 100)
	if res2.Stop != emu.StopRet || res2.Regs[0] != 42 {
		t.Fatalf("rewritten jrcxz run: %+v", res2)
	}
}

// TestLoopEExpansion checks the ZF-conditional loop variants.
func TestLoopEExpansion(t *testing.T) {
	// rcx=3; L: cmp rax,0 (ZF=1); loope L  -> loops until rcx exhausts.
	code := []byte{
		0x31, 0xc0, // xor eax, eax
		0xb9, 0x03, 0x00, 0x00, 0x00, // mov ecx, 3
		0x48, 0x83, 0xf8, 0x00, // cmp rax, 0
		0xe1, 0xfa, // loope -6 (back to the cmp)
		0x48, 0x89, 0xc8, // mov rax, rcx
		0xc3, // ret
	}
	d := core.New(core.DefaultModel())
	orig := emu.New(code, 0x1000).Run(0x1000, 1000)
	if orig.Stop != emu.StopRet || orig.Regs[0] != 0 {
		t.Fatalf("original loope run: %+v", orig)
	}
	det, _ := d.DisassembleSectionTraceContext(nil, code, 0x1000, 0, nil, nil)
	out, err := Rewrite(det, Options{NewBase: 0x9000})
	if err != nil {
		t.Fatal(err)
	}
	res := emu.New(out.Code, out.Base).Run(out.Entry, 1000)
	if res.Stop != orig.Stop || res.Regs[0] != orig.Regs[0] || res.Regs[1] != orig.Regs[1] {
		t.Fatalf("rewritten loope diverged: %+v vs %+v", res, orig)
	}
}

// TestBranchWidening: a dense chain of rel8 branches must widen and still
// hit the right targets.
func TestBranchWidening(t *testing.T) {
	// Hand-assembled: cmp; je +1 (skip the ud2); mov eax, 7; ret; ud2
	code := []byte{
		0x48, 0x83, 0xf8, 0x00, // cmp rax, 0
		0x74, 0x02, // je +2 -> mov
		0x0f, 0x0b, // ud2
		0xb8, 0x07, 0x00, 0x00, 0x00, // mov eax, 7
		0xc3, // ret
	}
	d := core.New(core.DefaultModel())
	det, _ := d.DisassembleSectionTraceContext(nil, code, 0x1000, 0, nil, nil)
	out, err := Rewrite(det, Options{NewBase: 0x2000, Probe: true})
	if err != nil {
		t.Fatal(err)
	}
	counters := make([]byte, out.CounterLen)
	m := emu.New(out.Code, out.Base)
	m.Map(emu.Region{Base: out.CounterBase, Data: counters})
	res := m.Run(out.Entry, 100)
	if res.Stop != emu.StopRet || res.Regs[0] != 7 {
		t.Fatalf("rewritten run: %+v", res)
	}
	// The widened je must decode as a rel32 jcc.
	inst, err := x86.Decode(out.Code[out.InstMap[4]:], out.Base+uint64(out.InstMap[4]))
	if err != nil || inst.Op != x86.JCC || inst.Len < 6 {
		t.Fatalf("widened branch decode: %v %v", inst.Op, err)
	}
}
