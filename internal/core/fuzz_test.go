package core_test

import (
	"testing"

	"probedis/internal/core"
	"probedis/internal/elfx"
	"probedis/internal/oracle"
	"probedis/internal/synth"
)

// FuzzLoadELF feeds arbitrary bytes through the ELF loader and, for any
// image that parses, runs the full pipeline under the verification oracle:
// no panic on any input, and every structural invariant holds on every
// input that loads. Seeds live in testdata/fuzz/FuzzLoadELF.
func FuzzLoadELF(f *testing.F) {
	for _, cfg := range []synth.Config{
		{Seed: 1, Profile: synth.ProfileO0, NumFuncs: 2},
		{Seed: 2, Profile: synth.ProfileComplex, NumFuncs: 3},
		{Seed: 8, Profile: synth.ProfileAdvMidJump, NumFuncs: 2},
		{Seed: 8, Profile: synth.ProfileAdvFakeProl, NumFuncs: 2},
	} {
		bin, err := synth.Generate(cfg)
		if err != nil {
			f.Fatal(err)
		}
		img, err := bin.ELF()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(img)
	}
	// A two-section image exercising the multi-section merge paths.
	{
		var bld elfx.Builder
		bld.Entry = 0x401000
		bld.AddSection(".text", 0x401000, elfx.SHFAlloc|elfx.SHFExecinstr, []byte{0x55, 0x48, 0x89, 0xe5, 0x5d, 0xc3})
		bld.AddNobits(".bss", 0x402000, elfx.SHFAlloc|elfx.SHFWrite, 0x100)
		img, err := bld.Write()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(img)
	}
	f.Add([]byte{0x7f, 'E', 'L', 'F'}) // truncated header
	f.Add([]byte{})

	// No statistical model: keeps per-exec cost low without losing any
	// structural checking.
	d := core.New(nil)
	f.Fuzz(func(t *testing.T, img []byte) {
		// Synth images run ~15-20 KiB (page-aligned layout); cap just above
		// that to keep instrumented exec cost down.
		if len(img) > 32<<10 {
			t.Skip("oversized input")
		}
		rep, err := oracle.CheckELF(nil, d, img)
		if err != nil {
			// Malformed images must be rejected with an error, never a
			// panic; nothing further to check.
			t.Skip("rejected input")
		}
		for _, v := range rep.Violations {
			t.Errorf("oracle: %s", v)
		}
	})
}
