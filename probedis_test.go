package probedis_test

import (
	"testing"

	"probedis"
	"probedis/internal/synth"
)

// TestFacade exercises the public API end to end.
func TestFacade(t *testing.T) {
	bin, err := synth.Generate(synth.Config{Seed: 1, Profile: synth.ProfileComplex, NumFuncs: 10})
	if err != nil {
		t.Fatal(err)
	}
	d := probedis.New(probedis.DefaultModel())
	res := d.Disassemble(bin.Code, bin.Base, int(bin.Entry-bin.Base))
	if res.Len() != len(bin.Code) {
		t.Fatalf("result len = %d", res.Len())
	}
	if res.NumInsts() == 0 || res.CodeBytes() == 0 || len(res.FuncStarts) == 0 {
		t.Fatalf("empty result: %d insts, %d code bytes, %d funcs",
			res.NumInsts(), res.CodeBytes(), len(res.FuncStarts))
	}

	img, err := bin.ELF()
	if err != nil {
		t.Fatal(err)
	}
	secs, err := d.DisassembleELF(img)
	if err != nil {
		t.Fatal(err)
	}
	if len(secs) != 1 || secs[0].Result.NumInsts() != res.NumInsts() {
		t.Fatalf("ELF path mismatch: %+v", secs)
	}
}

// TestFacadeOptions smoke-tests the exported option set.
func TestFacadeOptions(t *testing.T) {
	bin, err := synth.Generate(synth.Config{Seed: 2, Profile: synth.ProfileO0, NumFuncs: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range [][]probedis.Option{
		{probedis.WithoutStats()},
		{probedis.WithoutBehavior()},
		{probedis.WithoutJumpTables()},
		{probedis.WithoutPrioritization()},
		{probedis.WithThreshold(1)},
	} {
		d := probedis.New(probedis.DefaultModel(), opts...)
		if res := d.Disassemble(bin.Code, bin.Base, 0); res.NumInsts() == 0 {
			t.Fatal("option variant recovered nothing")
		}
	}
}
