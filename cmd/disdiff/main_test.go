package main

import (
	"reflect"
	"testing"

	"probedis/internal/core"
	"probedis/internal/elfx"
	"probedis/internal/synth"
)

// TestProbedisColumnIsTheELFPipeline: on a text section split in two at
// a function boundary, calls from the low half land in the high half,
// so disdiff's probedis column must come from the ELF pipeline, which
// registers each section as the other's extern range, and not from
// per-section runs that treat those calls as escaping the section.
func TestProbedisColumnIsTheELFPipeline(t *testing.T) {
	bin, err := synth.Generate(synth.Config{Seed: 11, Profile: synth.ProfileComplex, NumFuncs: 40})
	if err != nil {
		t.Fatal(err)
	}
	cut := bin.Truth.FuncStarts[len(bin.Truth.FuncStarts)/2]
	var bld elfx.Builder
	bld.Entry = bin.Entry
	flags := uint64(elfx.SHFAlloc | elfx.SHFExecinstr)
	bld.AddSection(".text", bin.Base, flags, bin.Code[:cut])
	bld.AddSection(".text.hi", bin.Base+uint64(cut), flags, bin.Code[cut:])
	img, err := bld.Write()
	if err != nil {
		t.Fatal(err)
	}
	f, err := elfx.Parse(img)
	if err != nil {
		t.Fatal(err)
	}

	d := core.New(core.DefaultModel())
	want, err := d.DisassembleELF(img)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sectionResults(d, img, f)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || len(want) != 2 {
		t.Fatalf("got %d sections, DisassembleELF %d, want 2", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i].Result) {
			t.Errorf("section %s: disdiff's probedis result differs from DisassembleELF's", want[i].Name)
		}
	}
}
