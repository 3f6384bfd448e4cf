package probedis_test

import (
	"testing"

	"probedis/internal/superset"
	"probedis/internal/synth"
	"probedis/internal/x86"
)

// TestScanMatchesDecodeOnCorpus is the whole-pipeline differential gate
// for the superset scan kernel: over every generation profile —
// compiler-shaped and adversarial — the packed side table an eager
// superset.Build produces must be byte-identical to a fresh full decode
// at every offset. The fast path is an optimization of the reference
// decoder, never an approximation of it.
func TestScanMatchesDecodeOnCorpus(t *testing.T) {
	for _, p := range synth.AllProfiles() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			bin, err := synth.Generate(synth.Config{Seed: 17, Profile: p, NumFuncs: 10})
			if err != nil {
				t.Fatal(err)
			}
			g := superset.Build(bin.Code, bin.Base)
			var inst x86.Inst
			for off := range bin.Code {
				want := x86.Info{}
				if x86.DecodeInto(&inst, bin.Code[off:], bin.Base+uint64(off)) == nil {
					want = x86.PackLean(&inst)
				}
				if got := *g.At(off); got != want {
					t.Fatalf("profile %s offset %d (byte %#02x): superset %+v, reference %+v",
						p.Name, off, bin.Code[off], got, want)
				}
			}
		})
	}
}
