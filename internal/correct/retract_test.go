package correct

import (
	"math/rand"
	"testing"

	"probedis/internal/analysis"
	"probedis/internal/superset"
	"probedis/internal/synth"
)

// retractReference is the retraction fixpoint as a plain descending scan:
// every offset, top down, in full passes until a pass retracts nothing.
// The worklist in retract must reach the same (unique) fixpoint. It
// returns the number of instructions retracted.
func retractReference(g *superset.Graph, out *Outcome) int {
	total := 0
	for {
		changed := 0
		for off := g.Len() - 1; off >= 0; off-- {
			if !out.InstStart[off] {
				continue
			}
			bad := false
			ft, tgt := g.ForcedSuccs(off)
			for _, s := range [2]int{ft, tgt} {
				if s == superset.Escape || s >= 0 && (out.State[s] == Data ||
					out.State[s] == Code && !out.InstStart[s]) {
					bad = true
					break
				}
			}
			if !bad {
				continue
			}
			a, b := g.Occupies(off)
			for i := a; i < b; i++ {
				out.State[i] = Data
				out.SrcOf[i] = 0
			}
			out.InstStart[off] = false
			changed++
		}
		total += changed
		if changed == 0 {
			return total
		}
	}
}

// checkRetractMatchesReference runs hints through Run with retraction
// and through Run without it followed by retractReference, and reports
// the first difference, in the covering instruction each side derives
// from its state and instruction starts too. Gap fill is off in both, so
// the comparison sees retraction's output alone. It returns the number
// retracted.
func checkRetractMatchesReference(t *testing.T, g *superset.Graph, viable []bool, hints []analysis.Hint) int {
	t.Helper()
	got := Run(g, viable, hints, Options{NoGapFill: true})
	want := Run(g, viable, hints, Options{NoRetract: true, NoGapFill: true})
	want.Retracted = retractReference(g, want)
	if got.Retracted != want.Retracted {
		t.Fatalf("retracted %d, reference %d", got.Retracted, want.Retracted)
	}
	gotOwn, wantOwn := owners(t, g, got), owners(t, g, want)
	for i := range want.State {
		if got.State[i] != want.State[i] || got.InstStart[i] != want.InstStart[i] ||
			gotOwn[i] != wantOwn[i] || got.SrcOf[i] != want.SrcOf[i] {
			t.Fatalf("offset %d: state %v start %v owner %d src %d, reference %v %v %d %d",
				i, got.State[i], got.InstStart[i], gotOwn[i], got.SrcOf[i],
				want.State[i], want.InstStart[i], wantOwn[i], want.SrcOf[i])
		}
	}
	return got.Retracted
}

// TestRetractMatchesReference: the seeded worklist reaches the reference
// scan's fixpoint on arbitrary hint lists and on every generator profile
// under its structural hints plus a dense stat-like code hint at every
// viable offset. The random lists also run under a mask that admits
// every valid decode, which lets instructions with an escaping successor
// commit: those must seed retraction too. A mask true everywhere, invalid
// decodes included, checks that canPlace itself refuses an instruction
// that would occupy no bytes. The retraction counts guard against a
// vacuous pass.
func TestRetractMatchesReference(t *testing.T) {
	g, viable := quickGraph(t)
	valid, all := make([]bool, g.Len()), make([]bool, g.Len())
	for i := range valid {
		valid[i], all[i] = g.Valid(i), true
	}
	rng := rand.New(rand.NewSource(19))
	for _, mask := range []struct {
		name   string
		viable []bool
	}{{"viability", viable}, {"valid", valid}, {"all", all}} {
		lists, retracting := 300, 0
		for i := 0; i < lists; i++ {
			if checkRetractMatchesReference(t, g, mask.viable, genHints(rng, g.Len())) > 0 {
				retracting++
			}
		}
		if retracting < lists/4 {
			t.Errorf("%s mask: only %d of %d random hint lists retract anything", mask.name, retracting, lists)
		}
	}

	total, blanketTotal := 0, 0
	for _, p := range synth.AllProfiles() {
		for seed := int64(1); seed <= 3; seed++ {
			b, err := synth.Generate(synth.Config{Seed: seed, Profile: p, NumFuncs: 24})
			if err != nil {
				t.Fatal(err)
			}
			g := superset.Build(b.Code, b.Base)
			viable := analysis.Viability(g)
			hints := profileHints(g, viable, int(b.Entry-b.Base), seed)
			total += checkRetractMatchesReference(t, g, viable, hints)
			// A weak one-byte data hint at every offset then turns every
			// byte no chain claimed into data, contradicting every chain
			// left pending on one, cascades included.
			for off := 0; off < g.Len(); off++ {
				hints = append(hints, analysis.Hint{Kind: analysis.HintData, Off: off, Len: 1,
					Prio: analysis.PrioWeak, Src: "weak"})
			}
			blanketTotal += checkRetractMatchesReference(t, g, viable, hints)
		}
	}
	if total < 50 || blanketTotal < 1000 {
		t.Errorf("profiles retracted %d (%d with weak data everywhere), want at least 50 (1000)", total, blanketTotal)
	}
}

// profileHints is the structural hint stream of a section plus a
// stat-priority code hint at every viable offset, scored at random so
// overlapping chains commit in a seed-dependent order.
func profileHints(g *superset.Graph, viable []bool, entry int, seed int64) []analysis.Hint {
	hints := analysis.EntryHint(g, entry)
	hints = append(hints, analysis.CallTargetHints(g, viable)...)
	hints = append(hints, analysis.PrologueHints(g, viable)...)
	hints = append(hints, analysis.DataPatternHints(g)...)
	hints = append(hints, analysis.JumpTableHints(analysis.FindJumpTables(g, viable))...)
	hints = append(hints, analysis.LiteralPoolHints(g, viable)...)
	rng := rand.New(rand.NewSource(seed))
	for off := range viable {
		if viable[off] {
			hints = append(hints, analysis.Hint{Kind: analysis.HintCode, Off: off,
				Prio: analysis.PrioStat, Score: rng.Float64() * 8, Src: "stat"})
		}
	}
	return hints
}

// FuzzRetractMatchesReference extends the differential to fuzzed bytes:
// the input is decoded as the section, and every four bytes of it also
// encode one hint, so a mutation moves both the graph and the hints.
// Run with `go test -fuzz=FuzzRetractMatchesReference ./internal/correct`.
func FuzzRetractMatchesReference(f *testing.F) {
	f.Add([]byte{0x90, 0x31, 0xc0, 0xc3})
	f.Add([]byte{0x74, 0x02, 0x90, 0x90, 0xeb, 0xfa, 0xc3, 0x00, 0x48, 0x89, 0xe5, 0xc3})
	for _, p := range []synth.Profile{synth.ProfileO2, synth.ProfileAdvOverlap} {
		b, err := synth.Generate(synth.Config{Seed: 5, Profile: p, NumFuncs: 2})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b.Code)
	}
	prios := []int{analysis.PrioProof, analysis.PrioStrong, analysis.PrioMedium,
		analysis.PrioStat, analysis.PrioWeak}
	f.Fuzz(func(t *testing.T, code []byte) {
		if len(code) == 0 || len(code) > 4<<10 {
			return
		}
		g := superset.Build(code, 0x401000)
		viable := analysis.Viability(g)
		var hints []analysis.Hint
		for i := 0; i+4 <= len(code); i += 4 {
			w := code[i : i+4]
			hints = append(hints, analysis.Hint{
				Kind:  analysis.Kind(w[0] & 1),
				Prio:  prios[int(w[0]>>1)%len(prios)],
				Off:   (int(w[1]) | int(w[2])<<8) % len(code),
				Len:   int(w[3]&15) + 1,
				Score: float64(w[3] >> 4),
				Src:   "fuzz",
			})
		}
		checkRetractMatchesReference(t, g, viable, hints)
	})
}
