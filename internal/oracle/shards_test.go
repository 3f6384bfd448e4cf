package oracle

import (
	"strings"
	"testing"

	"probedis/internal/core"
	"probedis/internal/dis"
	"probedis/internal/synth"
)

func shardOracleBin(t *testing.T, seed int64, profile synth.Profile) *synth.Binary {
	t.Helper()
	bin, err := synth.Generate(synth.Config{Seed: seed, Profile: profile, NumFuncs: 14})
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

// TestCheckShardsClean: the sharding contract holds on every adversarial
// profile across shard sizes, including one odd size so seams land at
// unaligned offsets.
func TestCheckShardsClean(t *testing.T) {
	d := core.New(core.DefaultModel())
	for pi, profile := range []synth.Profile{
		synth.ProfileO2, synth.ProfileAdversarial, synth.ProfileAdvOverlap, synth.ProfileAdvObf,
	} {
		bin := shardOracleBin(t, 90+int64(pi), profile)
		entry := int(bin.Entry - bin.Base)
		for _, shard := range []int{311, 1024} {
			rep := CheckShards(d, bin.Code, bin.Base, entry, shard)
			for _, v := range rep.Violations {
				t.Errorf("profile %v shard %d: %s", profile, shard, v)
			}
		}
	}
}

// TestCheckShardsFiresOnSeamTiling deliberately manufactures the exact
// corruption a naive per-shard port would produce — a gap-fill tiling
// walk restarting at a shard seam, re-anchoring instruction starts at the
// boundary inside an instruction that legitimately spans it — and proves
// CheckShardAgreement reports it as a seam-local InvShards violation.
func TestCheckShardsFiresOnSeamTiling(t *testing.T) {
	d := core.New(core.DefaultModel())
	bin := shardOracleBin(t, 97, synth.ProfileAdversarial)
	entry := int(bin.Entry - bin.Base)
	want, _ := d.DisassembleSectionTraceContext(nil, bin.Code, bin.Base, entry, nil, nil)

	const shard = 311
	plan := core.ShardPlan(len(bin.Code), shard)
	if len(plan) < 2 {
		t.Fatalf("section too small to shard: %d bytes", len(bin.Code))
	}

	// Find a committed instruction whose body spans a seam: the byte at
	// the seam is code but not an instruction start. A seam-tiling bug
	// would restart the walk there and emit a phantom start.
	res := want.Result
	seamOff := -1
	for _, s := range plan[1:] {
		if res.IsCode[s[0]] && !res.InstStart[s[0]] {
			seamOff = s[0]
			break
		}
	}
	if seamOff < 0 {
		t.Fatal("no seam lands inside a committed instruction body; pick another seed")
	}

	corrupt := &core.Detail{
		Result: &dis.Result{
			Base:       res.Base,
			IsCode:     append([]bool(nil), res.IsCode...),
			InstStart:  append([]bool(nil), res.InstStart...),
			FuncStarts: append([]int(nil), res.FuncStarts...),
		},
		Graph:   want.Graph,
		Viable:  want.Viable,
		Tables:  want.Tables,
		Hints:   want.Hints,
		Outcome: want.Outcome,
		CFG:     want.CFG,
		Tier:    want.Tier,
	}
	corrupt.Result.InstStart[seamOff] = true

	rep := &Report{}
	CheckShardAgreement(rep, ".text", plan, want, corrupt)
	if rep.OK() {
		t.Fatal("CheckShardAgreement accepted a seam-tiled classification")
	}
	found := false
	for _, v := range rep.Violations {
		if v.Invariant == InvShards && v.Off == seamOff && strings.Contains(v.Msg, "seam-local") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no seam-local InvShards violation at %#x; got %v", seamOff, rep.Violations)
	}
}

// TestNearestSeam pins the seam-distance diagnostic itself.
func TestNearestSeam(t *testing.T) {
	plan := [][2]int{{0, 100}, {100, 200}, {200, 250}}
	for _, tc := range []struct{ off, seam, dist int }{
		{0, 100, 100}, {99, 100, 1}, {100, 100, 0}, {151, 200, 49}, {249, 200, 49},
	} {
		seam, dist := nearestSeam(plan, tc.off)
		if seam != tc.seam || dist != tc.dist {
			t.Fatalf("nearestSeam(%d) = (%#x,%d), want (%#x,%d)", tc.off, seam, dist, tc.seam, tc.dist)
		}
	}
	if _, dist := nearestSeam([][2]int{{0, 50}}, 10); dist != -1 {
		t.Fatalf("single-shard plan should have no seams, got dist %d", dist)
	}
}
