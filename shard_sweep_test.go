package probedis_test

import (
	"fmt"
	"reflect"
	"testing"

	probedis "probedis"
	"probedis/internal/core"
	"probedis/internal/synth"
)

// The shard scheduler refuses shards below its floor (256 bytes), so a
// seam can only be steered onto constructs past floor+margin.
const (
	shardFloor  = 256
	sweepMargin = 32
)

// sweepClasses are the adversarial constructs the seam is swept across:
// an inline jump table, an overlap head, a literal pool and a NOP pad
// run. Each is exactly the kind of multi-byte structure a per-shard
// analysis would tear if shard state leaked into the merge.
var sweepClasses = []synth.ByteClass{
	synth.ClassJumpTable, synth.ClassOverlap, synth.ClassConst, synth.ClassPadding,
}

// constructAnchors returns, per construct class, the start offset of the
// first run of that class that the seam sweep can actually reach
// (anchor-sweepMargin must stay above the shard floor, and a seam must
// still exist, i.e. anchor+sweepMargin < n).
func constructAnchors(truth *synth.Truth) map[synth.ByteClass]int {
	anchors := make(map[synth.ByteClass]int)
	n := len(truth.Classes)
	for off := 1; off < n; off++ {
		c := truth.Classes[off]
		if truth.Classes[off-1] == c {
			continue // not a run start
		}
		if _, seen := anchors[c]; seen {
			continue
		}
		if off-sweepMargin >= shardFloor && off+sweepMargin < n {
			anchors[c] = off
		}
	}
	return anchors
}

// diffDetail compares every externally visible product of two runs and
// returns a description of the first divergence, or "" when identical.
func diffDetail(want, got *core.Detail) string {
	if !reflect.DeepEqual(want.Result, got.Result) {
		for off := range want.Result.IsCode {
			if want.Result.IsCode[off] != got.Result.IsCode[off] ||
				want.Result.InstStart[off] != got.Result.InstStart[off] {
				return fmt.Sprintf("classification diverges at +%#x", off)
			}
		}
		return "results differ (function starts)"
	}
	if !reflect.DeepEqual(want.Viable, got.Viable) {
		return "viability masks differ"
	}
	if !reflect.DeepEqual(want.Tables, got.Tables) && !(len(want.Tables) == 0 && len(got.Tables) == 0) {
		return "jump tables differ"
	}
	if want.Hints != got.Hints {
		return fmt.Sprintf("hint counts differ: %d vs %d", want.Hints, got.Hints)
	}
	if want.Outcome.Committed != got.Outcome.Committed ||
		want.Outcome.Rejected != got.Outcome.Rejected ||
		want.Outcome.Retracted != got.Outcome.Retracted {
		return "outcome counters differ"
	}
	if (want.Tier == nil) != (got.Tier == nil) {
		return "tier partition present in only one run"
	}
	if want.Tier != nil && !reflect.DeepEqual(want.Tier.Windows, got.Tier.Windows) {
		return "contested windows differ"
	}
	return ""
}

// TestShardSeamBoundarySweep is the exhaustive boundary-sweep harness:
// for every adversarial construct in a set of synthetic sections, the
// shard size is swept so the first seam lands at every single offset
// within ±32 bytes of the construct, and the sharded run must be
// byte-identical to the unsharded reference at each position. ShardPlan
// tiles at multiples of the shard size, so shardBytes = anchor+delta
// pins the first seam exactly at anchor+delta.
func TestShardSeamBoundarySweep(t *testing.T) {
	step := 1
	if testing.Short() {
		step = 8
	}
	d := probedis.New(probedis.DefaultModel())
	covered := make(map[synth.ByteClass]bool)
	for _, cfg := range []synth.Config{
		{Seed: 71, Profile: synth.ProfileAdversarial, NumFuncs: 14},
		{Seed: 72, Profile: synth.ProfileAdvOverlap, NumFuncs: 14},
		{Seed: 73, Profile: synth.ProfileAdvObf, NumFuncs: 14},
	} {
		bin, err := synth.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		entry := int(bin.Entry - bin.Base)
		want, _ := d.DisassembleSectionTraceContext(nil, bin.Code, bin.Base, entry, nil, nil)
		for _, class := range sweepClasses {
			anchor, ok := constructAnchors(bin.Truth)[class]
			if !ok {
				continue
			}
			covered[class] = true
			for delta := -sweepMargin; delta <= sweepMargin; delta += step {
				sb := anchor + delta
				got, _ := d.Clone(probedis.WithShardBytes(sb)).DisassembleSectionTraceContext(nil, bin.Code, bin.Base, entry, nil, nil)
				if diff := diffDetail(want, got); diff != "" {
					t.Errorf("seed %d: seam at %s%+d (shard-bytes %d): %s",
						cfg.Seed, class, delta, sb, diff)
				}
			}
		}
	}
	for _, class := range sweepClasses {
		if !covered[class] {
			t.Errorf("no generated section yielded a sweepable %s construct; adjust seeds", class)
		}
	}
}
