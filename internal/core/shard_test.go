package core

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"probedis/internal/analysis"
	"probedis/internal/superset"
	"probedis/internal/synth"
)

func TestShardPlan(t *testing.T) {
	for _, tc := range []struct {
		n, shard, want int
	}{
		{0, 0, 1}, {100, 0, 1}, {100, 200, 1}, {100, 100, 1},
		{101, 100, 2}, {1000, 256, 4}, {1024, 256, 4},
	} {
		plan := ShardPlan(tc.n, tc.shard)
		if len(plan) != tc.want {
			t.Fatalf("ShardPlan(%d,%d) = %d shards, want %d", tc.n, tc.shard, len(plan), tc.want)
		}
		// The plan must tile [0, n) exactly: ascending, adjacent, disjoint.
		at := 0
		for _, s := range plan {
			if s[0] != at || s[1] < s[0] {
				t.Fatalf("ShardPlan(%d,%d) = %v: not a tiling", tc.n, tc.shard, plan)
			}
			at = s[1]
		}
		if at != tc.n {
			t.Fatalf("ShardPlan(%d,%d) = %v: does not cover [0,%d)", tc.n, tc.shard, plan, tc.n)
		}
	}
	if d := New(nil, WithShardBytes(7)); d.ShardBytes() != minShardBytes {
		t.Fatalf("WithShardBytes(7) not clamped to floor: %d", d.ShardBytes())
	}
	if d := New(nil, WithShardBytes(0)); d.ShardBytes() != 0 {
		t.Fatalf("WithShardBytes(0) should disable sharding")
	}
}

// requireSameDetail compares two section runs across every output the
// pipeline produces — classification bytes, instruction starts, function
// starts, jump tables, hint count, outcome counters and tier partition.
func requireSameDetail(tb testing.TB, label string, want, got *Detail) {
	tb.Helper()
	wr, gr := want.Result, got.Result
	if len(wr.IsCode) != len(gr.IsCode) {
		tb.Fatalf("%s: result length %d vs %d", label, len(wr.IsCode), len(gr.IsCode))
	}
	for off := range wr.IsCode {
		if wr.IsCode[off] != gr.IsCode[off] {
			tb.Fatalf("%s: IsCode diverges at +%#x (want %v)", label, off, wr.IsCode[off])
		}
		if wr.InstStart[off] != gr.InstStart[off] {
			tb.Fatalf("%s: InstStart diverges at +%#x (want %v)", label, off, wr.InstStart[off])
		}
	}
	if !reflect.DeepEqual(wr.FuncStarts, gr.FuncStarts) {
		tb.Fatalf("%s: FuncStarts %v vs %v", label, wr.FuncStarts, gr.FuncStarts)
	}
	if !reflect.DeepEqual(want.Viable, got.Viable) {
		tb.Fatalf("%s: viability masks diverge", label)
	}
	if !reflect.DeepEqual(want.Tables, got.Tables) && !(len(want.Tables) == 0 && len(got.Tables) == 0) {
		tb.Fatalf("%s: jump tables diverge: %v vs %v", label, want.Tables, got.Tables)
	}
	if want.Hints != got.Hints {
		tb.Fatalf("%s: hint counts %d vs %d", label, want.Hints, got.Hints)
	}
	wo, go_ := want.Outcome, got.Outcome
	if wo.Committed != go_.Committed || wo.Rejected != go_.Rejected || wo.Retracted != go_.Retracted {
		tb.Fatalf("%s: outcome counters (%d,%d,%d) vs (%d,%d,%d)", label,
			wo.Committed, wo.Rejected, wo.Retracted, go_.Committed, go_.Rejected, go_.Retracted)
	}
	if !reflect.DeepEqual(want.Tier, got.Tier) {
		tb.Fatalf("%s: tier partitions diverge", label)
	}
}

func shardTestBins(tb testing.TB) []*synth.Binary {
	tb.Helper()
	var bins []*synth.Binary
	for _, cfg := range []synth.Config{
		{Seed: 61, Profile: synth.ProfileO2, NumFuncs: 16},
		{Seed: 62, Profile: synth.ProfileAdversarial, NumFuncs: 16},
		{Seed: 63, Profile: synth.ProfileAdvOverlap, NumFuncs: 12},
		{Seed: 64, Profile: synth.ProfileAdvObf, NumFuncs: 12},
	} {
		bin, err := synth.Generate(cfg)
		if err != nil {
			tb.Fatal(err)
		}
		bins = append(bins, bin)
	}
	return bins
}

// TestShardedMatchesUnsharded is the core exactness claim: for every
// profile and a spread of shard sizes (including a deliberately odd one
// so seams land unaligned), the sharded run's full Detail is
// byte-identical to the unsharded reference.
func TestShardedMatchesUnsharded(t *testing.T) {
	ref := New(DefaultModel())
	for bi, bin := range shardTestBins(t) {
		entry := int(bin.Entry - bin.Base)
		want, _ := ref.DisassembleSectionTraceContext(nil, bin.Code, bin.Base, entry, nil, nil)
		for _, shard := range []int{311, 1024, 4096} {
			d := ref.Clone(WithShardBytes(shard))
			got, _ := d.DisassembleSectionTraceContext(nil, bin.Code, bin.Base, entry, nil, nil)
			requireSameDetail(t, fmt.Sprintf("bin %d shard %d", bi, shard), want, got)
		}
	}
}

// TestShardedMatchesUnshardedAblations covers the configurations the
// scheduler treats as degenerate cases of the tiered corrector (no stats:
// no statistical phase; flat priorities: one whole-section window) plus
// the jump-table ablation: the sharded run must equal the one-shard run.
func TestShardedMatchesUnshardedAblations(t *testing.T) {
	bin := shardTestBins(t)[1]
	entry := int(bin.Entry - bin.Base)
	for i, opts := range [][]Option{
		{WithoutStats()},
		{WithoutPrioritization()},
		{WithoutJumpTables()},
	} {
		label := fmt.Sprintf("ablation %d", i)
		ref := New(DefaultModel(), opts...)
		want, _ := ref.DisassembleSectionTraceContext(nil, bin.Code, bin.Base, entry, nil, nil)
		got, _ := ref.Clone(WithShardBytes(777)).DisassembleSectionTraceContext(nil, bin.Code, bin.Base, entry, nil, nil)
		requireSameDetail(t, label, want, got)
	}
}

// TestShardedHintStreamIdentical pins the merge rule at its strongest:
// for every tiling, the collector's merged stream equals the whole-section
// analyses called in canonical order, element for element (not just as a
// sorted multiset), so the corrector provably consumes the same sequence.
func TestShardedHintStreamIdentical(t *testing.T) {
	d := New(DefaultModel())
	for bi, bin := range shardTestBins(t) {
		g := superset.Build(bin.Code, bin.Base)
		viable := analysis.Viability(g)
		entry := int(bin.Entry - bin.Base)
		wantTables := analysis.FindJumpTables(g, viable)
		var want []analysis.Hint
		for _, part := range [][]analysis.Hint{
			analysis.EntryHint(g, entry),
			analysis.JumpTableHints(wantTables),
			analysis.CallTargetHints(g, viable),
			analysis.PrologueHints(g, viable),
			analysis.DataPatternHints(g),
			analysis.LiteralPoolHints(g, viable),
		} {
			want = append(want, part...)
		}
		for _, shard := range []int{0, 311, 2048} {
			plan := ShardPlan(g.Len(), shard)
			got, gotTables := d.collectHints(nil, g, viable, entry, plan, nil, newWorkPool(1))
			if !reflect.DeepEqual(want, got) {
				for i := range want {
					if i >= len(got) || want[i] != got[i] {
						t.Fatalf("bin %d shard %d: hint stream diverges at %d: %+v vs %+v",
							bi, shard, i, want[i], got[min(i, len(got)-1)])
					}
				}
				t.Fatalf("bin %d shard %d: hint stream lengths %d vs %d", bi, shard, len(want), len(got))
			}
			if !reflect.DeepEqual(wantTables, gotTables) && !(len(wantTables) == 0 && len(gotTables) == 0) {
				t.Fatalf("bin %d shard %d: tables diverge", bi, shard)
			}
		}
	}
}

// TestShardedDeterministicAcrossWorkers extends the parallel_test.go
// guarantee to shard scheduling: N-shard runs must be byte-identical
// run-to-run and across worker counts (the -race pass of make verify
// doubles as the scheduler's data-race proof).
func TestShardedDeterministicAcrossWorkers(t *testing.T) {
	bin := shardTestBins(t)[1]
	entry := int(bin.Entry - bin.Base)
	ref := New(DefaultModel(), WithShardBytes(777), WithWorkers(1))
	want, _ := ref.DisassembleSectionTraceContext(nil, bin.Code, bin.Base, entry, nil, nil)
	for _, workers := range []int{1, 4, 8} {
		d := New(DefaultModel(), WithShardBytes(777), WithWorkers(workers))
		for rep := 0; rep < 2; rep++ {
			got, _ := d.DisassembleSectionTraceContext(nil, bin.Code, bin.Base, entry, nil, nil)
			requireSameDetail(t, fmt.Sprintf("workers=%d rep=%d", workers, rep), want, got)
		}
	}
}

// TestShardedELFMatchesUnsharded drives the whole-image path: the
// request-scoped pool fans shard tasks out across sections, and the
// result must equal the unsharded parallel run section for section.
func TestShardedELFMatchesUnsharded(t *testing.T) {
	img := buildMultiSectionELF(t, 4, 10)
	ref := New(DefaultModel(), WithWorkers(4))
	want, err := ref.DisassembleELFTraceContext(nil, img, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ref.Clone(WithShardBytes(1024)).DisassembleELFTraceContext(nil, img, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireSameSections(t, "sharded ELF", want, got)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestShardedCostsLikeUnsharded pins what sharding costs: it splits the
// anchored hint analyses into per-shard tasks over the section's one
// superset graph, so on a section ~16x the shard size a
// serial sharded run must allocate about what the whole-section run does
// — within 1.3x on both allocation count and bytes. A graph read that
// allocates shows up here as a multiple.
func TestShardedCostsLikeUnsharded(t *testing.T) {
	base := uint64(0x401000)
	addr := base
	var code []byte
	for seed := int64(7100); len(code) < 1<<20; seed++ {
		bin, err := synth.Generate(synth.Config{
			Seed:     seed,
			Profile:  synth.DefaultProfiles[int(seed)%len(synth.DefaultProfiles)],
			NumFuncs: 300,
			Base:     addr,
		})
		if err != nil {
			t.Fatal(err)
		}
		code = append(code, bin.Code...)
		addr += uint64(len(bin.Code))
	}

	cost := func(d *Disassembler) (mallocs, bytes uint64, det *Detail) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		det, _ = d.DisassembleSectionTraceContext(nil, code, base, 0, nil, nil)
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, det
	}
	d := New(DefaultModel(), WithWorkers(1))
	wantMallocs, wantBytes, want := cost(d)
	gotMallocs, gotBytes, got := cost(d.Clone(WithShardBytes(64 << 10)))
	requireSameDetail(t, "64 KiB shards", want, got)
	t.Logf("allocs %d -> %d, bytes %d -> %d", wantMallocs, gotMallocs, wantBytes, gotBytes)
	if float64(gotMallocs) > 1.3*float64(wantMallocs) {
		t.Errorf("sharded run made %d allocations, want within 1.3x of the whole-section run's %d", gotMallocs, wantMallocs)
	}
	if float64(gotBytes) > 1.3*float64(wantBytes) {
		t.Errorf("sharded run allocated %d bytes, want within 1.3x of the whole-section run's %d", gotBytes, wantBytes)
	}
}
