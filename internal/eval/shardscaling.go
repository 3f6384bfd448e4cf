package eval

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"probedis/internal/core"
	"probedis/internal/dis"
	"probedis/internal/synth"
)

// T10ShardScaling measures the sharded pipeline (core.WithShardBytes)
// against the whole-section run on one giant synthetic section: wall
// time, throughput, and the heap allocations each run makes (count and
// MiB, deltas of runtime.MemStats). Every sharded run reads the same
// eager superset graph as the whole-section run, so its allocations
// should match it; only the split of work into per-shard tasks differs.
// Every sharded row's output is verified byte-identical to the unsharded
// reference before it is reported — the table is a cost profile of an
// exactness-preserving transformation, not an accuracy trade-off.
func (r *Runner) T10ShardScaling() (Table, error) {
	t := Table{
		ID:      "T10",
		Title:   "Sharded pipeline: shard size vs throughput and allocation",
		Columns: []string{"shard", "shards", "time", "MB/s", "allocs", "MiB", "identical"},
	}

	// One giant section, concatenated from per-profile synthetic binaries
	// at consecutive addresses (the same construction the sharded cost
	// regression test uses).
	const targetBytes = 2 << 20
	base := uint64(0x401000)
	addr := base
	var code []byte
	for seed := int64(500); len(code) < targetBytes; seed++ {
		b, err := synth.Generate(synth.Config{
			Seed:     seed,
			Profile:  synth.DefaultProfiles[int(seed)%len(synth.DefaultProfiles)],
			NumFuncs: 300,
			Base:     addr,
		})
		if err != nil {
			return t, err
		}
		code = append(code, b.Code...)
		addr += uint64(len(b.Code))
	}

	run := func(shard int) (*core.Detail, []string) {
		d := core.New(r.Model, core.WithWorkers(1), core.WithShardBytes(shard))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		det, _ := d.DisassembleSectionTraceContext(nil, code, base, 0, nil, nil)
		dur := time.Since(start)
		runtime.ReadMemStats(&after)
		return det, []string{
			itoa(len(core.ShardPlan(len(code), shard))),
			dur.Round(time.Millisecond).String(),
			fmt.Sprintf("%.1f", float64(len(code))/1e6/dur.Seconds()),
			fmt.Sprintf("%d", after.Mallocs-before.Mallocs),
			fmt.Sprintf("%.1f", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20)),
		}
	}
	want, cells := run(0)
	t.AddRow(slices.Concat([]string{"whole-section"}, cells, []string{"-"})...)
	for _, shard := range []int{1 << 20, 256 << 10, 64 << 10} {
		got, cells := run(shard)
		t.AddRow(slices.Concat([]string{fmt.Sprintf("%dK", shard>>10)}, cells,
			[]string{identical(want.Result, got.Result)})...)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("section: %d bytes; allocs and MiB are the heap allocations of one run", len(code)),
		"sharded output is byte-identical to whole-section by construction (oracle.CheckShards); 'identical' re-verifies it here")
	return t, nil
}

// identical reports whether two results agree byte for byte on the
// classification and instruction-start planes plus function starts.
func identical(want, got *dis.Result) string {
	if len(want.IsCode) != len(got.IsCode) || len(want.FuncStarts) != len(got.FuncStarts) {
		return "NO"
	}
	for i := range want.IsCode {
		if want.IsCode[i] != got.IsCode[i] || want.InstStart[i] != got.InstStart[i] {
			return "NO"
		}
	}
	for i := range want.FuncStarts {
		if want.FuncStarts[i] != got.FuncStarts[i] {
			return "NO"
		}
	}
	return "yes"
}
