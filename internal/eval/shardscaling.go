package eval

import (
	"fmt"
	"time"

	"probedis/internal/core"
	"probedis/internal/dis"
	"probedis/internal/synth"
)

// T10ShardScaling measures the sharded pipeline (core.WithShardBytes)
// against the whole-section run on one giant synthetic section: wall
// time, throughput, windowed-graph activity (block faults, evictions,
// point reads) and the resident Info side table relative to the eager
// backend's 16 bytes per section byte. Every sharded row's output is
// verified byte-identical to the unsharded reference before it is
// reported — the table is a cost profile of an exactness-preserving
// transformation, not an accuracy trade-off.
func (r *Runner) T10ShardScaling() (Table, error) {
	t := Table{
		ID:      "T10",
		Title:   "Sharded pipeline: shard size vs throughput and residency",
		Columns: []string{"shard", "shards", "time", "MB/s", "faults", "evict", "point-reads", "resident_x", "identical"},
	}

	// One giant section, concatenated from per-profile synthetic binaries
	// at consecutive addresses (the same construction the residency
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

	ref := core.New(r.Model, core.WithWorkers(1))
	refStart := time.Now()
	want, _ := ref.DisassembleSectionTraceContext(nil, code, base, 0, nil, nil)
	refDur := time.Since(refStart)
	mbps := func(d time.Duration) string {
		return fmt.Sprintf("%.1f", float64(len(code))/1e6/d.Seconds())
	}
	t.AddRow("whole-section", "1", refDur.Round(time.Millisecond).String(),
		mbps(refDur), "0", "0", "0", "16.0", "-")

	const infoBytes = 16
	for _, shard := range []int{1 << 20, 256 << 10, 64 << 10} {
		d := core.New(r.Model, core.WithWorkers(1), core.WithShardBytes(shard))
		start := time.Now()
		got, _ := d.DisassembleSectionTraceContext(nil, code, base, 0, nil, nil)
		dur := time.Since(start)
		faults, evictions := got.Graph.LazyStats()
		blocks, blockBytes := got.Graph.ResidentBlocks()
		residentBytes := blocks * blockBytes
		if residentBytes > len(code) {
			// The tail block is allocated short; blocks*blockBytes
			// overcounts it when the cap covers the whole section.
			residentBytes = len(code)
		}
		resident := float64(residentBytes*infoBytes) / float64(len(code))
		t.AddRow(fmt.Sprintf("%dK", shard>>10), itoa(len(core.ShardPlan(len(code), shard))),
			dur.Round(time.Millisecond).String(), mbps(dur),
			fmt.Sprintf("%d", faults), fmt.Sprintf("%d", evictions),
			fmt.Sprintf("%d", got.Graph.PointReads()), fmt.Sprintf("%.1f", resident),
			identical(want.Result, got.Result))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("section: %d bytes; resident_x = retained Info bytes / section byte (eager backend: 16.0)", len(code)),
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
