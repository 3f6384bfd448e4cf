package eval

import (
	"encoding/binary"
	"fmt"

	"probedis/internal/cfg"
	"probedis/internal/core"
	"probedis/internal/dis"
	"probedis/internal/emu"
	"probedis/internal/rewrite"
	"probedis/internal/superset"
	"probedis/internal/synth"
)

// e2Rewrite is the instrumentation experiment: every engine's
// classification is fed to the static rewriter, the rewritten binary is
// instrumented with basic-block counters and moved to a new base, and both
// images are executed in the emulator. A binary counts as a success only
// if the rewritten image behaves identically AND its probe counters match
// the true per-block execution counts. This is the downstream task that
// motivates metadata-free accuracy: inaccurate disassembly produces
// rewritten binaries that crash or silently diverge.
func (r *Runner) e2Rewrite() (Table, error) {
	t := Table{
		Title: "Extension: instrumentation (rewrite + execute) success rate",
		Columns: []string{"engine", "rewrite-ok", "behave-ok", "counts-ok",
			"success"},
	}
	var corpus []*synth.Binary
	for seed := int64(1); seed <= 8; seed++ {
		b, err := synth.Generate(synth.Config{
			Seed: seed, Profile: synth.ProfileComplex, NumFuncs: 8,
		})
		if err != nil {
			return t, err
		}
		corpus = append(corpus, b)
	}

	for _, e := range r.engines() {
		var rewriteOK, behaveOK, countsOK, comparable int
		for _, b := range corpus {
			entry := int(b.Entry - b.Base)
			var det *core.Detail
			if d, ok := e.(*core.Disassembler); ok {
				det, _ = d.DisassembleSectionTraceContext(nil, b.Code, b.Base, entry, nil, nil)
			} else {
				det = detailFor(e.Disassemble(b.Code, b.Base, entry), b)
			}
			out, err := rewrite.Rewrite(det, rewrite.Options{
				NewBase: 0x600000, Probe: true, Entry: b.Entry,
			})
			if err != nil {
				comparable++
				continue
			}
			rewriteOK++

			blockIdx := map[uint64]int{}
			for i, blk := range det.CFG.Blocks {
				blockIdx[b.Base+uint64(blk.Start)] = i
			}
			const fuel = 150000
			origCounts := map[int]uint64{}
			m := emu.New(b.Code, b.Base)
			m.OnStep = func(pc uint64) {
				if i, ok := blockIdx[pc]; ok {
					origCounts[i]++
				}
			}
			origOut := m.Run(b.Entry, fuel)

			counters := make([]byte, out.CounterLen)
			m2 := emu.New(out.Code, out.Base)
			m2.Map(emu.Region{Base: out.CounterBase, Data: counters})
			newOut := m2.Run(out.Entry, fuel+out.Probes*1000)

			if origOut.Stop == emu.StopFuel || newOut.Stop == emu.StopFuel {
				rewriteOK-- // not comparable; drop from the denominator
				continue
			}
			comparable++
			if origOut.Stop != newOut.Stop || origOut.Trap != newOut.Trap {
				continue
			}
			behaveOK++
			if origOut.Stop == emu.StopTrap {
				countsOK++ // counts are cut mid-block at a trap; kind match suffices
				continue
			}
			ok := true
			for i := range det.CFG.Blocks {
				var got uint64
				if 4*i+4 <= len(counters) {
					got = uint64(binary.LittleEndian.Uint32(counters[4*i:]))
				}
				if got != origCounts[i] {
					ok = false
					break
				}
			}
			if ok {
				countsOK++
			}
		}
		if comparable == 0 {
			comparable = 1
		}
		t.AddRow(e.Name(),
			fmt.Sprintf("%d/%d", rewriteOK, comparable),
			fmt.Sprintf("%d/%d", behaveOK, comparable),
			fmt.Sprintf("%d/%d", countsOK, comparable),
			fmtPct(ratio(countsOK, comparable)))
	}
	return t, nil
}

// detailFor wraps a baseline engine's result in the Detail shape the
// rewriter consumes: its own CFG, and no jump-table knowledge (baselines
// do not discover tables — which is precisely their handicap here).
func detailFor(res *dis.Result, b *synth.Binary) *core.Detail {
	g := superset.Build(b.Code, b.Base)
	return &core.Detail{
		Result: res,
		Graph:  g,
		CFG:    cfg.Build(g, res.InstStart, res.FuncStarts),
	}
}
