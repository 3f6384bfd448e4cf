// Instrument: the end-to-end use case the paper's accuracy enables —
// take a stripped binary, disassemble it without metadata, statically
// rewrite it with a basic-block execution counter at every recovered
// block, relocate it to a new base, run both versions in the emulator,
// and print the hottest blocks.
//
// Run with: go run ./examples/instrument
package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"

	"probedis/internal/core"
	"probedis/internal/emu"
	"probedis/internal/rewrite"
	"probedis/internal/synth"
)

func main() {
	bin, err := synth.Generate(synth.Config{
		Seed:     3,
		Profile:  synth.ProfileComplex,
		NumFuncs: 8,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("original: %d bytes at %#x\n", len(bin.Code), bin.Base)

	// 1. Metadata-free disassembly.
	d := core.New(core.DefaultModel())
	det, err := d.DisassembleSectionTraceContext(context.Background(), bin.Code, bin.Base, int(bin.Entry-bin.Base), nil, nil)
	if err != nil {
		panic(err)
	}
	fmt.Printf("recovered: %d instructions, %d blocks, %d jump tables\n",
		det.Result.NumInsts(), det.CFG.NumBlocks(), len(det.Tables))

	// 2. Static rewrite: relocate + insert block counters.
	out, err := rewrite.Rewrite(det, rewrite.Options{
		NewBase: 0x600000,
		Probe:   true,
		Entry:   bin.Entry,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("rewritten: %d bytes at %#x (+%d probes, %d counter bytes at %#x)\n\n",
		len(out.Code), out.Base, out.Probes, out.CounterLen, out.CounterBase)

	// 3. Execute both images.
	orig := emu.New(bin.Code, bin.Base).Run(bin.Entry, 200000)
	counters := make([]byte, out.CounterLen)
	m := emu.New(out.Code, out.Base)
	m.Map(emu.Region{Base: out.CounterBase, Data: counters})
	instr := m.Run(out.Entry, 400000)

	fmt.Printf("original run:     stop=%v steps=%d\n", orig.Stop, orig.Steps)
	fmt.Printf("instrumented run: stop=%v steps=%d (probe overhead included)\n\n",
		instr.Stop, instr.Steps)
	if orig.Stop != instr.Stop {
		panic("behaviour diverged — disassembly was not accurate enough to rewrite")
	}

	// 4. Profile: hottest blocks by counter.
	type hot struct {
		block int
		n     uint32
	}
	var hots []hot
	for i := 0; i*4+4 <= len(counters); i++ {
		if n := binary.LittleEndian.Uint32(counters[4*i:]); n > 0 {
			hots = append(hots, hot{i, n})
		}
	}
	sort.Slice(hots, func(i, j int) bool { return hots[i].n > hots[j].n })
	fmt.Printf("%d of %d blocks executed; hottest:\n", len(hots), out.Probes)
	blocks := det.CFG.Blocks
	for i := 0; i < 8 && i < len(hots); i++ {
		fmt.Printf("  block at %#x: %d executions\n",
			bin.Base+uint64(blocks[hots[i].block].Start), hots[i].n)
	}
}
