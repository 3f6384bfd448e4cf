// Cfgrecovery: recover functions and basic blocks from a stripped binary
// and print a control-flow summary, the structure binary-analysis and
// instrumentation tools build on.
//
// Run with: go run ./examples/cfgrecovery
package main

import (
	"context"
	"fmt"
	"slices"

	"probedis/internal/cfg"
	"probedis/internal/core"
	"probedis/internal/synth"
	"probedis/internal/x86"
)

func main() {
	bin, err := synth.Generate(synth.Config{
		Seed:     7,
		Profile:  synth.ProfileO2,
		NumFuncs: 12,
	})
	if err != nil {
		panic(err)
	}

	d := core.New(core.DefaultModel())
	det, err := d.DisassembleSectionTraceContext(context.Background(), bin.Code, bin.Base, int(bin.Entry-bin.Base), nil, nil)
	if err != nil {
		panic(err)
	}
	c := det.CFG

	fmt.Printf("recovered %d functions, %d basic blocks from %d bytes\n\n",
		len(c.Funcs), c.NumBlocks(), len(bin.Code))

	// Check recovered entries against (normally unavailable) ground truth.
	truth := map[int]bool{}
	for _, f := range bin.Truth.FuncStarts {
		truth[f] = true
	}
	hits := 0
	for _, f := range c.Funcs {
		if truth[f.Entry] {
			hits++
		}
	}
	fmt.Printf("function entries matching ground truth: %d/%d\n\n", hits, len(bin.Truth.FuncStarts))

	// Detail the three largest functions.
	fns := slices.Clone(c.Funcs)
	size := func(f cfg.Func) int { return f.End - f.First }
	for i := 0; i < len(fns); i++ {
		for j := i + 1; j < len(fns); j++ {
			if size(fns[j]) > size(fns[i]) {
				fns[i], fns[j] = fns[j], fns[i]
			}
		}
	}
	for _, f := range fns[:min(3, len(fns))] {
		fmt.Printf("func at %#x (%d blocks):\n", bin.Base+uint64(f.Entry), size(f))
		for i := f.First; i < f.End; i++ {
			blk := &c.Blocks[i]
			succs := ""
			for _, s := range blk.Succs() {
				succs += fmt.Sprintf(" %#x", bin.Base+uint64(s))
			}
			term := blk.Terminator
			fmt.Printf("  block %#x..%#x  term=%-9v succs:%s\n",
				bin.Base+uint64(blk.Start), bin.Base+uint64(blk.End), term, succs)
			if term == x86.FlowIndirectJump {
				fmt.Printf("    (indirect dispatch — resolved via jump-table analysis)\n")
			}
		}
		fmt.Println()
	}
}
