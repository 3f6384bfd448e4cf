// Cfgrecovery: recover functions and basic blocks from a stripped binary
// and print a control-flow summary, the structure binary-analysis and
// instrumentation tools build on.
//
// Run with: go run ./examples/cfgrecovery
package main

import (
	"context"
	"fmt"

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
	type fi struct{ entry, blocks int }
	var fis []fi
	for _, f := range c.Funcs {
		fis = append(fis, fi{f.Entry, len(f.Blocks)})
	}
	for i := 0; i < len(fis); i++ {
		for j := i + 1; j < len(fis); j++ {
			if fis[j].blocks > fis[i].blocks {
				fis[i], fis[j] = fis[j], fis[i]
			}
		}
	}
	for i := 0; i < 3 && i < len(fis); i++ {
		entry := fis[i].entry
		fmt.Printf("func at %#x (%d blocks):\n", bin.Base+uint64(entry), fis[i].blocks)
		var fn *struct {
			Entry  int
			Blocks []int
		}
		for _, f := range c.Funcs {
			if f.Entry == entry {
				fn = &struct {
					Entry  int
					Blocks []int
				}{f.Entry, f.Blocks}
			}
		}
		for _, bOff := range fn.Blocks {
			blk := c.BlockAt(bOff)
			succs := ""
			for _, s := range blk.Succs {
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
