// Command instrument statically rewrites a stripped ELF64 binary with
// basic-block execution counters, driven entirely by metadata-free
// disassembly. The output ELF contains the relocated, probed text plus a
// writable counter section.
//
// Usage:
//
//	instrument -o out.elf [-newbase 0x600000] in.elf
//
// Note: the output targets the repository's emulator and single-text-
// section synthetic binaries; it is a demonstration of classification-
// driven rewriting, not a general-purpose ELF patcher.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"probedis/internal/core"
	"probedis/internal/elfx"
	"probedis/internal/rewrite"
)

func main() {
	out := flag.String("o", "instrumented.elf", "output path")
	newBase := flag.Uint64("newbase", 0x600000, "rewritten text base address")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: instrument [-o out.elf] [-newbase addr] in.elf")
		os.Exit(2)
	}
	img, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	f, err := elfx.Parse(img)
	if err != nil {
		fatal(err)
	}
	secs := f.ExecutableSections()
	if len(secs) != 1 {
		fatal(fmt.Errorf("expected exactly one executable section, found %d", len(secs)))
	}
	s := secs[0]
	entry := -1
	if f.Entry >= s.Addr && f.Entry < s.Addr+s.Size {
		entry = int(f.Entry - s.Addr)
	}

	d := core.New(core.DefaultModel())
	det, err := d.DisassembleSectionTraceContext(context.Background(), s.Data, s.Addr, entry, nil, nil)
	if err != nil {
		fatal(err)
	}
	res, err := rewrite.Rewrite(det, rewrite.Options{
		NewBase: *newBase,
		Probe:   true,
		Entry:   f.Entry,
	})
	if err != nil {
		fatal(err)
	}

	var b elfx.Builder
	b.Entry = res.Entry
	b.AddSection(".text", res.Base, elfx.SHFAlloc|elfx.SHFExecinstr, res.Code)
	counters := make([]byte, res.CounterLen)
	b.AddSection(".probes", res.CounterBase, elfx.SHFAlloc|elfx.SHFWrite, counters)
	outImg, err := b.Write()
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, outImg, 0o755); err != nil {
		fatal(err)
	}
	fmt.Printf("%s: text %d -> %d bytes at %#x, %d probes, counters at %#x, entry %#x\n",
		*out, len(s.Data), len(res.Code), res.Base, res.Probes, res.CounterBase, res.Entry)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "instrument:", err)
	os.Exit(1)
}
