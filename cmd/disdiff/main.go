// Command disdiff runs two disassembly engines on the same binary and
// reports where they disagree — the fastest way to see exactly which bytes
// metadata-free analysis rescues from a classic engine.
//
// Usage:
//
//	disdiff [-a probedis] [-b linear-sweep] [-max 20] file.elf
//
// Engine names: probedis, linear-sweep, recursive, recursive+heur,
// stat-only.
package main

import (
	"flag"
	"fmt"
	"os"

	"probedis/internal/baseline"
	"probedis/internal/core"
	"probedis/internal/dis"
	"probedis/internal/elfx"
	"probedis/internal/x86"
)

func engineByName(name string) (dis.Engine, error) {
	if name == "probedis" {
		return core.New(core.DefaultModel()), nil
	}
	for _, e := range baseline.Engines(core.DefaultModel()) {
		if e.Name() == name {
			return e, nil
		}
	}
	return nil, fmt.Errorf("unknown engine %q", name)
}

func main() {
	nameA := flag.String("a", "probedis", "first engine")
	nameB := flag.String("b", "linear-sweep", "second engine")
	maxRegions := flag.Int("max", 20, "maximum disagreement regions to print")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: disdiff [-a engine] [-b engine] [-max n] file.elf")
		os.Exit(2)
	}

	engA, err := engineByName(*nameA)
	if err != nil {
		fatal(err)
	}
	engB, err := engineByName(*nameB)
	if err != nil {
		fatal(err)
	}
	img, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	f, err := elfx.Parse(img)
	if err != nil {
		fatal(err)
	}
	resA, err := sectionResults(engA, img, f)
	if err != nil {
		fatal(err)
	}
	resB, err := sectionResults(engB, img, f)
	if err != nil {
		fatal(err)
	}

	for si, s := range f.ExecutableSections() {
		ra, rb := resA[si], resB[si]

		agree := 0
		for i := range ra.IsCode {
			if ra.IsCode[i] == rb.IsCode[i] {
				agree++
			}
		}
		fmt.Printf("section %s: %d bytes, %s vs %s agree on %d (%.2f%%)\n",
			s.Name, len(s.Data), *nameA, *nameB, agree,
			100*float64(agree)/float64(len(s.Data)))

		shown := 0
		for i := 0; i < len(s.Data) && shown < *maxRegions; {
			if ra.IsCode[i] == rb.IsCode[i] {
				i++
				continue
			}
			j := i
			for j < len(s.Data) && ra.IsCode[j] != rb.IsCode[j] {
				j++
			}
			fmt.Printf("\n  %#x..%#x (%d bytes): %s=%s, %s=%s\n",
				s.Addr+uint64(i), s.Addr+uint64(j), j-i,
				*nameA, kind(ra.IsCode[i]), *nameB, kind(rb.IsCode[i]))
			printView(s.Data, s.Addr, ra, i, j, *nameA)
			printView(s.Data, s.Addr, rb, i, j, *nameB)
			shown++
			i = j
		}
	}
}

// sectionResults runs one engine on each executable section of img, which
// f holds parsed. The core engine runs the ELF pipeline, as disasm does,
// so the other sections (PLT stubs, .init/.fini) are legitimate branch
// targets; a baseline runs on each section alone, its entry taken from
// the bytes present.
func sectionResults(e dis.Engine, img []byte, f *elfx.File) ([]*dis.Result, error) {
	var out []*dis.Result
	if d, ok := e.(*core.Disassembler); ok {
		secs, err := d.DisassembleELF(img)
		for _, s := range secs {
			out = append(out, s.Result)
		}
		return out, err
	}
	for _, s := range f.ExecutableSections() {
		entry := -1
		if f.Entry >= s.Addr && f.Entry-s.Addr < uint64(len(s.Data)) {
			entry = int(f.Entry - s.Addr)
		}
		out = append(out, e.Disassemble(s.Data, s.Addr, entry))
	}
	return out, nil
}

func kind(code bool) string {
	if code {
		return "code"
	}
	return "data"
}

// printView renders the engine's interpretation of [from, to).
func printView(code []byte, base uint64, r *dis.Result, from, to int, name string) {
	fmt.Printf("    %s view:\n", name)
	lines := 0
	for i := from; i < to && lines < 6; {
		if r.InstStart[i] {
			inst, err := x86.Decode(code[i:], base+uint64(i))
			if err == nil {
				fmt.Printf("      %#x: %s\n", inst.Addr, inst.String())
				i += inst.Len
				lines++
				continue
			}
		}
		// Data bytes until the next instruction start.
		j := i
		for j < to && !r.InstStart[j] {
			j++
		}
		n := j - i
		if n > 8 {
			n = 8
		}
		fmt.Printf("      %#x: .byte % x%s\n", base+uint64(i), code[i:i+n],
			ellipsis(j-i > 8))
		i = j
		lines++
	}
}

func ellipsis(more bool) string {
	if more {
		return " ..."
	}
	return ""
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "disdiff:", err)
	os.Exit(1)
}
