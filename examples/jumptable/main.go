// Jumptable: hand-assemble a switch-heavy function whose jump table is
// embedded in the instruction stream, then watch the analysis prove the
// table bytes are data and anchor every case block as code — the exact
// situation that breaks linear sweep.
//
// Run with: go run ./examples/jumptable
package main

import (
	"context"
	"fmt"

	"probedis/internal/baseline"
	"probedis/internal/core"
	"probedis/internal/x86"
	"probedis/internal/x86/xasm"
)

func main() {
	const base = 0x401000
	a := xasm.New(base)

	// dispatch(rdi): switch (rdi) { 4 cases } — non-PIC absolute table
	// placed immediately after the indirect jmp, i.e. *inside* the code.
	a.Label("dispatch")
	a.Push(x86.RBP)
	a.MovRegReg(true, x86.RBP, x86.RSP)
	a.CmpRegImm(true, x86.RDI, 3)
	a.Jcc(xasm.A, "default")
	a.JmpMemIdx(x86.RDI, "table")
	a.Label("table")
	for i := 0; i < 4; i++ {
		a.Quad(fmt.Sprintf("case%d", i))
	}
	for i := 0; i < 4; i++ {
		a.Label(fmt.Sprintf("case%d", i))
		a.MovRegImm32(x86.RAX, uint32(i*100))
		a.JmpLabel("done")
	}
	a.Label("default")
	a.MovRegImm32(x86.RAX, 0xffff)
	a.Label("done")
	a.Pop(x86.RBP)
	a.Ret()

	code, err := a.Bytes()
	if err != nil {
		panic(err)
	}
	tableAddr, _ := a.LabelAddr("table")

	// The metadata-free pipeline.
	d := core.New(core.DefaultModel())
	det, err := d.DisassembleSectionTraceContext(context.Background(), code, base, 0, nil, nil)
	if err != nil {
		panic(err)
	}

	fmt.Printf("assembled %d bytes; table of 4 quads at %#x\n\n", len(code), tableAddr)
	fmt.Printf("discovered %d jump table(s):\n", len(det.Tables))
	for _, jt := range det.Tables {
		fmt.Printf("  table at %#x: %d entries x %d bytes -> %d targets\n",
			base+uint64(jt.Table), jt.Entries, jt.EntrySz, len(jt.Targets))
		for _, t := range jt.Targets {
			fmt.Printf("    target %#x\n", base+uint64(t))
		}
	}

	fmt.Printf("\nbyte classification around the table:\n")
	tOff := int(tableAddr - base)
	for off := tOff - 4; off < tOff+36; off++ {
		kind := "code"
		if !det.Result.IsCode[off] {
			kind = "data"
		}
		marker := ""
		if off == tOff {
			marker = "  <- table start"
		}
		fmt.Printf("  %#x: %02x %s%s\n", base+uint64(off), code[off], kind, marker)
	}

	// Contrast with linear sweep, which decodes the table as junk code.
	lin := baseline.LinearSweep{}.Disassemble(code, base, 0)
	junk := 0
	for i := tOff; i < tOff+32; i++ {
		if lin.IsCode[i] {
			junk++
		}
	}
	fmt.Printf("\nlinear sweep classified %d/32 table bytes as code (it has no way to know)\n", junk)
	fmt.Printf("probedis  classified %d/32 table bytes as code\n", func() int {
		n := 0
		for i := tOff; i < tOff+32; i++ {
			if det.Result.IsCode[i] {
				n++
			}
		}
		return n
	}())
}
