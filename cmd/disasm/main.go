// Command disasm disassembles a stripped ELF64 x86-64 binary without using
// any compiler metadata, printing a byte-precise code/data classification
// and an annotated listing.
//
// Usage:
//
//	disasm [-listing] [-bytes] [-summary] [-selfcheck] [-trace|-trace-json] file.elf
//
// Exit codes: 0 success, 1 failure (I/O, parse, selfcheck violation),
// 2 usage error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"probedis/internal/core"
	"probedis/internal/listing"
	"probedis/internal/obs"
	"probedis/internal/oracle"
	"probedis/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with injectable arguments and streams, so the CLI contract
// (flags, output, exit codes) is testable in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("disasm", flag.ContinueOnError)
	fs.SetOutput(stderr)
	showListing := fs.Bool("listing", true, "print the annotated listing")
	showBytes := fs.Bool("bytes", false, "include raw instruction bytes in the listing")
	summaryOnly := fs.Bool("summary", false, "print only the per-section summary")
	showRegions := fs.Bool("regions", false, "print data regions with the analysis that proved each")
	modelPath := fs.String("model", "", "load a trained model (see cmd/train); default trains in-process")
	workers := fs.Int("workers", 0, "pipeline worker goroutines: sections and analyses run concurrently (0 = GOMAXPROCS, 1 = serial; output is identical)")
	selfcheck := fs.Bool("selfcheck", false, "run the verification oracle on this binary: re-disassemble serially and in parallel, check every structural invariant, and exit nonzero on any violation")
	shardBytes := fs.Int("shard-bytes", 0, "split sections larger than this into shards analysed on the worker pool with O(shard) resident memory (0 = one shard per section; output is identical)")
	trace := fs.Bool("trace", false, "print the per-stage span tree (wall time, bytes, allocs, counters) after the summary; runs serially unless -workers is set so stage durations account for total wall time")
	traceJSON := fs.Bool("trace-json", false, "emit the span tree as JSON on stdout instead of any other output")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: disasm [-listing] [-bytes] [-summary] [-selfcheck] [-trace|-trace-json] [-model m.pdmd] file.elf")
		return 2
	}

	img, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return fatal(stderr, err)
	}
	var model *stats.Model
	if *modelPath != "" {
		mf, err := os.Open(*modelPath)
		if err != nil {
			return fatal(stderr, err)
		}
		model, err = stats.ReadModel(mf)
		mf.Close()
		if err != nil {
			return fatal(stderr, err)
		}
	} else {
		model = core.DefaultModel()
	}
	// Tracing attributes wall time to stages; overlapped section spans
	// would sum past it, so default the traced run to the serial path.
	if (*trace || *traceJSON) && *workers == 0 {
		*workers = 1
	}
	opts := []core.Option{core.WithWorkers(*workers)}
	if *shardBytes > 0 {
		opts = append(opts, core.WithShardBytes(*shardBytes))
	}
	d := core.New(model, opts...)
	if *selfcheck {
		rep, err := oracle.CheckELF(d, img)
		if err != nil {
			return fatal(stderr, err)
		}
		if code := reportSelfcheck(rep, stderr); code != 0 {
			return code
		}
		fmt.Fprintln(stdout, "selfcheck: all invariants hold")
	}

	var tr *obs.Span
	if *trace || *traceJSON {
		tr = obs.NewTrace("disassemble")
	}
	secs, err := d.DisassembleELFTrace(img, tr)
	tr.End()
	if err != nil {
		return fatal(stderr, err)
	}
	if *traceJSON {
		if err := obs.WriteJSON(stdout, tr); err != nil {
			return fatal(stderr, err)
		}
		return 0
	}
	for _, s := range secs {
		det := s.Detail
		res := det.Result
		fmt.Fprintf(stdout, "section %s: %#x..%#x (%d bytes)\n",
			s.Name, s.Addr, s.Addr+uint64(len(s.Data)), len(s.Data))
		fmt.Fprintf(stdout, "  code bytes:    %d (%.1f%%)\n", res.CodeBytes(),
			100*float64(res.CodeBytes())/float64(res.Len()))
		fmt.Fprintf(stdout, "  data bytes:    %d\n", res.Len()-res.CodeBytes())
		fmt.Fprintf(stdout, "  instructions:  %d\n", res.NumInsts())
		fmt.Fprintf(stdout, "  functions:     %d\n", len(res.FuncStarts))
		fmt.Fprintf(stdout, "  basic blocks:  %d\n", det.CFG.NumBlocks())
		fmt.Fprintf(stdout, "  jump tables:   %d\n", len(det.Tables))
		fmt.Fprintf(stdout, "  hints: %d (committed %d, rejected %d, retracted %d)\n",
			det.Hints, det.Outcome.Committed, det.Outcome.Rejected, det.Outcome.Retracted)
		if p := det.Tier; p != nil && p.Total > 0 {
			fmt.Fprintf(stdout, "  tier: settled %d/%d bytes (%.1f%%), %d contested windows\n",
				p.SettledBytes, p.Total,
				100*float64(p.SettledBytes)/float64(p.Total), len(p.Windows))
		}
		if *showRegions {
			fmt.Fprintln(stdout, "  data regions (attribution = analysis that claimed the first byte):")
			for _, reg := range res.Regions() {
				if reg.Code {
					continue
				}
				fmt.Fprintf(stdout, "    %#x..%#x (%4d bytes)  %s\n",
					s.Addr+uint64(reg.From), s.Addr+uint64(reg.To),
					reg.Len(), det.Outcome.SrcName(reg.From))
			}
		}
		if *summaryOnly || !*showListing || *trace {
			continue
		}
		fmt.Fprintln(stdout)
		if err := listing.Write(stdout, s.Data, res,
			listing.Options{ShowBytes: *showBytes}); err != nil {
			return fatal(stderr, err)
		}
	}
	if *trace {
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, "stage trace (wall time, share of total, bytes, allocs, counters):")
		if err := obs.WriteTree(stdout, tr); err != nil {
			return fatal(stderr, err)
		}
	}
	return 0
}

// reportSelfcheck prints every oracle violation and returns the process
// exit code: 0 for a clean report, 1 when any invariant failed.
func reportSelfcheck(rep *oracle.Report, stderr io.Writer) int {
	if rep.OK() {
		return 0
	}
	for _, v := range rep.Violations {
		fmt.Fprintln(stderr, "selfcheck:", v)
	}
	fmt.Fprintf(stderr, "selfcheck: %d violation(s)\n", len(rep.Violations))
	return 1
}

func fatal(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "disasm:", err)
	return 1
}
