// Command eval regenerates the paper's tables and figures against the
// synthetic ground-truth corpus.
//
// Usage:
//
//	eval                 # run everything
//	eval -experiment T2  # run one experiment (T1-T9, F1-F4, E1-E4)
package main

import (
	"flag"
	"fmt"
	"os"

	"probedis/internal/eval"
)

func main() {
	exp := flag.String("experiment", "", "experiment ID to run (T1-T9, F1-F4, E1-E4); empty runs all")
	format := flag.String("format", "text", "output format: text or csv")
	realDir := flag.String("real", "testdata/real", "real-binary corpus directory (E4)")
	flag.Parse()

	r, err := eval.NewRunner()
	if err != nil {
		fmt.Fprintln(os.Stderr, "eval:", err)
		os.Exit(1)
	}

	render := func(t eval.Table) {
		if *format == "csv" {
			if err := t.RenderCSV(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "eval:", err)
				os.Exit(1)
			}
			return
		}
		t.Render(os.Stdout)
	}
	run := func(t eval.Table, err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "eval:", err)
			os.Exit(1)
		}
		render(t)
	}
	noErr := func(t eval.Table) (eval.Table, error) { return t, nil }

	switch *exp {
	case "":
		tables, err := r.All()
		if err != nil {
			fmt.Fprintln(os.Stderr, "eval:", err)
			os.Exit(1)
		}
		for _, t := range tables {
			render(t)
		}
	case "T1":
		run(noErr(r.T1Corpus()))
	case "T2":
		run(noErr(r.T2Accuracy()))
	case "T3":
		run(noErr(r.T3DataCategories()))
	case "T4":
		run(noErr(r.T4Ablation()))
	case "T5":
		run(noErr(r.T5Throughput()))
	case "T6":
		run(noErr(r.T6FunctionStarts()))
	case "T7":
		run(noErr(r.T7PerProfile()))
	case "T8":
		run(noErr(r.T8StageCost()))
	case "T9":
		run(noErr(r.T9TierSettlement()))
	case "F1":
		run(r.F1Density())
	case "F2":
		run(r.F2Scaling())
	case "F3":
		run(r.F3Convergence())
	case "F4":
		run(noErr(r.F4Threshold()))
	case "E1":
		run(r.E1Adversarial())
	case "E2":
		run(r.E2Rewrite())
	case "E3":
		run(r.E3AdversarialFamily())
	case "E4":
		run(r.E4Real(*realDir))
	default:
		fmt.Fprintf(os.Stderr, "eval: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}
