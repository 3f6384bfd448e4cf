// Command eval regenerates the paper's tables and figures, every entry of
// eval.Experiments, against the synthetic ground-truth corpus and the
// real binaries under testdata/real. Run it from the repository root.
//
// Usage:
//
//	eval                 # run every experiment
//	eval -experiment T2  # run one experiment
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"probedis/internal/eval"
)

func main() {
	ids := make([]string, len(eval.Experiments))
	for i, e := range eval.Experiments {
		ids[i] = e.ID
	}
	valid := strings.Join(ids, ", ")
	exp := flag.String("experiment", "", "experiment ID to run, one of "+valid+"; empty runs all")
	format := flag.String("format", "text", "output format: text or csv")
	realDir := flag.String("real", eval.DefaultRealDir, "real-binary corpus directory (E4)")
	flag.Parse()

	run := eval.Experiments
	if *exp != "" {
		i := slices.IndexFunc(run, func(e eval.Experiment) bool { return e.ID == *exp })
		if i < 0 {
			fmt.Fprintf(os.Stderr, "eval: unknown experiment %q (valid: %s)\n", *exp, valid)
			os.Exit(2)
		}
		run = run[i : i+1]
	}

	r, err := eval.NewRunner()
	if err != nil {
		fatal(err)
	}
	r.RealDir = *realDir
	for _, e := range run {
		t, err := e.Run(r)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", e.ID, err))
		}
		if *format != "csv" {
			t.Render(os.Stdout)
		} else if err := t.RenderCSV(os.Stdout); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "eval:", err)
	os.Exit(1)
}
