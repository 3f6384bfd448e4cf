// Command train fits the statistical code/data models on a generated
// corpus and saves them, so repeated disassembly runs skip training.
//
// The file (version 2 of the format) holds the model's two scoring
// tables as float64, so with the default flags disasm -model and
// disasmd -model reproduce the in-process model's output byte for byte.
// A version-1 file, which rounded the tables to float32, is rejected:
// run train again.
//
// Usage:
//
//	train -o model.pdmd [-seed 1000000] [-per-profile 8] [-funcs 80]
//	disasm -model model.pdmd binary.elf
package main

import (
	"flag"
	"fmt"
	"os"

	"probedis/internal/core"
)

func main() {
	out := flag.String("o", "model.pdmd", "output model path")
	seed := flag.Int64("seed", 1_000_000, "first training seed (keep disjoint from evaluation seeds)")
	perProfile := flag.Int("per-profile", 8, "training binaries per generation profile")
	funcs := flag.Int("funcs", 80, "functions per training binary")
	flag.Parse()

	m := core.TrainModel(*seed, *perProfile, *funcs)
	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	n, err := m.WriteTo(f)
	if err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("%s: %d bytes (seeds %d.., %d binaries/profile, %d funcs each)\n",
		*out, n, *seed, *perProfile, *funcs)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "train:", err)
	os.Exit(1)
}
