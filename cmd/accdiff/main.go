// Command accdiff is the accuracy-regression gate — the accuracy twin of
// cmd/benchdiff. It scores the core engine against the pinned,
// content-hashed evaluation corpus (eval.PinnedManifest: every
// compiler-style and adversarial profile), writes a dated JSON record and
// compares per-profile inst-F1, byte-error and function-F1 against the
// last committed baseline. Accuracy is deterministic on a pinned corpus,
// so any regression beyond float tolerance fails the gate.
//
//	accdiff -dir .                       # gate against latest ACC_<date>.json
//	accdiff -dir . -write ACC_2026-08-07.json
//
// The baseline is the lexicographically latest ACC_<yyyy-mm-dd>.json in
// -dir (which is the chronologically latest, dates being ISO). A profile
// present in the baseline but missing from the current run is a failure:
// the corpus only ever grows.
//
// -disable deliberately turns off one analysis (stats, behavior,
// jumptables, prioritization) — the injected-regression hook the gate's
// own tests use to prove a real accuracy drop cannot pass.
//
// Exit codes: 0 ok (or -report-only), 1 regression past tolerance,
// 2 usage/IO error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"time"

	"probedis/internal/core"
	"probedis/internal/eval"
)

// ProfileScore is the accuracy record for one pinned profile.
type ProfileScore struct {
	Profile  string  `json:"profile"`
	Bytes    int     `json:"bytes"`
	Insts    int     `json:"insts"`
	ByteErr  float64 `json:"byte_err"`
	InstF1   float64 `json:"inst_f1"`
	ErrPer1k float64 `json:"err_per_1k"`
	FuncF1   float64 `json:"func_f1"`
}

// File is the persisted accuracy baseline.
type File struct {
	Date            string         `json:"date"`
	GoVersion       string         `json:"go_version"`
	ManifestVersion int            `json:"manifest_version"`
	Disabled        string         `json:"disabled,omitempty"`
	Profiles        []ProfileScore `json:"profiles"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("accdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	write := fs.String("write", "", "write current scores to this JSON file")
	dir := fs.String("dir", ".", "directory scanned for the latest ACC_<date>.json baseline")
	baselinePath := fs.String("baseline", "", "explicit baseline JSON (overrides -dir scan)")
	tolerance := fs.Float64("tolerance", 1e-9, "max tolerated absolute metric regression")
	reportOnly := fs.Bool("report-only", false, "print the comparison but always exit 0")
	disable := fs.String("disable", "", "disable one analysis: stats, behavior, jumptables or prioritization (regression-injection hook)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "usage: accdiff [-write f.json] [-dir d | -baseline f] [-tolerance x] [-report-only] [-disable analysis]")
		return 2
	}

	var opts []core.Option
	switch *disable {
	case "":
	case "stats":
		opts = append(opts, core.WithoutStats())
	case "behavior":
		opts = append(opts, core.WithoutBehavior())
	case "jumptables":
		opts = append(opts, core.WithoutJumpTables())
	case "prioritization":
		opts = append(opts, core.WithoutPrioritization())
	default:
		fmt.Fprintf(stderr, "accdiff: unknown -disable %q (want stats, behavior, jumptables or prioritization)\n", *disable)
		return 2
	}

	cur, err := score(*disable, opts)
	if err != nil {
		fmt.Fprintln(stderr, "accdiff:", err)
		return 2
	}

	base, basePath, err := loadBaseline(*baselinePath, *dir)
	if err != nil {
		fmt.Fprintln(stderr, "accdiff:", err)
		return 2
	}

	regressed := false
	if base == nil {
		fmt.Fprintln(stdout, "accdiff: no baseline found; this run becomes the first baseline")
		report(stdout, nil, cur.Profiles, *tolerance)
	} else {
		if base.ManifestVersion != cur.ManifestVersion {
			fmt.Fprintf(stderr, "accdiff: baseline %s scored corpus v%d, current is v%d — re-record the baseline\n",
				basePath, base.ManifestVersion, cur.ManifestVersion)
			return 2
		}
		fmt.Fprintf(stdout, "accdiff: comparing against %s (tolerance %g on inst-F1, byte-err, func-F1)\n",
			basePath, *tolerance)
		regressed = report(stdout, base.Profiles, cur.Profiles, *tolerance)
	}

	if *write != "" {
		buf, err := json.MarshalIndent(cur, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "accdiff:", err)
			return 2
		}
		if err := os.WriteFile(*write, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, "accdiff:", err)
			return 2
		}
		fmt.Fprintf(stdout, "accdiff: wrote %s (%d profiles)\n", *write, len(cur.Profiles))
	}
	if regressed && !*reportOnly {
		return 1
	}
	return 0
}

// score builds the pinned corpus (verifying every content hash) and runs
// the core engine over each profile's slice.
func score(disabled string, opts []core.Option) (*File, error) {
	corpus, err := eval.PinnedManifest().Build()
	if err != nil {
		return nil, err
	}
	d := core.New(core.DefaultModel(), opts...)
	f := &File{
		Date:            time.Now().UTC().Format(time.RFC3339),
		GoVersion:       runtime.Version(),
		ManifestVersion: eval.ManifestVersion,
		Disabled:        disabled,
	}
	for _, pc := range corpus {
		m := eval.ScoreCorpus(d, pc.Binaries)
		f.Profiles = append(f.Profiles, ProfileScore{
			Profile:  pc.Profile,
			Bytes:    m.Bytes,
			Insts:    m.TrueInsts,
			ByteErr:  m.ByteErrRate(),
			InstF1:   m.InstF1(),
			ErrPer1k: m.ErrorFactor(),
			FuncF1:   m.FuncF1(),
		})
	}
	return f, nil
}

// loadBaseline resolves the comparison baseline: an explicit file, or the
// latest dated ACC file in dir (which may be the write target itself — a
// same-day rerun compares against the committed content before
// overwriting). Returns nil when there is no baseline yet.
func loadBaseline(explicit, dir string) (*File, string, error) {
	path := explicit
	if path == "" {
		var err error
		path, err = latestAccFile(dir)
		if err != nil || path == "" {
			return nil, "", err
		}
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	var f File
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, "", fmt.Errorf("%s: %w", path, err)
	}
	return &f, path, nil
}

var accFileRe = regexp.MustCompile(`^ACC_\d{4}-\d{2}-\d{2}\.json$`)

// latestAccFile returns the lexicographically (= chronologically) latest
// ACC_<yyyy-mm-dd>.json in dir, or "" when none exists.
func latestAccFile(dir string) (string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && accFileRe.MatchString(e.Name()) {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return "", nil
	}
	sort.Strings(names)
	return filepath.Join(dir, names[len(names)-1]), nil
}

// report prints the per-profile comparison and returns whether any metric
// regresses past tolerance: inst-F1 or func-F1 dropping, or byte-err
// rising. A profile missing from the current run is a failure — the
// pinned corpus only grows — while a new profile is informational.
func report(w io.Writer, old, cur []ProfileScore, tolerance float64) bool {
	byName := map[string]ProfileScore{}
	for _, p := range old {
		byName[p.Profile] = p
	}
	regressed := false
	for _, p := range cur {
		o, ok := byName[p.Profile]
		if !ok {
			fmt.Fprintf(w, "  %-16s inst-F1 %.6f  byte-err %.6f  func-F1 %.6f  (new profile)\n",
				p.Profile, p.InstF1, p.ByteErr, p.FuncF1)
			continue
		}
		delete(byName, p.Profile)
		status := "ok"
		if p.InstF1 < o.InstF1-tolerance || p.ByteErr > o.ByteErr+tolerance || p.FuncF1 < o.FuncF1-tolerance {
			status = "REGRESSION"
			regressed = true
		}
		fmt.Fprintf(w, "  %-16s inst-F1 %.6f -> %.6f  byte-err %.6f -> %.6f  func-F1 %.6f -> %.6f  %s\n",
			p.Profile, o.InstF1, p.InstF1, o.ByteErr, p.ByteErr, o.FuncF1, p.FuncF1, status)
	}
	var gone []string
	for name := range byName {
		gone = append(gone, name)
	}
	sort.Strings(gone)
	for _, name := range gone {
		fmt.Fprintf(w, "  %-16s MISSING from current run\n", name)
		regressed = true
	}
	return regressed
}
