// Command benchdiff is the benchmark-regression gate: it parses `go test
// -bench` output into a dated JSON baseline and compares it against the
// last committed baseline, failing on ns/op, B/op or allocs/op
// regressions beyond the threshold — time and memory wins are both locked
// in by the baseline.
//
//	go test -run='^$' -bench=. -benchmem . | benchdiff -write BENCH_2026-08-05.json -dir .
//
// The baseline is the lexicographically latest BENCH_<yyyy-mm-dd>.json in
// -dir (which is the chronologically latest, dates being ISO). When the
// latest file is the -write target itself (same-day rerun), its committed
// content is the baseline and is compared before being overwritten.
//
// ns/op is compared only against a baseline recorded on a machine with
// the same fingerprint: CPU count, GOARCH and Go version. Otherwise the
// report says which of them differ and gates only B/op and allocs/op,
// which do not depend on the machine's speed.
//
// Exit codes: 0 ok (or -report-only), 1 regression past threshold,
// 2 usage/IO error.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Bench is one benchmark result.
type Bench struct {
	Name     string             `json:"name"` // GOMAXPROCS suffix stripped
	Runs     int64              `json:"runs"`
	NsOp     float64            `json:"ns_op"`
	BytesOp  float64            `json:"bytes_op,omitempty"`
	AllocsOp float64            `json:"allocs_op,omitempty"`
	MBs      float64            `json:"mb_s,omitempty"`
	Metrics  map[string]float64 `json:"metrics,omitempty"` // custom b.ReportMetric units
}

// File is the persisted baseline.
type File struct {
	Date       string  `json:"date"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	NumCPU     int     `json:"num_cpu"`
	Benchmarks []Bench `json:"benchmarks"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "bench output to parse (default stdin)")
	write := fs.String("write", "", "write parsed results to this JSON file")
	dir := fs.String("dir", ".", "directory scanned for the latest BENCH_<date>.json baseline")
	baselinePath := fs.String("baseline", "", "explicit baseline JSON (overrides -dir scan)")
	threshold := fs.Float64("threshold", 15, "max tolerated ns/op, B/op or allocs/op regression in percent")
	reportOnly := fs.Bool("report-only", false, "print the comparison but always exit 0")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "usage: go test -bench=. | benchdiff [-write f.json] [-dir d | -baseline f] [-threshold pct] [-report-only]")
		return 2
	}

	src := stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintln(stderr, "benchdiff:", err)
			return 2
		}
		defer f.Close()
		src = f
	}
	benches, err := parseBench(src)
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	if len(benches) == 0 {
		fmt.Fprintln(stderr, "benchdiff: no benchmark results in input")
		return 2
	}
	cur := &File{
		Date:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		Benchmarks: benches,
	}

	base, basePath, err := loadBaseline(*baselinePath, *dir, *write)
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}

	regressed := false
	if base == nil {
		fmt.Fprintln(stdout, "benchdiff: no baseline found; this run becomes the first baseline")
	} else {
		fmt.Fprintf(stdout, "benchdiff: comparing against %s (threshold %+.0f%% ns/op, B/op, allocs/op)\n", basePath, *threshold)
		diff := machineDiff(base, cur)
		if diff != "" {
			fmt.Fprintf(stdout, "benchdiff: ns/op not compared, the baseline comes from another machine (%s); B/op and allocs/op still gate\n", diff)
		}
		regressed = report(stdout, base.Benchmarks, benches, *threshold, diff == "")
	}

	if *write != "" {
		buf, err := json.MarshalIndent(cur, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "benchdiff:", err)
			return 2
		}
		if err := os.WriteFile(*write, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, "benchdiff:", err)
			return 2
		}
		fmt.Fprintf(stdout, "benchdiff: wrote %s (%d benchmarks)\n", *write, len(benches))
	}
	if regressed && !*reportOnly {
		return 1
	}
	return 0
}

// loadBaseline resolves the comparison baseline: an explicit file, or the
// latest dated BENCH file in dir (which may be the write target itself).
// Returns nil when there is no baseline yet.
func loadBaseline(explicit, dir, writeTarget string) (*File, string, error) {
	path := explicit
	if path == "" {
		var err error
		path, err = latestBenchFile(dir)
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
	_ = writeTarget // same-day rerun: target content read above, before overwrite
	return &f, path, nil
}

var benchFileRe = regexp.MustCompile(`^BENCH_\d{4}-\d{2}-\d{2}\.json$`)

// latestBenchFile returns the lexicographically (= chronologically)
// latest BENCH_<yyyy-mm-dd>.json in dir, or "" when none exists.
func latestBenchFile(dir string) (string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && benchFileRe.MatchString(e.Name()) {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return "", nil
	}
	sort.Strings(names)
	return filepath.Join(dir, names[len(names)-1]), nil
}

// gomaxprocsSuffix strips the trailing "-<n>" GOMAXPROCS marker go test
// appends to benchmark names, so baselines recorded at different core
// counts still align by name.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// parseBench extracts benchmark result lines from `go test -bench` output.
func parseBench(r io.Reader) ([]Bench, error) {
	var out []Bench
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// name, N, then value/unit pairs.
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		runs, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		b := Bench{Name: gomaxprocsSuffix.ReplaceAllString(fields[0], ""), Runs: runs}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q in line %q", fields[i], line)
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				b.NsOp = v
			case "B/op":
				b.BytesOp = v
			case "allocs/op":
				b.AllocsOp = v
			case "MB/s":
				b.MBs = v
			default:
				if b.Metrics == nil {
					b.Metrics = map[string]float64{}
				}
				b.Metrics[unit] = v
			}
		}
		if b.NsOp > 0 {
			out = append(out, b)
		}
	}
	return out, sc.Err()
}

// machineDiff names the fingerprint fields on which the baseline and the
// current run differ, or returns "" when they match. A baseline that
// recorded no fingerprint differs on every field.
func machineDiff(base, cur *File) string {
	var diffs []string
	if base.NumCPU != cur.NumCPU {
		diffs = append(diffs, fmt.Sprintf("num_cpu %d, this run %d", base.NumCPU, cur.NumCPU))
	}
	if base.GOARCH != cur.GOARCH {
		diffs = append(diffs, fmt.Sprintf("goarch %q, this run %q", base.GOARCH, cur.GOARCH))
	}
	if base.GoVersion != cur.GoVersion {
		diffs = append(diffs, fmt.Sprintf("go_version %q, this run %q", base.GoVersion, cur.GoVersion))
	}
	return strings.Join(diffs, "; ")
}

// report prints the per-benchmark comparison and returns whether any
// gated metric regresses past threshold percent: B/op and allocs/op
// always, ns/op only when gateNs (same machine). A metric missing from
// the baseline (older files predate -benchmem capture, and an exact zero
// has no meaningful percentage) is informational only. Added and removed
// benchmarks are informational, never failures.
func report(w io.Writer, old, cur []Bench, threshold float64, gateNs bool) bool {
	byName := map[string]Bench{}
	for _, b := range old {
		byName[b.Name] = b
	}
	regressed := false
	for _, b := range cur {
		o, ok := byName[b.Name]
		if !ok {
			fmt.Fprintf(w, "  %-44s %12.0f ns/op  (new benchmark)\n", b.Name, b.NsOp)
			continue
		}
		delete(byName, b.Name)
		status := "ok"
		nsDelta, nsBad := "   skip", false
		if gateNs {
			nsDelta, nsBad = metricDelta(o.NsOp, b.NsOp, threshold)
		}
		bytesDelta, bytesBad := metricDelta(o.BytesOp, b.BytesOp, threshold)
		allocsDelta, allocsBad := metricDelta(o.AllocsOp, b.AllocsOp, threshold)
		if nsBad || bytesBad || allocsBad {
			status = "REGRESSION"
			regressed = true
		}
		fmt.Fprintf(w, "  %-44s %12.0f -> %12.0f ns/op  %s  bytes %s  allocs %s  %s\n",
			b.Name, o.NsOp, b.NsOp, nsDelta, bytesDelta, allocsDelta, status)
	}
	var gone []string
	for name := range byName {
		gone = append(gone, name)
	}
	sort.Strings(gone)
	for _, name := range gone {
		fmt.Fprintf(w, "  %-44s (removed)\n", name)
	}
	return regressed
}

// metricDelta formats the percent change of one metric and reports whether
// it regresses past threshold. A zero/absent baseline value cannot yield a
// percentage and never fails the gate.
func metricDelta(old, cur, threshold float64) (string, bool) {
	if old == 0 {
		return "    n/a", false
	}
	d := 100 * (cur - old) / old
	return fmt.Sprintf("%+7.1f%%", d), d > threshold
}
