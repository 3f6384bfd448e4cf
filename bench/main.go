// Command bench is the repository benchmark: four workloads that drive
// the disassembly pipeline as a library and as the disasmd service,
// measured end to end (untraced) or layer by layer (traced). See
// README.md for the workloads, the metric vocabulary and how to compare
// two runs.
//
//	go run ./bench -seed 1 -out run.json              every workload, one child process each
//	go run ./bench -workload serve-mixed -trace 1     one workload, per-layer metrics
//	go run ./bench -compare base.json new.json        apply the bounds in BENCHMARK.json
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() {
	var (
		o       options
		seconds = flag.Int("seconds", 20, "measured seconds per run, after warm-up")
		trace   = flag.Int("trace", 0, "1: replay the layers and report per-layer metrics")
		out     = flag.String("out", "", "with no -workload: write every run to this JSON file")
		runs    = flag.Int("runs", 1, "with no -workload: runs per workload, first-run order alternating")
		cmp     = flag.String("compare", "", "baseline run file; compare it with the run file given as argument")
		bjson   = flag.String("benchmark", "BENCHMARK.json", "benchmark definition holding the bounds -compare applies")
	)
	flag.StringVar(&o.workload, "workload", "", "run one workload (default: all, each in its own process)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "directory for temp stores, spools and span dumps")
	flag.Parse()
	// One processor. The two virtual CPUs of the machine the benchmark was
	// defined on often shared one host CPU: two threads running together
	// for less than about a second each ran at half speed, so a parallel
	// speed-up measured there is the host scheduler's, not the program's.
	// On one processor the reference passes also see the machine the
	// workload sees.
	runtime.GOMAXPROCS(1)
	o.dur = time.Duration(*seconds) * time.Second
	o.trace = *trace == 1

	var err error
	switch {
	case *cmp != "":
		if flag.NArg() != 1 {
			err = errors.New("usage: bench -compare base.json new.json")
			break
		}
		var ok bool
		ok, err = compareFiles(*bjson, *cmp, flag.Arg(0), os.Stdout)
		if err == nil && !ok {
			os.Exit(1)
		}
	case flag.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds < 1:
		err = errors.New("usage: bench [-workload name] [-seed n] [-seconds n] [-trace 0|1] [-out run.json] [-runs n]")
	case o.workload != "":
		err = runOne(&o, os.Stdout)
	default:
		err = runAll(&o, *seconds, *runs, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
}

// runOne runs one workload and prints every metric, one per line, then
// the result as a single JSON line.
func runOne(o *options, w io.Writer) error {
	wl, ok := workloadByName(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return err
	}
	res, err := run(o, wl)
	if err != nil {
		return err
	}
	for _, m := range append(res.metrics, res.extra...) {
		fmt.Fprintf(w, "%s %s %s %s n=%d\n", wl.name, m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit, m.n)
	}
	line, err := res.contractJSON()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	return nil
}

// run prepares a workload and runs it untraced or traced.
func run(o *options, wl *workload) (*result, error) {
	r, setups, err := prepare(o, wl)
	if err != nil {
		return nil, err
	}
	defer r.env.close()
	if o.trace {
		return r.traced()
	}
	return r.endToEnd(setups)
}

// contractJSON is the last output line: correctness, operation counts
// and the contract metrics (end-to-end or per-layer), each checked to be
// present and finite.
func (r *result) contractJSON() ([]byte, error) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]val{}
	for _, m := range r.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		ms[m.name] = val{m.value, m.unit}
	}
	return json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, ms})
}

// runFile is what -out writes: every run of every workload, with the
// machine it ran on.
type runFile struct {
	Machine machine     `json:"machine"`
	Commit  string      `json:"commit"`
	Seed    int64       `json:"seed"`
	Seconds int         `json:"seconds"`
	Trace   int         `json:"trace"`
	Runs    []runRecord `json:"runs"`
}

type runRecord struct {
	Workload  string               `json:"workload"`
	Rep       int                  `json:"rep"`
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]recMetric `json:"metrics"`
}

type recMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// runAll runs every workload runs times, each run in a fresh child
// process so set-up includes model training and peak heap starts from
// nothing. Odd repetitions run the workloads in reverse order.
func runAll(o *options, seconds, runs int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	rf := runFile{Machine: fingerprint(), Commit: gitCommit("."), Seed: o.seed, Seconds: seconds, Trace: boolInt(o.trace)}
	if out != "" && rf.Commit == "unknown" {
		fmt.Fprintln(os.Stderr, "bench: warning: no git checkout here, so the run file cannot say which commit it measured")
	}
	bad := 0
	for rep := 0; rep < runs; rep++ {
		for k := range workloads {
			wl := workloads[k]
			if rep%2 == 1 {
				wl = workloads[len(workloads)-1-k]
			}
			args := []string{"-workload", wl.name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(seconds),
				"-trace", fmt.Sprint(boolInt(o.trace)), "-workdir", o.workdir}
			// The machine's speed wanders over minutes; calibrating before
			// every run and keeping the fastest describes the machine, not
			// the moment the set started.
			rf.Machine.CalibNsOp = min(rf.Machine.CalibNsOp, calibrate())
			rec, err := runChild(self, args)
			if err != nil {
				return fmt.Errorf("%s: %w", wl.name, err)
			}
			rec.Workload, rec.Rep = wl.name, rep
			if !rec.Correct {
				bad++
			}
			rf.Runs = append(rf.Runs, rec)
		}
	}
	if out != "" {
		b, err := json.MarshalIndent(rf, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d run(s) produced incorrect output", bad)
	}
	return nil
}

// runChild runs one workload in a child process, echoing its output, and
// reads the metric lines and the final JSON line back.
func runChild(self string, args []string) (runRecord, error) {
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	var buf bytes.Buffer
	cmd.Stdout = io.MultiWriter(os.Stdout, &buf)
	if err := cmd.Run(); err != nil {
		return runRecord{}, err
	}
	rec := runRecord{Metrics: map[string]recMetric{}}
	var last string
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		last = sc.Text()
		f := strings.Fields(last)
		if len(f) != 5 || !strings.HasPrefix(f[4], "n=") {
			continue
		}
		v, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			return rec, fmt.Errorf("bad metric line %q", last)
		}
		n, _ := strconv.Atoi(strings.TrimPrefix(f[4], "n="))
		rec.Metrics[f[1]] = recMetric{Value: v, Unit: f[3], N: n}
	}
	var res struct {
		Correct           bool
		Attempted, Failed int
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return rec, fmt.Errorf("reading result line: %w", err)
	}
	rec.Correct, rec.Attempted, rec.Failed = res.Correct, res.Attempted, res.Failed
	return rec, nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// gitCommit reads the checked-out commit from dir/.git without running
// git, or returns "unknown" outside a repository. A .git file (worktree,
// submodule) points at the real git directory with a "gitdir:" line, and
// a worktree's git directory names the one holding the refs in
// "commondir".
func gitCommit(dir string) string {
	gitDir := filepath.Join(dir, ".git")
	if b, err := os.ReadFile(gitDir); err == nil {
		p, ok := strings.CutPrefix(strings.TrimSpace(string(b)), "gitdir: ")
		if !ok {
			return "unknown"
		}
		gitDir = relTo(dir, p)
	}
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return ref
	}
	refDir := gitDir
	if b, err := os.ReadFile(filepath.Join(gitDir, "commondir")); err == nil {
		refDir = relTo(gitDir, strings.TrimSpace(string(b)))
	}
	if b, err := os.ReadFile(filepath.Join(refDir, ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(refDir, "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// relTo resolves path p, as written in a file of directory dir.
func relTo(dir, p string) string {
	if filepath.IsAbs(p) {
		return p
	}
	return filepath.Join(dir, p)
}
