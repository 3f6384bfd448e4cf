package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: probedis
cpu: Some CPU
BenchmarkT1InstF1-8          	      10	 120000000 ns/op	 5000000 B/op	   40000 allocs/op
BenchmarkT5Throughput-8      	       5	 200000000 ns/op	  52.40 MB/s	 9000000 B/op	   80000 allocs/op
BenchmarkObsDisabled         	  100000	     12345 ns/op	    1024 B/op	      12 allocs/op
--- some unrelated line
PASS
ok  	probedis	3.210s
`

func TestParseBench(t *testing.T) {
	benches, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if len(benches) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %+v", len(benches), benches)
	}
	b := benches[0]
	if b.Name != "BenchmarkT1InstF1" || b.Runs != 10 || b.NsOp != 120000000 ||
		b.BytesOp != 5000000 || b.AllocsOp != 40000 {
		t.Errorf("first bench: %+v", b)
	}
	if benches[1].MBs != 52.40 {
		t.Errorf("MB/s not parsed: %+v", benches[1])
	}
	if benches[2].Name != "BenchmarkObsDisabled" { // no GOMAXPROCS suffix to strip
		t.Errorf("third bench: %+v", benches[2])
	}
}

func TestLatestBenchFile(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{
		"BENCH_2026-07-01.json", "BENCH_2026-08-05.json", "BENCH_smoke.json",
		"BENCH_2026-13-99.txt", "notes.md",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := latestBenchFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(dir, "BENCH_2026-08-05.json"); got != want {
		t.Errorf("latest = %q, want %q", got, want)
	}

	empty := t.TempDir()
	got, err = latestBenchFile(empty)
	if err != nil || got != "" {
		t.Errorf("empty dir: got %q, err %v", got, err)
	}
}

// writeBaseline writes a baseline recorded on this machine, so ns/op is
// compared against it.
func writeBaseline(t *testing.T, dir, name string, benches []Bench) {
	t.Helper()
	writeBaselineFile(t, dir, name, File{
		Date: "2026-07-01T00:00:00Z", GoVersion: runtime.Version(), GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), Benchmarks: benches,
	})
}

func writeBaselineFile(t *testing.T, dir, name string, f File) {
	t.Helper()
	buf, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestRunNoBaselineWritesFirst(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "BENCH_2026-08-05.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-dir", dir, "-write", out},
		strings.NewReader(sampleBench), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "no baseline found") {
		t.Errorf("stdout: %s", stdout.String())
	}
	buf, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var f File
	if err := json.Unmarshal(buf, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Benchmarks) != 3 || f.GoVersion == "" {
		t.Errorf("written file: %+v", f)
	}
}

func TestRunRegressionFails(t *testing.T) {
	dir := t.TempDir()
	writeBaseline(t, dir, "BENCH_2026-07-01.json", []Bench{
		{Name: "BenchmarkT1InstF1", NsOp: 60000000, AllocsOp: 40000}, // current is 2x slower
		{Name: "BenchmarkGone", NsOp: 100},
	})
	var stdout, stderr bytes.Buffer
	code := run([]string{"-dir", dir}, strings.NewReader(sampleBench), &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout: %s", code, stdout.String())
	}
	out := stdout.String()
	for _, want := range []string{"REGRESSION", "(new benchmark)", "(removed)"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestRunRegressionReportOnly(t *testing.T) {
	dir := t.TempDir()
	writeBaseline(t, dir, "BENCH_2026-07-01.json", []Bench{
		{Name: "BenchmarkT1InstF1", NsOp: 60000000},
	})
	var stdout, stderr bytes.Buffer
	code := run([]string{"-dir", dir, "-report-only"},
		strings.NewReader(sampleBench), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d, want 0 in report-only mode", code)
	}
	if !strings.Contains(stdout.String(), "REGRESSION") {
		t.Errorf("report-only still reports:\n%s", stdout.String())
	}
}

func TestRunWithinThresholdPasses(t *testing.T) {
	dir := t.TempDir()
	writeBaseline(t, dir, "BENCH_2026-07-01.json", []Bench{
		{Name: "BenchmarkT1InstF1", NsOp: 110000000}, // +9.1%, under 15%
		{Name: "BenchmarkT5Throughput", NsOp: 210000000},
		{Name: "BenchmarkObsDisabled", NsOp: 12000},
	})
	var stdout, stderr bytes.Buffer
	code := run([]string{"-dir", dir}, strings.NewReader(sampleBench), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout: %s", code, stdout.String())
	}
	if strings.Contains(stdout.String(), "REGRESSION") {
		t.Errorf("unexpected regression:\n%s", stdout.String())
	}
}

func TestRunMemoryRegressionFails(t *testing.T) {
	// ns/op is flat but B/op doubled: the memory gate alone must fail.
	dir := t.TempDir()
	writeBaseline(t, dir, "BENCH_2026-07-01.json", []Bench{
		{Name: "BenchmarkT1InstF1", NsOp: 120000000, BytesOp: 2500000, AllocsOp: 40000},
	})
	var stdout, stderr bytes.Buffer
	code := run([]string{"-dir", dir}, strings.NewReader(sampleBench), &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (bytes_op regression)\nstdout: %s", code, stdout.String())
	}
}

func TestRunAllocsRegressionFails(t *testing.T) {
	dir := t.TempDir()
	writeBaseline(t, dir, "BENCH_2026-07-01.json", []Bench{
		{Name: "BenchmarkT1InstF1", NsOp: 120000000, BytesOp: 5000000, AllocsOp: 30000},
	})
	var stdout, stderr bytes.Buffer
	code := run([]string{"-dir", dir}, strings.NewReader(sampleBench), &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (allocs_op regression)\nstdout: %s", code, stdout.String())
	}
}

func TestRunMissingMemoryBaselineIsNotRegression(t *testing.T) {
	// Baselines predating -benchmem have no B/op or allocs/op fields; the
	// memory gate must not fire against a zero denominator.
	dir := t.TempDir()
	writeBaseline(t, dir, "BENCH_2026-07-01.json", []Bench{
		{Name: "BenchmarkT1InstF1", NsOp: 120000000},
		{Name: "BenchmarkT5Throughput", NsOp: 200000000},
		{Name: "BenchmarkObsDisabled", NsOp: 12345},
	})
	var stdout, stderr bytes.Buffer
	code := run([]string{"-dir", dir}, strings.NewReader(sampleBench), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout: %s", code, stdout.String())
	}
	if !strings.Contains(stdout.String(), "n/a") {
		t.Errorf("missing-baseline metrics should print n/a:\n%s", stdout.String())
	}
}

func TestRunExplicitBaseline(t *testing.T) {
	dir := t.TempDir()
	writeBaseline(t, dir, "BENCH_2026-01-01.json", []Bench{
		{Name: "BenchmarkT1InstF1", NsOp: 1}, // would regress vs this
	})
	clean := filepath.Join(dir, "clean.json")
	writeBaseline(t, dir, "clean.json", []Bench{
		{Name: "BenchmarkT1InstF1", NsOp: 120000000},
	})
	var stdout, stderr bytes.Buffer
	code := run([]string{"-baseline", clean}, strings.NewReader(sampleBench), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("explicit baseline ignored: exit = %d\n%s", code, stdout.String())
	}
}

func TestRunUsageErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"positional"}, strings.NewReader(""), &stdout, &stderr); code != 2 {
		t.Errorf("positional arg: exit = %d, want 2", code)
	}
	if code := run([]string{"-bad-flag"}, strings.NewReader(""), &stdout, &stderr); code != 2 {
		t.Errorf("bad flag: exit = %d, want 2", code)
	}
	if code := run(nil, strings.NewReader("no benchmarks here"), &stdout, &stderr); code != 2 {
		t.Errorf("empty input: exit = %d, want 2", code)
	}
}

// TestRunMachineFingerprint: a baseline from another machine (CPU count,
// GOARCH or Go version, or none recorded) gets no ns/op comparison, and
// the report names what differs; B/op and allocs/op still gate.
func TestRunMachineFingerprint(t *testing.T) {
	slow := Bench{Name: "BenchmarkT1InstF1", NsOp: 60000000, BytesOp: 5000000, AllocsOp: 40000} // current is 2x slower
	here := File{GoVersion: runtime.Version(), GOARCH: runtime.GOARCH, NumCPU: runtime.NumCPU()}
	for _, c := range []struct {
		name     string
		edit     func(f *File)
		bench    Bench
		wantCode int
		wantOut  string
	}{
		{"same machine gates ns/op", func(f *File) {}, slow, 1, "REGRESSION"},
		{"other CPU count", func(f *File) { f.NumCPU++ }, slow, 0, "num_cpu"},
		{"other architecture", func(f *File) { f.GOARCH = "riscv64" }, slow, 0, "goarch"},
		{"other Go version", func(f *File) { f.GoVersion = "go1.0" }, slow, 0, "go_version"},
		{"no fingerprint recorded", func(f *File) { *f = File{} }, slow, 0, "num_cpu 0"},
		{"other machine, B/op regression", func(f *File) { f.NumCPU++ },
			Bench{Name: "BenchmarkT1InstF1", NsOp: 120000000, BytesOp: 2500000, AllocsOp: 40000}, 1, "REGRESSION"},
		{"other machine, allocs/op regression", func(f *File) { f.NumCPU++ },
			Bench{Name: "BenchmarkT1InstF1", NsOp: 120000000, BytesOp: 5000000, AllocsOp: 30000}, 1, "REGRESSION"},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			f := here
			c.edit(&f)
			f.Benchmarks = []Bench{c.bench}
			writeBaselineFile(t, dir, "BENCH_2026-07-01.json", f)
			var stdout, stderr bytes.Buffer
			code := run([]string{"-dir", dir}, strings.NewReader(sampleBench), &stdout, &stderr)
			if code != c.wantCode || !strings.Contains(stdout.String(), c.wantOut) {
				t.Fatalf("exit = %d, want %d, and output must name %q:\n%s", code, c.wantCode, c.wantOut, stdout.String())
			}
		})
	}
}
