package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"probedis/internal/core"
	"probedis/internal/elfx"
	"probedis/internal/synth"
)

func TestPercentileSampleRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{999, 0.99, false}, {1000, 0.99, true}, {99, 0.9, false}, {100, 0.9, true}, {20, 0.5, true},
	} {
		if got := supports(c.n, c.q); got != c.want {
			t.Errorf("supports(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	names := func(n int) []string {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		var out []string
		for _, m := range tail("lat", xs) {
			out = append(out, m.name)
		}
		return out
	}
	for n, want := range map[int][]string{
		50:   {"lat_p50_ms"},
		999:  {"lat_p50_ms", "lat_p90_ms"},
		1000: {"lat_p50_ms", "lat_p99_ms"},
	} {
		if got := names(n); !reflect.DeepEqual(got, want) {
			t.Errorf("tail over %d samples reports %v, want %v", n, got, want)
		}
	}
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if p := percentile(sorted(xs), 0.9); p != 9 {
		t.Errorf("p90 of 1..10 = %v, want 9 (nearest rank)", p)
	}
	if m := median(xs); m != 5.5 {
		t.Errorf("median of 1..10 = %v, want 5.5", m)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v, want 2.75, 8.25", q1, q3)
	}
}

// TestOpenLoopTimesFromDue stalls the first request of an open loop on a
// single connection: every later request falls due during the stall, so
// its latency — counted from its due time, not from when it was sent —
// must include the wait, and the generator must report itself late.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const stall = 200 * time.Millisecond
	release := make(chan struct{})
	var served atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == 1 {
			<-release
		}
		w.Write([]byte("ok"))
	}))
	defer srv.Close()
	stalled := time.AfterFunc(stall, func() { close(release) })
	defer stalled.Stop()
	client := newClient()
	defer client.CloseIdleConnections()
	due := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	lr := openLoop(due, 1, 0, nil, nil,
		func(int) []byte { return []byte("elf") },
		func(_ int, body []byte) sample {
			return post(client, srv.URL, body, false, []byte("ok"))
		})
	if len(lr.samples) != len(due) {
		t.Fatalf("%d samples, want %d", len(lr.samples), len(due))
	}
	for _, s := range lr.samples {
		if s.err != nil {
			t.Fatal(s.err)
		}
		if s.lat < stall-due[len(due)-1]-5*time.Millisecond {
			t.Errorf("latency %v does not include the stall", s.lat)
		}
	}
	var late time.Duration
	for _, s := range lr.samples {
		late = max(late, s.late)
	}
	if late < stall-20*time.Millisecond {
		t.Errorf("generator lateness %v, want about %v", late, stall)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "a", Start: 20, End: 50},  // overlaps its sibling
		{ID: 4, Parent: 1, Name: "b", Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 4, Name: "c", Start: 95, End: 105},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 40 - 10, 2: 20, 3: 30, 4: 30 - 10, 5: 10}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	byName := selfByName(spans)
	if byName["a"] != 50 || byName["root"] != 50 {
		t.Errorf("self by name %v", byName)
	}
}

// TestReplayMatchesPipeline pins that the layer-by-layer replay computes
// exactly what core.DisassembleELF computes, on every profile and on a
// multi-section image, so per-layer numbers describe the real pipeline.
func TestReplayMatchesPipeline(t *testing.T) {
	model := core.DefaultModel()
	ims, err := corpusImages(7, len(synth.AllProfiles()), []int{40}, false)
	if err != nil {
		t.Fatal(err)
	}
	imgs := [][]byte{}
	for _, im := range ims {
		imgs = append(imgs, im.elf)
	}
	imgs = append(imgs, multiSection(t))
	d := core.New(model)
	p := &replayer{tr: newTracer(), model: model}
	for i, img := range imgs {
		want, err := d.DisassembleELF(img)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.image(img, i)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("image %d: replay differs from core.DisassembleELF", i)
		}
	}
	if p.sectionBytes == 0 || p.blocks == 0 {
		t.Errorf("replay counted no work: %+v", p)
	}
}

// multiSection builds an image with two text sections that branch into
// each other's address range, exercising extern ranges and entry offsets.
func multiSection(t *testing.T) []byte {
	var bld elfx.Builder
	addr := uint64(0x401000)
	for i, p := range []synth.Profile{synth.ProfileO2, synth.ProfileComplex} {
		bin, err := synth.Generate(synth.Config{Seed: int64(50 + i), Profile: p, NumFuncs: 30, Base: addr})
		if err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			bld.Entry = bin.Entry
		}
		bld.AddSection(fmt.Sprintf(".text%d", i), addr, elfx.SHFAlloc|elfx.SHFExecinstr, bin.Code)
		addr = (addr + uint64(len(bin.Code)) + 0xfff) &^ 0xfff
	}
	img, err := bld.Write()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestTrainedModelIsDefault(t *testing.T) {
	if !reflect.DeepEqual(core.TrainModel(trainSeed, trainBinaries, trainFuncs), core.DefaultModel()) {
		t.Fatal("set-up trains a different model than core.DefaultModel")
	}
}

func TestVariantKeepsResponse(t *testing.T) {
	ims, err := corpusImages(3, 1, []int{40}, true)
	if err != nil {
		t.Fatal(err)
	}
	im := ims[0]
	refs, err := referenceBodies(core.New(core.DefaultModel()), []*image{im, {elf: im.variant(42)}})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(im.elf, im.variant(42)) {
		t.Fatal("nonce does not change the image")
	}
	if !bytes.Equal(refs[0], refs[1]) {
		t.Fatal("a nonce variant answers differently from its base image")
	}
}

// benchmarkDef is the part of BENCHMARK.json the tests check.
type benchmarkDef struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

func loadBenchmarkDef(t *testing.T) benchmarkDef {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var def benchmarkDef
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	return def
}

func names[T any](xs []T, name func(T) string) []string {
	var out []string
	for _, x := range xs {
		out = append(out, name(x))
	}
	sort.Strings(out)
	return out
}

// TestSmokeAllWorkloads runs every workload briefly at smoke sizes, once
// untraced and once traced, and checks each run is correct and reports
// exactly the metrics BENCHMARK.json declares.
func TestSmokeAllWorkloads(t *testing.T) {
	def := loadBenchmarkDef(t)
	defName := func(x struct{ Name string }) string { return x.Name }
	if got, want := names(workloads, func(w *workload) string { return w.name }), names(def.Workloads, defName); !reflect.DeepEqual(got, want) {
		t.Fatalf("workloads %v, BENCHMARK.json declares %v", got, want)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o := &options{workload: w.name, seed: 1, dur: 400 * time.Millisecond, trace: traced, short: true, workdir: t.TempDir()}
			res, err := run(o, w)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s trace=%v: attempted=%d failed=%d", w.name, traced, res.attempted, res.failed)
			}
			want := names(def.EndToEnd, defName)
			if traced {
				want = names(def.PerLayer, defName)
			}
			if got := names(res.metrics, func(m metric) string { return m.name }); !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%v reports %v, BENCHMARK.json declares %v", w.name, traced, got, want)
			}
			for _, m := range res.metrics {
				if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
					t.Errorf("%s: %s = %v", w.name, m.name, m.value)
				}
			}
			if _, err := res.contractJSON(); err != nil {
				t.Error(err)
			}
		}
	}
}

func TestJudge(t *testing.T) {
	lower := bound{rel: 0.1}
	steady := []float64{100, 100, 101, 99, 100}
	for _, c := range []struct {
		name       string
		b          bound
		base, cand []float64
		want       string
	}{
		{"same", lower, steady, []float64{101, 100, 99, 100, 102}, "unchanged"},
		{"slower", lower, steady, []float64{120, 121, 119, 122, 120}, "worse"},
		{"faster", lower, steady, []float64{80, 81, 79, 80, 82}, "better"},
		{"noisy", lower, steady, []float64{70, 130, 100, 90, 115}, "unresolved"},
		{"noisy but always faster", lower, steady, []float64{50, 90, 60, 85, 70}, "better"},
		{"higher is better", bound{higherBetter: true, rel: 0.1}, steady, []float64{80, 81, 79, 80, 82}, "worse"},
		{"absolute", bound{abs: 0.5}, []float64{0, 0, 0}, []float64{1, 1, 1}, "worse"},
	} {
		if got := judge(c.b, c.base, c.cand).outcome; got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

var testMachine = machine{NumCPU: 2, GOMAXPROCS: 2, GOARCH: "amd64", GoVersion: "go1.22.0", CalibNsOp: 1.0}

// writeRunFile writes a run file of one run per record into dir.
func writeRunFile(t *testing.T, dir, name string, m machine, recs ...runRecord) string {
	b, err := json.Marshal(runFile{Machine: m, Runs: recs})
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCompareRefusesOtherMachine(t *testing.T) {
	dir := t.TempDir()
	rec := runRecord{Workload: "serve-mixed", Metrics: map[string]recMetric{"latency_p50_ref_ms": {Value: 1}}}
	a := writeRunFile(t, dir, "a.json", testMachine, rec)
	bench := filepath.Join("..", "BENCHMARK.json")
	var out bytes.Buffer
	if ok, err := compareFiles(bench, a, writeRunFile(t, dir, "same.json", testMachine, rec), &out); err != nil || !ok {
		t.Fatalf("same machine: ok=%v err=%v\n%s", ok, err, out.String())
	}
	for name, change := range map[string]func(*machine){
		"cpus":  func(m *machine) { m.NumCPU = 4 },
		"calib": func(m *machine) { m.CalibNsOp = 1.2 },
		"go":    func(m *machine) { m.GoVersion = "go1.23.0" },
	} {
		m := testMachine
		change(&m)
		_, err := compareFiles(bench, a, writeRunFile(t, dir, name+".json", m, rec), &out)
		if err == nil || !strings.Contains(err.Error(), "different machines") {
			t.Errorf("%s: err = %v, want a refusal", name, err)
		}
	}
}

// TestCompareReportsMissingPairs pins that a partial run file does not
// pass for an unchanged one: a bounded pair only one side reports is
// missing and fails the comparison, whichever side lacks it.
func TestCompareReportsMissingPairs(t *testing.T) {
	dir := t.TempDir()
	full := []runRecord{
		{Workload: "offline-corpus", Metrics: map[string]recMetric{"latency_p50_ref_ms": {Value: 2}, "setup_s": {Value: 1}}},
		{Workload: "serve-mixed", Metrics: map[string]recMetric{"latency_p50_ref_ms": {Value: 1}}},
	}
	partial := []runRecord{{Workload: "offline-corpus", Metrics: map[string]recMetric{"latency_p50_ref_ms": {Value: 2}}}}
	a := writeRunFile(t, dir, "full.json", testMachine, full...)
	b := writeRunFile(t, dir, "partial.json", testMachine, partial...)
	bench := filepath.Join("..", "BENCHMARK.json")
	for _, files := range [][2]string{{a, b}, {b, a}} {
		var out bytes.Buffer
		ok, err := compareFiles(bench, files[0], files[1], &out)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Errorf("%s vs %s passed:\n%s", files[0], files[1], out.String())
		}
		for _, want := range []string{"setup_s", "serve-mixed", "missing", "note: serve-mixed has"} {
			if !strings.Contains(out.String(), want) {
				t.Errorf("output lacks %q:\n%s", want, out.String())
			}
		}
	}
}

// TestGitCommitFollowsGitdir reads the commit through a worktree's .git
// file, its commondir and packed refs, as well as from a plain .git.
func TestGitCommitFollowsGitdir(t *testing.T) {
	const sha = "0123456789abcdef0123456789abcdef01234567"
	root := t.TempDir()
	write := func(path, s string) {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(s), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	repo := filepath.Join(root, "main")
	write(filepath.Join(repo, ".git", "HEAD"), "ref: refs/heads/main\n")
	write(filepath.Join(repo, ".git", "packed-refs"), "# pack-refs with: peeled\n"+sha+" refs/heads/main\n")
	write(filepath.Join(repo, ".git", "worktrees", "wt", "HEAD"), "ref: refs/heads/main\n")
	write(filepath.Join(repo, ".git", "worktrees", "wt", "commondir"), "../..\n")
	wt := filepath.Join(root, "wt")
	write(filepath.Join(wt, ".git"), "gitdir: "+filepath.Join(repo, ".git", "worktrees", "wt")+"\n")
	for _, dir := range []string{repo, wt} {
		if got := gitCommit(dir); got != sha {
			t.Errorf("gitCommit(%s) = %q, want %q", dir, got, sha)
		}
	}
	if got := gitCommit(t.TempDir()); got != "unknown" {
		t.Errorf("outside a repository: %q", got)
	}
}
