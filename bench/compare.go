package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"
)

// machine fingerprints the box a run file came from. Runs from different
// fingerprints are never compared.
type machine struct {
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GOARCH     string  `json:"goarch"`
	GoVersion  string  `json:"go_version"`
	CalibNsOp  float64 `json:"calib_ns_op"`
}

func fingerprint() machine {
	return machine{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOARCH:     runtime.GOARCH,
		GoVersion:  runtime.Version(),
		CalibNsOp:  calibrate(),
	}
}

// calibSink keeps the calibration loop's result live.
var calibSink uint64

// calibrate times a fixed dependent integer loop and returns the fastest
// ns per iteration over several repetitions: a single-core speed figure
// that moves when the machine does, not when the code under test does.
// The fastest, because a shared machine only ever slows the loop down.
func calibrate() float64 {
	const iters = 1 << 22
	best := math.Inf(1)
	for rep := 0; rep < 9; rep++ {
		x := uint64(rep + 1)
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		best = min(best, float64(time.Since(t0))/iters)
		calibSink += x
	}
	return best
}

// maxCalibDrift is how far two calibrations may differ and still count
// as the same machine.
const maxCalibDrift = 0.10

// sameMachine explains why two fingerprints must not be compared, or
// returns "".
func sameMachine(a, b machine) string {
	switch {
	case a.NumCPU != b.NumCPU:
		return fmt.Sprintf("CPU count differs: %d vs %d", a.NumCPU, b.NumCPU)
	case a.GOMAXPROCS != b.GOMAXPROCS:
		return fmt.Sprintf("GOMAXPROCS differs: %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS)
	case a.GOARCH != b.GOARCH:
		return fmt.Sprintf("GOARCH differs: %s vs %s", a.GOARCH, b.GOARCH)
	case a.GoVersion != b.GoVersion:
		return fmt.Sprintf("Go version differs: %s vs %s", a.GoVersion, b.GoVersion)
	case a.CalibNsOp <= 0 || math.Abs(b.CalibNsOp/a.CalibNsOp-1) > maxCalibDrift:
		return fmt.Sprintf("calibration differs by more than %.0f%%: %.3f vs %.3f ns/op",
			100*maxCalibDrift, a.CalibNsOp, b.CalibNsOp)
	}
	return ""
}

// bound is how much a metric may worsen: a share of the baseline median
// (rel) or an absolute amount (abs).
type bound struct {
	higherBetter bool
	rel, abs     float64
}

// allowed is the worsening the bound tolerates from base.
func (b bound) allowed(base float64) float64 {
	if b.abs > 0 {
		return b.abs
	}
	return b.rel * math.Abs(base)
}

// extraBounds bound some of the numbers printed beside the contract
// metrics: output quality exactly, and the per-tier medians like the
// other medians. Tails are reported, not judged: a p99 of an open loop
// moves by half between runs of one commit on a shared machine.
var extraBounds = map[string]bound{
	"mem_hit_p50_ms":  {rel: 0.25},
	"disk_hit_p50_ms": {rel: 0.25},
	"miss_p50_ms":     {rel: 0.25},
	"fail_pct":        {abs: 0.5},
	"inst_f1":         {higherBetter: true, abs: 1e-9},
	"byte_err_pct":    {abs: 1e-9},
}

// benchmarkBounds reads the end-to-end bounds of a BENCHMARK.json.
func benchmarkBounds(path string) (map[string]bound, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def struct {
		EndToEnd []struct {
			Name   string  `json:"name"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]bound{}
	for k, v := range extraBounds {
		out[k] = v
	}
	for _, m := range def.EndToEnd {
		out[m.Name] = bound{higherBetter: m.Better == "higher", rel: m.Bound}
	}
	return out, nil
}

// verdict classifies one (workload, metric) pair of a comparison.
type verdict struct {
	workload, metric string
	base, cand       float64 // medians
	spread           float64 // larger interquartile spread of the two sides
	outcome          string  // better, unchanged, worse or unresolved
}

// judge compares the runs of one pair. Worse means the candidate median
// is worse than the baseline's by more than the bound. When the spread
// of either side's runs exceeds what the bound tolerates the pair is
// unresolved, unless every candidate run beats every baseline run.
func judge(b bound, base, cand []float64) verdict {
	mb, mc := median(base), median(cand)
	v := verdict{base: mb, cand: mc}
	worse := mc - mb
	if b.higherBetter {
		worse = -worse
	}
	tol := b.allowed(mb)
	noisy := false
	for _, side := range [][]float64{base, cand} {
		q1, q3 := quartiles(side)
		v.spread = max(v.spread, (q3-q1)/math.Abs(median(side)))
		noisy = noisy || q3-q1 > tol
	}
	switch {
	case noisy && !allBetter(b, base, cand):
		v.outcome = "unresolved"
	case worse > tol:
		v.outcome = "worse"
	case -worse > tol:
		v.outcome = "better"
	default:
		v.outcome = "unchanged"
	}
	return v
}

func allBetter(b bound, base, cand []float64) bool {
	for _, x := range base {
		for _, y := range cand {
			if (b.higherBetter && y <= x) || (!b.higherBetter && y >= x) {
				return false
			}
		}
	}
	return true
}

// compareFiles applies the bounds to two run files and prints one line
// per (workload, metric) pair, and a note per workload whose number of
// runs differs between the files. It returns false when any pair is
// worse, unresolved or missing, and an error when the files come from
// different machines.
func compareFiles(benchPath, basePath, candPath string, w io.Writer) (bool, error) {
	bounds, err := benchmarkBounds(benchPath)
	if err != nil {
		return false, err
	}
	var files [2]runFile
	for i, p := range []string{basePath, candPath} {
		raw, err := os.ReadFile(p)
		if err != nil {
			return false, err
		}
		if err := json.Unmarshal(raw, &files[i]); err != nil {
			return false, fmt.Errorf("%s: %w", p, err)
		}
	}
	if why := sameMachine(files[0].Machine, files[1].Machine); why != "" {
		return false, fmt.Errorf("refusing to compare runs from different machines: %s", why)
	}
	if a, b := files[0], files[1]; a.Trace != b.Trace || a.Seconds != b.Seconds || a.Seed != b.Seed {
		return false, fmt.Errorf("refusing to compare runs with different settings (trace %d/%d, seconds %d/%d, seed %d/%d)",
			a.Trace, b.Trace, a.Seconds, b.Seconds, a.Seed, b.Seed)
	}
	vs := comparePairs(bounds, files[0], files[1])
	ok := true
	fmt.Fprintf(w, "%-15s %-18s %14s %14s %8s %8s  %s\n", "workload", "metric", "base", "new", "change", "spread", "verdict")
	pct := func(x float64) string {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return "-"
		}
		return fmt.Sprintf("%+.2f%%", 100*x)
	}
	for _, v := range vs {
		fmt.Fprintf(w, "%-15s %-18s %14.6g %14.6g %8s %8s  %s\n",
			v.workload, v.metric, v.base, v.cand, pct((v.cand-v.base)/math.Abs(v.base)), pct(v.spread), v.outcome)
		if v.outcome == "worse" || v.outcome == "unresolved" || v.outcome == "missing" {
			ok = false
		}
	}
	nb, nc := runCounts(files[0]), runCounts(files[1])
	for _, wl := range workloads {
		if nb[wl.name] != nc[wl.name] {
			fmt.Fprintf(w, "note: %s has %d baseline run(s) and %d new run(s)\n", wl.name, nb[wl.name], nc[wl.name])
		}
	}
	return ok, nil
}

func runCounts(f runFile) map[string]int {
	out := map[string]int{}
	for _, r := range f.Runs {
		out[r.Workload]++
	}
	return out
}

// comparePairs judges every bounded metric either file reports for a
// workload, in workload then metric order. A pair only one file reports
// is missing: a partial run file must not pass for an unchanged one.
func comparePairs(bounds map[string]bound, base, cand runFile) []verdict {
	values := func(f runFile) map[[2]string][]float64 {
		out := map[[2]string][]float64{}
		for _, r := range f.Runs {
			for name, m := range r.Metrics {
				k := [2]string{r.Workload, name}
				out[k] = append(out[k], m.Value)
			}
		}
		return out
	}
	vb, vc := values(base), values(cand)
	var keys [][2]string
	for _, side := range []map[[2]string][]float64{vb, vc} {
		for k := range side {
			if _, ok := bounds[k[1]]; ok && !slices.Contains(keys, k) {
				keys = append(keys, k)
			}
		}
	}
	order := map[string]int{}
	for i, w := range workloads {
		order[w.name] = i
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return order[keys[i][0]] < order[keys[j][0]]
		}
		return keys[i][1] < keys[j][1]
	})
	var out []verdict
	for _, k := range keys {
		var v verdict
		if len(vb[k]) == 0 || len(vc[k]) == 0 {
			v = verdict{base: median(vb[k]), cand: median(vc[k]), spread: math.NaN(), outcome: "missing"}
		} else {
			v = judge(bounds[k[1]], vb[k], vc[k])
		}
		v.workload, v.metric = k[0], k[1]
		out = append(out, v)
	}
	return out
}
