package main

import (
	"bytes"
	"compress/flate"
	"math/rand"
	"slices"
	"time"
)

// The machine the benchmark was defined on is two virtual CPUs of a
// shared host, and the host's other tenants change its speed: for tens of
// seconds at a time the pipeline's CPU time per MB moved by up to 40%,
// so over ten 20-second runs the timing metrics spread by 15-25% of their
// median, whichever statistic a run reported (mean, median, fastest call
// per image). Standard-library compression and sorting slowed down in
// step with the pipeline (correlation 0.96-0.99 over 2- and 12-second
// windows in one four-minute sample), so the benchmark runs a fixed piece
// of such work between its operations and also reports times in units of
// it: dividing by the reference cut the spread to 5-10% and keeps what
// the program itself changes.

// refNominal is about the time of one reference pass on the defining
// machine when its host is quiet: a time in ref_ms is a time in ms scaled
// as if the machine ran at that speed.
const refNominal = 3 * time.Millisecond

// refEvery is the least time between two reference passes.
const refEvery = 200 * time.Millisecond

// refMeter runs reference passes between the workload's operations and
// keeps their wall times. Its inputs are fixed, so every seed and every
// commit does the same reference work. One goroutine at a time uses it.
type refMeter struct {
	last  time.Time
	times []float64     // wall time of each pass, ms
	cpu   time.Duration // process CPU time the passes took
	text  []byte        // flate input
	ints  []int         // sort input, copied into work before sorting
	work  []int         // sort scratch
	out   bytes.Buffer  // flate output, reused
	w     *flate.Writer // reused, so a pass does not allocate
}

func newRefMeter() *refMeter {
	r := rand.New(rand.NewSource(1))
	// Text of 512 random "words" of 1-8 bytes drawn by Zipf popularity:
	// compressible like machine code, so flate does match-finding work.
	words := make([][]byte, 512)
	for i := range words {
		words[i] = make([]byte, 1+r.Intn(8))
		r.Read(words[i])
	}
	z := rand.NewZipf(r, 1.1, 1, uint64(len(words)-1))
	m := &refMeter{ints: make([]int, 16<<10), work: make([]int, 16<<10)}
	for len(m.text) < 32<<10 {
		m.text = append(m.text, words[z.Uint64()]...)
	}
	m.text = m.text[:32<<10]
	for i := range m.ints {
		m.ints[i] = r.Int()
	}
	m.w, _ = flate.NewWriter(&m.out, flate.DefaultCompression)
	// One unkept pass, so the first kept one does not fault in the buffers.
	m.pass()
	m.times, m.cpu = nil, 0
	return m
}

// pass runs one reference pass and records its time.
func (m *refMeter) pass() {
	c0, t0 := cpuTime(), time.Now()
	m.out.Reset()
	m.w.Reset(&m.out)
	m.w.Write(m.text)
	m.w.Close()
	copy(m.work, m.ints)
	slices.Sort(m.work)
	now := time.Now()
	m.times = append(m.times, float64(now.Sub(t0))/1e6)
	m.cpu += cpuTime() - c0
	m.last = now
}

// maybe runs a pass when refEvery has passed since the last one. A nil
// meter does nothing.
func (m *refMeter) maybe() {
	if m != nil && time.Since(m.last) >= refEvery {
		m.pass()
	}
}

// scale is the factor that turns a time measured during the passes into
// ref time: refNominal over the median pass.
func (m *refMeter) scale() float64 {
	if len(m.times) == 0 {
		m.pass()
	}
	return float64(refNominal) / 1e6 / median(m.times)
}
