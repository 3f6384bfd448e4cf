package main

import (
	"math/rand"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sample is one completed operation.
type sample struct {
	lat   time.Duration // due (open loop) or send (closed loop) to completion
	late  time.Duration // open loop: send time minus due time, how late the generator ran
	bytes int64         // input bytes the operation consumed
	tier  string        // serve workloads: the X-Probedis-Cache answer
	err   error         // transport error, bad status or wrong output
	// verify, when set, checks the output after the operation is timed.
	verify func() error
}

// finish runs the sample's output check off the clock.
func (s *sample) finish() {
	if s.verify != nil && s.err == nil {
		s.err = s.verify()
	}
	s.verify = nil
}

// op performs operation seq (a request or a library call) and reports
// its bytes, tier and error; the loop fills in the timings.
type op func(seq int) sample

// loopResult is what a load loop measured after its warm-up.
type loopResult struct {
	samples []sample
	window  time.Duration // wall time the kept samples span
	open    bool          // an open loop: samples carry generator lateness
	// allBytes counts the input of every operation, warm-up included: the
	// work behind the process CPU time taken over the whole loop, less the
	// reference passes.
	allBytes int64
}

// keep records s; kept says whether it falls after the warm-up.
func (r *loopResult) keep(mu *sync.Mutex, s sample, kept bool, busy time.Duration) {
	mu.Lock()
	defer mu.Unlock()
	r.allBytes += s.bytes
	if kept {
		r.samples = append(r.samples, s)
		r.window += busy
	}
}

// closedLoop is one caller issuing op back to back, the next only after
// the previous completed, for warm+dur. Operations sent during the first
// warm are performed but not kept. The window is the caller's busy time,
// so output checks and reference passes run between operations do not
// dilute throughput.
func closedLoop(warm, dur time.Duration, tr *tracer, ref *refMeter, fn op) loopResult {
	var (
		mu sync.Mutex
		r  loopResult
	)
	start := time.Now()
	from, until := start.Add(warm), start.Add(warm+dur)
	// At least one operation is measured, however long operations take
	// next to the window.
	for seq, measured := 0, false; time.Now().Before(until) || !measured; seq++ {
		ref.maybe()
		ready := time.Now()
		id := tr.start("request", 0, seq)
		s := fn(seq)
		tr.end(id)
		s.lat = time.Since(ready)
		s.finish()
		measured = !ready.Before(from)
		r.keep(&mu, s, measured, s.lat)
	}
	return r
}

// refGap is how far off the next due request must be for the open loop
// to run a reference pass in the meantime.
const refGap = 3 * refNominal

// poissonSchedule returns the send offsets of a Poisson arrival process
// at rate per second over [0, span).
func poissonSchedule(rng *rand.Rand, rate float64, span time.Duration) []time.Duration {
	var due []time.Duration
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= span {
			return due
		}
		due = append(due, d)
	}
}

// openLoop sends op i at due[i] after the start, over conns goroutines
// (one per connection). A request that comes due while every connection
// is busy waits in the generator; its latency still counts from its due
// time, so a stall shows in every request it delays. Requests due before
// warm are performed but not kept. prepare builds request i's input
// before its due time, keeping input construction off the clock.
// Reference passes run in the gaps: only while no request is in flight
// and the next one is due at least refGap later.
func openLoop[T any](due []time.Duration, conns int, warm time.Duration, tr *tracer, ref *refMeter, prepare func(seq int) T, fn func(seq int, in T) sample) loopResult {
	var (
		next     atomic.Int64
		sent     atomic.Int64 // requests sent so far
		inflight atomic.Int64 // requests sent and not yet answered
		mu       sync.Mutex
		r        = loopResult{open: true}
		wg       sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				seq := int(next.Add(1) - 1)
				if seq >= len(due) {
					return
				}
				in := prepare(seq)
				at := start.Add(due[seq])
				if d := time.Until(at); d > 0 {
					time.Sleep(d)
				}
				inflight.Add(1)
				sent.Add(1)
				sentAt := time.Now()
				id := tr.start("request", 0, seq)
				s := fn(seq, in)
				tr.end(id)
				inflight.Add(-1)
				s.lat, s.late = time.Since(at), sentAt.Sub(at)
				r.keep(&mu, s, due[seq] >= warm, 0)
			}
		}()
	}
	done, refDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(refDone)
		tick := time.NewTicker(refGap / 4)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			// Requests are sent in due order, so due[sent] is the next.
			n := int(sent.Load())
			if n < len(due) && inflight.Load() == 0 && time.Until(start.Add(due[n])) > refGap {
				ref.maybe()
			}
		}
	}()
	wg.Wait()
	// The window runs from the end of the warm-up to the last completion.
	if last := time.Since(start); last > warm {
		r.window = last - warm
	}
	close(done)
	<-refDone
	return r
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler tracks the heap high-water mark: heap object bytes (live
// plus not yet collected) sampled every 10 ms through runtime/metrics,
// which does not stop the world. It keeps the highest sample of each
// 2-second slice and reports the median slice. The single highest sample
// of a run depends on whether a collection happened to land just after
// the pipeline's peak, which swung it by 10-15% between runs of similar
// inputs; the typical slice peak moves only with the program.
type heapSampler struct {
	stop  chan struct{}
	done  chan struct{}
	peaks []float64 // highest sample of each slice
}

const (
	heapMetric = "/memory/classes/heap/objects:bytes"
	heapSlice  = 2 * time.Second
)

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		var top uint64
		sliceEnd := time.Now().Add(heapSlice)
		for {
			metrics.Read(s)
			top = max(top, s[0].Value.Uint64())
			if now := time.Now(); now.After(sliceEnd) {
				h.peaks = append(h.peaks, float64(top))
				top, sliceEnd = 0, now.Add(heapSlice)
			}
			select {
			case <-h.stop:
				if len(h.peaks) == 0 { // a run shorter than one slice
					h.peaks = append(h.peaks, float64(top))
				}
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the median slice peak in bytes.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	return median(h.peaks)
}
