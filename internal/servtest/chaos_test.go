package servtest

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"probedis/internal/core"
	"probedis/internal/ctxutil"
	"probedis/internal/obs"
	"probedis/internal/serve"
	"probedis/internal/synth"
	"probedis/internal/vclock"
)

func synthELF(tb testing.TB, seed int64) []byte {
	tb.Helper()
	b, err := synth.Generate(synth.Config{
		Seed: seed, Profile: synth.DefaultProfiles[seed%int64(len(synth.DefaultProfiles))],
		NumFuncs: 8,
	})
	if err != nil {
		tb.Fatal(err)
	}
	img, err := b.ELF()
	if err != nil {
		tb.Fatal(err)
	}
	return img
}

func start(tb testing.TB, cfg serve.Config) *Harness {
	tb.Helper()
	return startWith(tb, core.New(nil, core.WithWorkers(1)), cfg)
}

func startWith(tb testing.TB, d *core.Disassembler, cfg serve.Config) *Harness {
	tb.Helper()
	s, err := serve.New(d, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	h, err := Start(s)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { h.Close() })
	return h
}

// allowedStatus is the complete set of statuses the chaos workloads may
// observe from POST /disassemble.
var allowedStatus = map[int]bool{200: true, 400: true, 413: true, 429: true, 500: true, 504: true}

// TestChaosMixedWorkload is the headline harness run: ~1k concurrent
// requests mixing valid images, the malformed corpus, oversized bodies,
// slow readers, mid-body disconnects and duplicate-image bursts. Every
// received response must carry an allowed status with a well-formed
// JSON body, and afterwards the server must be fully drained: inflight
// and queue gauges at zero, goroutines back to baseline.
func TestChaosMixedWorkload(t *testing.T) {
	const maxBytes = 256 << 10
	h := start(t, serve.Config{
		Slots: 4, Queue: 32, MaxBytes: maxBytes, Deadline: 30 * time.Second,
		CacheEntries: 16, CacheBytes: 8 << 20,
	})

	valid := make([][]byte, 6)
	for i := range valid {
		valid[i] = synthELF(t, int64(100+i))
	}
	malformed := [][]byte{
		[]byte("MZ not an elf"),
		valid[0][:40],
		append([]byte{'X', 'X', 'X', 'X'}, valid[1][4:]...),
		{0x7f, 'E', 'L', 'F'},
	}
	oversized := make([]byte, maxBytes+1)

	baseline := Goroutines()
	const total = 1000
	const workers = 16
	var (
		mu       sync.Mutex
		statuses = map[int]int{}
		bad      []string
	)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := range jobs {
				var res *Result
				var err error
				switch {
				case i%11 == 3:
					res, err = h.Post(malformed[rng.Intn(len(malformed))], "")
				case i%53 == 5:
					res, err = h.Post(oversized, "")
				case i%97 == 7:
					// Slow but valid: trickle a real image in 8 KiB chunks.
					res, err = h.PostSlow(valid[rng.Intn(len(valid))], 8<<10, time.Millisecond)
				case i%89 == 11:
					// Hostile: declare a full image, send half, hang up.
					img := valid[rng.Intn(len(valid))]
					h.PostAbort(img, len(img)/2)
					continue // no response to check
				case i%31 == 13:
					res, err = h.Post(valid[rng.Intn(len(valid))], "trace=1")
				default:
					// Duplicate-heavy: a few unique images, many repeats.
					res, err = h.Post(valid[rng.Intn(len(valid))], "")
				}
				if err != nil {
					// Client-side transport failure (e.g. server cut a slow
					// read); nothing was received, nothing to assert.
					continue
				}
				mu.Lock()
				statuses[res.Status]++
				if !allowedStatus[res.Status] {
					bad = append(bad, fmt.Sprintf("req %d: status %d", i, res.Status))
				} else if res.Status == 200 && !WellFormedOK(res.Body) {
					bad = append(bad, fmt.Sprintf("req %d: malformed 200 body %.80q", i, res.Body))
				} else if res.Status != 200 && !WellFormedError(res.Body) {
					bad = append(bad, fmt.Sprintf("req %d: malformed %d body %.80q", i, res.Status, res.Body))
				}
				mu.Unlock()
			}
		}(w)
	}
	for i := 0; i < total; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	for _, b := range bad {
		t.Error(b)
	}
	if statuses[200] == 0 || statuses[400] == 0 || statuses[413] == 0 {
		t.Errorf("workload did not exercise the core statuses: %v", statuses)
	}
	t.Logf("status distribution: %v", statuses)

	if err := WaitGoroutines(baseline, 10, 15*time.Second); err != nil {
		t.Errorf("after mixed workload: %v", err)
	}
	m, err := h.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if g := m["probedis_inflight_requests"]; g != 0 {
		t.Errorf("inflight gauge = %v after drain", g)
	}
	if g := m["probedis_queue_waiting"]; g != 0 {
		t.Errorf("queue gauge = %v after drain", g)
	}
}

// TestDuplicateImageStorm pins the exactly-once pipeline semantics: N
// concurrent requests over U unique images must run the pipeline
// exactly U times, with cache accounting to match (U misses, N-U hits).
func TestDuplicateImageStorm(t *testing.T) {
	const (
		uniques = 3
		n       = 60
	)
	var runs atomic.Int64
	inner := core.New(nil, core.WithWorkers(1))
	h := start(t, serve.Config{
		Slots: 4, Queue: 64, MaxBytes: 1 << 20,
		CacheEntries: 16, CacheBytes: 8 << 20,
		Pipeline: func(ctx context.Context, img []byte, tr *obs.Span) ([]core.SectionDetail, error) {
			runs.Add(1)
			return inner.DisassembleELFTraceContext(ctx, img, tr)
		},
	})
	imgs := make([][]byte, uniques)
	for i := range imgs {
		imgs[i] = synthELF(t, int64(300+i))
	}

	var wg sync.WaitGroup
	fail := make(chan string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := h.Post(imgs[i%uniques], "")
			if err != nil {
				fail <- err.Error()
				return
			}
			if res.Status != 200 {
				fail <- fmt.Sprintf("req %d: status %d body %.120q", i, res.Status, res.Body)
				return
			}
			if c := res.Header.Get("X-Probedis-Cache"); c != "hit" && c != "miss" {
				fail <- fmt.Sprintf("req %d: X-Probedis-Cache = %q", i, c)
			}
		}(i)
	}
	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Error(msg)
	}
	if got := runs.Load(); got != uniques {
		t.Errorf("pipeline ran %d times, want exactly %d (one per unique image)", got, uniques)
	}
	m, err := h.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if miss := m["probedis_cache_misses_total"]; miss != uniques {
		t.Errorf("cache misses = %v, want %d", miss, uniques)
	}
	if hits := m["probedis_cache_hits_total"]; hits != n-uniques {
		t.Errorf("cache hits = %v, want %d", hits, n-uniques)
	}
	if ok := m[`probedis_requests_total{code="200"}`]; ok != n {
		t.Errorf("200s = %v, want %d", ok, n)
	}
	if entries := m["probedis_cache_entries"]; entries != uniques {
		t.Errorf("cache entries = %v, want %d", entries, uniques)
	}
}

// TestOverloadShedsWhileInflightCompletes saturates every slot with
// gated requests, verifies the overflow is shed 429 immediately (with
// Retry-After), then releases the gate and requires the original
// in-flight work to complete as 200s.
func TestOverloadShedsWhileInflightCompletes(t *testing.T) {
	const slots = 2
	inner := core.New(nil, core.WithWorkers(1))
	started := make(chan struct{}, slots)
	gate := make(chan struct{})
	h := start(t, serve.Config{
		Slots: slots, Queue: -1, MaxBytes: 1 << 20,
		Pipeline: func(ctx context.Context, img []byte, tr *obs.Span) ([]core.SectionDetail, error) {
			started <- struct{}{}
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return inner.DisassembleELFTraceContext(ctx, img, tr)
		},
	})

	occupants := make(chan *Result, slots)
	for i := 0; i < slots; i++ {
		img := synthELF(t, int64(500+i))
		go func() {
			res, err := h.Post(img, "")
			if err != nil {
				t.Error(err)
				res = &Result{}
			}
			occupants <- res
		}()
	}
	for i := 0; i < slots; i++ {
		<-started // all slots held
	}

	for i := 0; i < 5; i++ {
		res, err := h.Post([]byte("overflow"), "")
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != 429 {
			t.Fatalf("overflow %d: status %d, want 429", i, res.Status)
		}
		if res.Header.Get("Retry-After") == "" {
			t.Error("429 without Retry-After")
		}
		if !WellFormedError(res.Body) {
			t.Errorf("429 body malformed: %.120q", res.Body)
		}
	}

	close(gate)
	for i := 0; i < slots; i++ {
		if res := <-occupants; res.Status != 200 {
			t.Errorf("in-flight occupant finished %d, want 200 (body %.120q)", res.Status, res.Body)
		}
	}
	if g, err := h.Metric("probedis_inflight_requests"); err != nil || g != 0 {
		t.Errorf("inflight = %v (err %v) after drain", g, err)
	}
}

// TestDeadlineKillsPipelineRun proves the 504 path end to end on a fake
// clock: the deadline fires while the pipeline holds the request, the
// response is 504, and the pipeline goroutine is actually gone
// afterwards (the real pipeline observes the cancelled context and
// exits rather than completing the work).
func TestDeadlineKillsPipelineRun(t *testing.T) {
	clk := vclock.NewFake()
	inner := core.New(nil, core.WithWorkers(1))
	started := make(chan struct{}, 1)
	gate := make(chan struct{})
	h := start(t, serve.Config{
		Slots: 1, MaxBytes: 1 << 20, Deadline: time.Second, Clock: clk,
		Pipeline: func(ctx context.Context, img []byte, tr *obs.Span) ([]core.SectionDetail, error) {
			started <- struct{}{}
			<-gate
			// The deadline has fired by now: the real pipeline must
			// notice the dead context and abort instead of running.
			return inner.DisassembleELFTraceContext(ctx, img, tr)
		},
	})
	baseline := Goroutines()
	resc := make(chan *Result, 1)
	go func() {
		res, err := h.Post(synthELF(t, 600), "")
		if err != nil {
			t.Error(err)
			res = &Result{}
		}
		resc <- res
	}()
	<-started
	clk.Advance(2 * time.Second)
	close(gate)
	res := <-resc
	if res.Status != 504 {
		t.Fatalf("status = %d, want 504 (body %.120q)", res.Status, res.Body)
	}
	if !WellFormedError(res.Body) {
		t.Errorf("504 body malformed: %.120q", res.Body)
	}
	if err := WaitGoroutines(baseline, 5, 10*time.Second); err != nil {
		t.Errorf("pipeline goroutine survived the deadline: %v", err)
	}
}

// TestSlowAndAbortiveClientsDontLeak throws only hostile I/O at the
// server — slow trickled bodies and mid-body disconnects — and checks
// nothing sticks: goroutines settle and the admission gauges are zero.
func TestSlowAndAbortiveClientsDontLeak(t *testing.T) {
	h := start(t, serve.Config{Slots: 2, Queue: 8, MaxBytes: 1 << 20})
	img := synthELF(t, 700)
	baseline := Goroutines()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				res, err := h.PostSlow(img, 4<<10, 2*time.Millisecond)
				if err == nil && res.Status != 200 {
					t.Errorf("slow client got %d", res.Status)
				}
			} else {
				h.PostAbort(img, len(img)/3)
			}
		}(i)
	}
	wg.Wait()

	if err := WaitGoroutines(baseline, 8, 15*time.Second); err != nil {
		t.Errorf("hostile clients leaked: %v", err)
	}
	m, err := h.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m["probedis_inflight_requests"] != 0 || m["probedis_queue_waiting"] != 0 {
		t.Errorf("gauges not drained: inflight=%v queued=%v",
			m["probedis_inflight_requests"], m["probedis_queue_waiting"])
	}
}

// TestGiantSectionCancelDoesNotLeak is the multi-worker chaos scenario:
// a single ~100 KiB text section is served by a four-worker
// disassembler, and a countdown context cancels each request at a
// different depth into the run, from the first poll to deep inside the
// pool's decode, hint and scoring tasks. Cancelling mid-run must (a)
// never leak a pool goroutine, (b) release every pool and admission slot
// (the follow-up clean request reuses the same server and must
// complete), and (c) drain the admission gauges.
//
// The countdown wraps the request context inside the pipeline override,
// so the request context itself stays alive: the server classifies the
// abort as a pipeline error (400), which the client observes as a
// well-formed error envelope rather than a hung response.
func TestGiantSectionCancelDoesNotLeak(t *testing.T) {
	bin, err := synth.Generate(synth.Config{Seed: 9, Profile: synth.ProfileComplex, NumFuncs: 300})
	if err != nil {
		t.Fatal(err)
	}
	img, err := bin.ELF()
	if err != nil {
		t.Fatal(err)
	}

	inner := core.New(nil, core.WithWorkers(4))

	// Measure the run's cancellation poll count once, then spread the
	// cancellation depths across the full schedule — first poll, early
	// decode, mid-run, and just before the finish.
	probe := &countingDone{Context: context.Background()}
	if _, err := inner.DisassembleELFTraceContext(probe, img, nil); err != nil {
		t.Fatal(err)
	}
	polls := int(probe.polls.Load())
	if polls < 16 {
		t.Fatalf("run made only %d polls", polls)
	}
	var depth atomic.Int64
	depths := []int{1, 2, polls / 8, polls / 4, polls / 2, polls - polls/8}
	h := startWith(t, inner, serve.Config{
		Slots: 2, Queue: 8, MaxBytes: 1 << 20,
		Pipeline: func(ctx context.Context, body []byte, tr *obs.Span) ([]core.SectionDetail, error) {
			n := depth.Add(1)
			if int(n) <= len(depths) {
				ctx = ctxutil.CancelAfterChecks(ctx, depths[n-1])
			}
			return inner.DisassembleELFTraceContext(ctx, body, tr)
		},
	})
	baseline := Goroutines()

	var wg sync.WaitGroup
	var mu sync.Mutex
	statuses := map[int]int{}
	for i := 0; i < len(depths); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := h.Post(img, "")
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			statuses[res.Status]++
			mu.Unlock()
			if res.Status != 400 || !WellFormedError(res.Body) {
				t.Errorf("cancelled request: status %d body %.80q", res.Status, res.Body)
			}
		}()
	}
	wg.Wait()
	if statuses[400] != len(depths) {
		t.Fatalf("status distribution %v, want %d cancelled requests", statuses, len(depths))
	}

	// Slots released: the same server must now complete the same image.
	res, err := h.Post(img, "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != 200 || !WellFormedOK(res.Body) {
		t.Fatalf("clean follow-up: status %d body %.80q", res.Status, res.Body)
	}

	if err := WaitGoroutines(baseline, 8, 15*time.Second); err != nil {
		t.Errorf("cancellation leaked: %v", err)
	}
	m, err := h.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m["probedis_inflight_requests"] != 0 || m["probedis_queue_waiting"] != 0 {
		t.Errorf("gauges not drained: inflight=%v queued=%v",
			m["probedis_inflight_requests"], m["probedis_queue_waiting"])
	}
}

// countingDone counts cancellation polls without ever cancelling.
type countingDone struct {
	context.Context
	polls atomic.Int64
}

func (p *countingDone) Done() <-chan struct{} {
	p.polls.Add(1)
	return nil
}

// TestStageCountersInScrape: the server folds each request's span tree
// into /metrics with bounded label cardinality (stage and counter names
// only): every hint analysis runs once per section, so each counts one
// stage execution per section of the request.
func TestStageCountersInScrape(t *testing.T) {
	bin, err := synth.Generate(synth.Config{Seed: 10, Profile: synth.ProfileComplex, NumFuncs: 120})
	if err != nil {
		t.Fatal(err)
	}
	img, err := bin.ELF()
	if err != nil {
		t.Fatal(err)
	}

	h := startWith(t, core.New(nil, core.WithWorkers(2)), serve.Config{Slots: 2, MaxBytes: 1 << 20})
	res, err := h.Post(img, "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != 200 {
		t.Fatalf("status %d body %.120q", res.Status, res.Body)
	}
	m, err := h.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	sections := m[`probedis_stage_calls_total{stage="section"}`]
	if sections < 1 {
		t.Fatalf("section stage ran %v times", sections)
	}
	for _, stage := range []string{"entry", "datapattern", "jumptable", "calltarget", "prologue", "literalpool"} {
		if got := m[`probedis_stage_calls_total{stage="`+stage+`"}`]; got != sections {
			t.Errorf("%s stage ran %v times, want %v (once per section)", stage, got, sections)
		}
	}
	if got := m[`probedis_stage_counters_total{stage="hints",counter="hints"}`]; got <= 0 {
		t.Errorf("hints counter = %v, want the collected stream's size", got)
	}
}
