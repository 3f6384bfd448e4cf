package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"probedis/internal/core"
	"probedis/internal/elfx"
	"probedis/internal/obs"
	"probedis/internal/synth"
	"probedis/internal/vclock"
)

var (
	testSrvOnce sync.Once
	testSrv     *Server
)

// testServer shares one model-trained server across the read-mostly
// tests (model training dominates setup cost). Tests that mutate
// serving state (queues, caches, clocks) build their own.
func testServer(t *testing.T) *Server {
	t.Helper()
	testSrvOnce.Do(func() {
		d := core.New(core.DefaultModel(), core.WithWorkers(1))
		var err error
		testSrv, err = New(d, Config{Slots: 2, MaxBytes: 1 << 20})
		if err != nil {
			panic(err)
		}
	})
	return testSrv
}

// fastServer builds an isolated model-free server (statistical scoring
// off, structure identical) — cheap enough to construct per test.
func fastServer(cfg Config) *Server {
	s, err := New(core.New(nil, core.WithWorkers(1)), cfg)
	if err != nil {
		panic(err)
	}
	return s
}

func synthELF(t *testing.T, seed int64) []byte {
	t.Helper()
	b, err := synth.Generate(synth.Config{
		Seed: seed, Profile: synth.ProfileComplex, NumFuncs: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	img, err := b.ELF()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func post(t *testing.T, s *Server, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	return postCtx(t, s, context.Background(), path, body)
}

func postCtx(t *testing.T, s *Server, ctx context.Context, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.Routes().ServeHTTP(rec, req)
	return rec
}

func counterVal(s *Server, name string, labels ...string) int64 {
	return s.Registry().Counter(name, labels...).Value()
}

func TestDisassembleOK(t *testing.T) {
	s := testServer(t)
	rec := post(t, s, "/disassemble", synthELF(t, 5))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body: %s", rec.Code, rec.Body)
	}
	var resp DisassembleResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("response does not parse: %v", err)
	}
	if len(resp.Sections) == 0 {
		t.Fatal("no sections in response")
	}
	sec := resp.Sections[0]
	if sec.Name != ".text" || sec.CodeBytes <= 0 || sec.Insts <= 0 || sec.Funcs <= 0 {
		t.Errorf("section summary: %+v", sec)
	}
	if sec.CodeBytes+sec.DataBytes != sec.Bytes {
		t.Errorf("code+data != bytes: %+v", sec)
	}
	if resp.Trace != nil {
		t.Error("trace included without ?trace=1")
	}
}

func TestDisassembleWithTrace(t *testing.T) {
	s := testServer(t)
	rec := post(t, s, "/disassemble?trace=1", synthELF(t, 6))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body: %s", rec.Code, rec.Body)
	}
	var resp DisassembleResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Trace == nil || resp.Trace.Name != "disassemble" || resp.Trace.DurNS <= 0 {
		t.Fatalf("trace missing or empty: %+v", resp.Trace)
	}
	found := false
	for _, c := range resp.Trace.Children {
		if c.Name == "section" {
			found = true
		}
	}
	if !found {
		t.Error("trace has no section spans")
	}
}

func TestMethodNotAllowed(t *testing.T) {
	s := testServer(t)
	req := httptest.NewRequest(http.MethodGet, "/disassemble", nil)
	rec := httptest.NewRecorder()
	s.Routes().ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d", rec.Code)
	}
}

// le mirrors the ELF byte order for corpus mutation.
var le = binary.LittleEndian

func put64(img []byte, off int, v uint64) []byte {
	out := append([]byte(nil), img...)
	le.PutUint64(out[off:], v)
	return out
}

// TestMalformedELFIs400Not500 replays the elfx malformed-header corpus
// over HTTP: every hostile image must produce a clean 400 client error —
// never a 500, never a handler panic.
func TestMalformedELFIs400Not500(t *testing.T) {
	s := testServer(t)
	valid := synthELF(t, 7)
	const (
		ehPhoff = 32
		ehShoff = 40
	)
	noExec := func() []byte {
		var b elfx.Builder
		b.Entry = 0x401000
		b.AddSection(".rodata", 0x401000, elfx.SHFAlloc, []byte{1, 2, 3, 4})
		img, err := b.Write()
		if err != nil {
			t.Fatal(err)
		}
		return img
	}()

	cases := []struct {
		name string
		img  []byte
	}{
		{"empty", nil},
		{"garbage", []byte("MZ this is not an ELF at all")},
		{"truncated-header", valid[:32]},
		{"bad-magic", append([]byte{'M', 'Z', 0, 0}, valid[4:]...)},
		{"elf32", func() []byte {
			out := append([]byte(nil), valid...)
			out[4] = 1
			return out
		}()},
		{"phoff-past-eof", put64(valid, ehPhoff, uint64(len(valid)))},
		{"phoff-overflow", put64(valid, ehPhoff, ^uint64(0)-8)},
		{"shoff-past-eof", put64(valid, ehShoff, uint64(len(valid)))},
		{"shoff-overflow", put64(valid, ehShoff, ^uint64(0)-16)},
		{"truncated-mid-sections", valid[:len(valid)/2]},
		{"no-executable-sections", noExec},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := post(t, s, "/disassemble", tc.img)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (body: %s)", rec.Code, rec.Body)
			}
			var resp errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Error == "" {
				t.Fatalf("error body not JSON: %s", rec.Body)
			}
		})
	}
}

func TestBodyTooLarge413(t *testing.T) {
	s := testServer(t)
	rec := post(t, s, "/disassemble", make([]byte, 1<<20+1))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", rec.Code)
	}
}

func TestMetricsExposition(t *testing.T) {
	s := testServer(t)
	// Ensure at least one success and one failure are on the books.
	post(t, s, "/disassemble", synthELF(t, 8))
	post(t, s, "/disassemble", []byte("junk"))

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	s.Routes().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	out := rec.Body.String()
	for _, want := range []string{
		`probedis_requests_total{code="200"}`,
		`probedis_requests_total{code="400"}`,
		`probedis_stage_nanos_total{stage="superset"}`,
		`probedis_stage_nanos_total{stage="correct"}`,
		`probedis_stage_calls_total{stage="section"}`,
		"probedis_request_bytes_total",
		"probedis_sections_total",
		"# TYPE probedis_inflight_requests gauge",
		"# TYPE probedis_queue_waiting gauge",
		"probedis_goroutines",
		"probedis_heap_alloc_bytes",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestPprofServed(t *testing.T) {
	s := testServer(t)
	req := httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil)
	rec := httptest.NewRecorder()
	s.Routes().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "goroutine") {
		t.Fatalf("pprof index: status=%d", rec.Code)
	}
}

func TestHealthz(t *testing.T) {
	s := testServer(t)
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec := httptest.NewRecorder()
	s.Routes().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz status = %d", rec.Code)
	}
}

// TestConcurrentRequests hammers the endpoint past the admission bound
// with a queue wide enough for everyone: all requests must complete and
// the counters must add up. Run under -race.
func TestConcurrentRequests(t *testing.T) {
	s := fastServer(Config{Slots: 2, Queue: 16, MaxBytes: 1 << 20})
	img := synthELF(t, 9)
	var wg sync.WaitGroup
	const n = 8
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := post(t, s, "/disassemble", img)
			if rec.Code != http.StatusOK {
				t.Errorf("status = %d", rec.Code)
			}
		}()
	}
	wg.Wait()
	if got := counterVal(s, "probedis_requests_total", "code", "200"); got != n {
		t.Errorf("200s = %d, want %d", got, n)
	}
	if s.inflight.Load() != 0 {
		t.Errorf("inflight = %d after drain", s.inflight.Load())
	}
}

// blockingPipeline parks every call until its context is cancelled or
// the release channel closes, signalling each start on started.
func blockingPipeline(started chan<- struct{}, release <-chan struct{}) PipelineFunc {
	return func(ctx context.Context, img []byte, tr *obs.Span) ([]core.SectionDetail, error) {
		if started != nil {
			started <- struct{}{}
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-release:
			return nil, context.Canceled // treated as cancel; tests that release expect no 200
		}
	}
}

// TestLoadShed429 fills the single slot and the (empty) queue, then
// asserts the next request is refused immediately with 429 and a
// Retry-After header — and, the satellite-1 regression, that the shed
// request's bytes are NOT counted as admitted pipeline bytes.
func TestLoadShed429(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	s := fastServer(Config{
		Slots: 1, Queue: -1, MaxBytes: 1 << 20,
		Pipeline: blockingPipeline(started, release),
	})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		post(t, s, "/disassemble", []byte("occupant"))
	}()
	<-started // slot taken, queue empty

	bytesBefore := counterVal(s, "probedis_request_bytes_total")
	rec := post(t, s, "/disassemble", []byte("shed-me-please"))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	var resp errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Error == "" {
		t.Fatalf("shed body not JSON: %s", rec.Body)
	}
	if got := counterVal(s, "probedis_request_bytes_total"); got != bytesBefore {
		t.Errorf("request_bytes_total counted a shed request: %d -> %d", bytesBefore, got)
	}
	close(release)
	wg.Wait()
	if s.inflight.Load() != 0 {
		t.Errorf("inflight = %d after drain", s.inflight.Load())
	}
}

// TestRetryAfterReflectsQueueDepth: the Retry-After estimate must come
// from the live queue depth, not just the configured deadline. With one
// slot, two requests queued and an 8s deadline, a shed client is behind
// three service rounds: Retry-After must say 24, not 8. The no-deadline
// twin must estimate one nominal second per round (3), not a flat 1.
func TestRetryAfterReflectsQueueDepth(t *testing.T) {
	run := func(t *testing.T, deadline time.Duration, want string) {
		started := make(chan struct{}, 3) // every admitted request signals once
		release := make(chan struct{})
		s := fastServer(Config{
			Slots: 1, Queue: 2, Deadline: deadline, MaxBytes: 1 << 20,
			Pipeline: blockingPipeline(started, release),
		})
		var wg sync.WaitGroup
		for i := 0; i < 3; i++ { // 1 occupies the slot, 2 queue behind it
			wg.Add(1)
			go func() {
				defer wg.Done()
				post(t, s, "/disassemble", []byte("occupant"))
			}()
		}
		<-started
		for deadlineAt := time.Now().Add(5 * time.Second); ; {
			s.mu.Lock()
			n := s.nwait
			s.mu.Unlock()
			if n == 2 {
				break
			}
			if time.Now().After(deadlineAt) {
				t.Fatalf("queue never filled: nwait=%d", n)
			}
			time.Sleep(time.Millisecond)
		}
		rec := post(t, s, "/disassemble", []byte("shed-me"))
		if rec.Code != http.StatusTooManyRequests {
			t.Fatalf("status = %d, want 429", rec.Code)
		}
		if got := rec.Header().Get("Retry-After"); got != want {
			t.Errorf("Retry-After = %q, want %q", got, want)
		}
		close(release)
		wg.Wait()
	}
	t.Run("deadline", func(t *testing.T) { run(t, 8*time.Second, "24") })
	t.Run("no-deadline", func(t *testing.T) { run(t, 0, "3") })
}

// TestRequestBytesCountedOnAdmission is the positive half of the
// satellite-1 regression: admitted requests DO count their bytes.
func TestRequestBytesCountedOnAdmission(t *testing.T) {
	s := fastServer(Config{Slots: 1, MaxBytes: 1 << 20})
	img := synthELF(t, 11)
	before := counterVal(s, "probedis_request_bytes_total")
	if rec := post(t, s, "/disassemble", img); rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if got := counterVal(s, "probedis_request_bytes_total") - before; got != int64(len(img)) {
		t.Errorf("request_bytes delta = %d, want %d", got, len(img))
	}
}

// TestDeadline504 drives the per-request deadline on a fake clock: the
// pipeline parks on its context, the clock advances past the deadline,
// and the request must come back 504 with the pipeline unblocked.
func TestDeadline504(t *testing.T) {
	clk := vclock.NewFake()
	started := make(chan struct{}, 1)
	s := fastServer(Config{
		Slots: 1, MaxBytes: 1 << 20, Deadline: time.Second, Clock: clk,
		Pipeline: blockingPipeline(started, nil),
	})
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- post(t, s, "/disassemble", []byte("slow")) }()
	<-started
	clk.Advance(2 * time.Second)
	rec := <-done
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body: %s)", rec.Code, rec.Body)
	}
	if s.inflight.Load() != 0 {
		t.Errorf("inflight = %d after deadline", s.inflight.Load())
	}
	if clk.Pending() != 0 {
		t.Errorf("deadline timer leaked: %d pending", clk.Pending())
	}
}

// TestDeadlineWhileQueued504: a request that spends its whole budget
// waiting for a slot is also a 504 — the deadline covers queue wait.
func TestDeadlineWhileQueued504(t *testing.T) {
	clk := vclock.NewFake()
	started := make(chan struct{}, 1)
	s := fastServer(Config{
		Slots: 1, Queue: 4, MaxBytes: 1 << 20, Deadline: time.Second, Clock: clk,
		Pipeline: blockingPipeline(started, nil),
	})
	occupant := make(chan *httptest.ResponseRecorder, 1)
	go func() { occupant <- post(t, s, "/disassemble", []byte("occupant")) }()
	<-started

	queued := make(chan *httptest.ResponseRecorder, 1)
	go func() { queued <- post(t, s, "/disassemble", []byte("queued")) }()
	// Wait until the second request is measurably in the queue.
	for i := 0; ; i++ {
		s.mu.Lock()
		n := s.nwait
		s.mu.Unlock()
		if n == 1 {
			break
		}
		if i > 5000 {
			t.Fatal("request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	clk.Advance(2 * time.Second)
	for _, ch := range []chan *httptest.ResponseRecorder{occupant, queued} {
		if rec := <-ch; rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("status = %d, want 504 (body: %s)", rec.Code, rec.Body)
		}
	}
	if s.inflight.Load() != 0 {
		t.Errorf("inflight = %d after drain", s.inflight.Load())
	}
}

// TestClientDisconnectFreesSlot is satellite 2: cancelling the request
// context (what net/http does when the client drops) must abort the
// pipeline and free the admission slot promptly.
func TestClientDisconnectFreesSlot(t *testing.T) {
	started := make(chan struct{}, 1)
	s := fastServer(Config{
		Slots: 1, Queue: -1, MaxBytes: 1 << 20,
		Pipeline: blockingPipeline(started, nil),
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		postCtx(t, s, ctx, "/disassemble", []byte("goner"))
		close(done)
	}()
	<-started
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("handler did not return after client disconnect")
	}
	if s.inflight.Load() != 0 {
		t.Fatalf("inflight = %d, slot not freed", s.inflight.Load())
	}
	// The freed slot must admit the next request instead of shedding.
	started2 := make(chan struct{}, 1)
	s.pipeline = blockingPipeline(started2, nil)
	ctx2, cancel2 := context.WithCancel(context.Background())
	go postCtx(t, s, ctx2, "/disassemble", []byte("next"))
	select {
	case <-started2:
	case <-time.After(10 * time.Second):
		t.Fatal("next request was not admitted")
	}
	cancel2()
}

// TestPanicIsolation: a panicking pipeline is one 500 response and one
// counter increment, not a process crash; the slot is released.
func TestPanicIsolation(t *testing.T) {
	calls := atomic.Int32{}
	s := fastServer(Config{
		Slots: 1, MaxBytes: 1 << 20,
		Pipeline: func(ctx context.Context, img []byte, tr *obs.Span) ([]core.SectionDetail, error) {
			if calls.Add(1) == 1 {
				panic("kaboom")
			}
			return nil, context.Canceled
		},
	})
	rec := post(t, s, "/disassemble", []byte("boom"))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	var resp errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Error == "" {
		t.Fatalf("panic body not JSON: %s", rec.Body)
	}
	if got := counterVal(s, "probedis_panics_total"); got != 1 {
		t.Errorf("panics_total = %d", got)
	}
	if s.inflight.Load() != 0 {
		t.Errorf("inflight = %d after panic", s.inflight.Load())
	}
	// The server still serves: the slot was released by the deferred path.
	if rec := post(t, s, "/disassemble", []byte("after")); rec.Code == http.StatusTooManyRequests {
		t.Fatal("slot leaked by panicking request")
	}
}

// TestCacheHitMissFlow: same image twice = one pipeline run; the second
// response is a byte-identical cache hit. A distinct image misses.
func TestCacheHitMissFlow(t *testing.T) {
	s := fastServer(Config{Slots: 2, MaxBytes: 1 << 20, CacheEntries: 8, CacheBytes: 1 << 20})
	img := synthELF(t, 21)

	r1 := post(t, s, "/disassemble", img)
	if r1.Code != http.StatusOK || r1.Header().Get("X-Probedis-Cache") != "miss" {
		t.Fatalf("first: code=%d cache=%q", r1.Code, r1.Header().Get("X-Probedis-Cache"))
	}
	r2 := post(t, s, "/disassemble", img)
	if r2.Code != http.StatusOK || r2.Header().Get("X-Probedis-Cache") != "hit" {
		t.Fatalf("second: code=%d cache=%q", r2.Code, r2.Header().Get("X-Probedis-Cache"))
	}
	if !bytes.Equal(r1.Body.Bytes(), r2.Body.Bytes()) {
		t.Error("cache hit body differs from original")
	}
	if h, m := counterVal(s, "probedis_cache_hits_total"), counterVal(s, "probedis_cache_misses_total"); h != 1 || m != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", h, m)
	}
	if rec := post(t, s, "/disassemble", synthELF(t, 22)); rec.Header().Get("X-Probedis-Cache") != "miss" {
		t.Error("distinct image did not miss")
	}
	// Traced requests bypass the cache entirely.
	if rec := post(t, s, "/disassemble?trace=1", img); rec.Header().Get("X-Probedis-Cache") != "bypass" {
		t.Errorf("trace cache header = %q, want bypass", rec.Header().Get("X-Probedis-Cache"))
	}
}

// TestCacheEviction: capacity 1 entry — the second unique image evicts
// the first, counted on the evictions counter.
func TestCacheEviction(t *testing.T) {
	s := fastServer(Config{Slots: 2, MaxBytes: 1 << 20, CacheEntries: 1, CacheBytes: 1 << 20})
	a, b := synthELF(t, 23), synthELF(t, 24)
	post(t, s, "/disassemble", a)
	post(t, s, "/disassemble", b) // evicts a
	if got := counterVal(s, "probedis_cache_evictions_total"); got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
	if rec := post(t, s, "/disassemble", a); rec.Header().Get("X-Probedis-Cache") != "miss" {
		t.Error("evicted image served as hit")
	}
}

// TestErrorsNotCached: a malformed image is 400 every time and never
// enters the cache.
func TestErrorsNotCached(t *testing.T) {
	s := fastServer(Config{Slots: 2, MaxBytes: 1 << 20, CacheEntries: 8, CacheBytes: 1 << 20})
	junk := []byte("not an elf, reproducibly")
	for i := 0; i < 2; i++ {
		if rec := post(t, s, "/disassemble", junk); rec.Code != http.StatusBadRequest {
			t.Fatalf("round %d: status = %d", i, rec.Code)
		}
	}
	if got := counterVal(s, "probedis_cache_hits_total"); got != 0 {
		t.Errorf("error response served from cache: hits=%d", got)
	}
	s.group.mu.Lock()
	n := s.group.cache.len()
	s.group.mu.Unlock()
	if n != 0 {
		t.Errorf("cache holds %d entries after errors only", n)
	}
}

// TestSingleflightDedup: concurrent identical requests share one
// pipeline run; every response is a 200.
func TestSingleflightDedup(t *testing.T) {
	runs := atomic.Int32{}
	inner := core.New(nil, core.WithWorkers(1))
	s := fastServer(Config{
		Slots: 4, Queue: 64, MaxBytes: 1 << 20, CacheEntries: 8, CacheBytes: 1 << 20,
		Pipeline: func(ctx context.Context, img []byte, tr *obs.Span) ([]core.SectionDetail, error) {
			runs.Add(1)
			return inner.DisassembleELFTraceContext(ctx, img, tr)
		},
	})
	img := synthELF(t, 25)
	const n = 12
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if rec := post(t, s, "/disassemble", img); rec.Code != http.StatusOK {
				t.Errorf("status = %d", rec.Code)
			}
		}()
	}
	wg.Wait()
	if got := runs.Load(); got != 1 {
		t.Errorf("pipeline ran %d times for one unique image", got)
	}
	h, m := counterVal(s, "probedis_cache_hits_total"), counterVal(s, "probedis_cache_misses_total")
	if m != 1 || h != n-1 {
		t.Errorf("hits=%d misses=%d, want %d/1", h, m, n-1)
	}
}

// TestCancelledLeaderNeverWritesCache: the leader's client vanishes
// mid-run; the truncated run must not be cached, and a joiner must
// re-elect itself and complete the work.
func TestCancelledLeaderNeverWritesCache(t *testing.T) {
	inner := core.New(nil, core.WithWorkers(1))
	calls := atomic.Int32{}
	started := make(chan struct{}, 2)
	s := fastServer(Config{
		Slots: 2, Queue: 8, MaxBytes: 1 << 20, CacheEntries: 8, CacheBytes: 1 << 20,
		Pipeline: func(ctx context.Context, img []byte, tr *obs.Span) ([]core.SectionDetail, error) {
			if calls.Add(1) == 1 {
				started <- struct{}{}
				<-ctx.Done() // leader parks until its client disconnects
				return nil, ctx.Err()
			}
			return inner.DisassembleELFTraceContext(ctx, img, tr)
		},
	})
	img := synthELF(t, 26)

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderDone := make(chan struct{})
	go func() {
		postCtx(t, s, leaderCtx, "/disassemble", img)
		close(leaderDone)
	}()
	<-started

	joiner := make(chan *httptest.ResponseRecorder, 1)
	go func() { joiner <- post(t, s, "/disassemble", img) }()
	// Give the joiner a moment to attach to the flight, then kill the
	// leader. (Attachment order does not affect the outcome — a joiner
	// arriving after the abort simply leads from the start.)
	time.Sleep(10 * time.Millisecond)
	cancelLeader()
	<-leaderDone

	rec := <-joiner
	if rec.Code != http.StatusOK {
		t.Fatalf("joiner status = %d (body: %s)", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("X-Probedis-Cache"); got != "miss" {
		t.Errorf("joiner cache header = %q, want miss (fresh leader run)", got)
	}
	if calls.Load() != 2 {
		t.Errorf("pipeline calls = %d, want 2 (cancelled + retried)", calls.Load())
	}
}

// TestQueuedLeaderDisconnectReelects: the leader's client vanishes while
// the leader still waits in the admission queue. Its 499 is about its own
// request, not the image, so a joiner whose client is still connected
// must re-elect itself and complete the work rather than inherit the 499.
func TestQueuedLeaderDisconnectReelects(t *testing.T) {
	inner := core.New(nil, core.WithWorkers(1))
	calls := atomic.Int32{}
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	s := fastServer(Config{
		Slots: 1, Queue: 8, MaxBytes: 1 << 20, CacheEntries: 8, CacheBytes: 1 << 20,
		Pipeline: func(ctx context.Context, img []byte, tr *obs.Span) ([]core.SectionDetail, error) {
			if calls.Add(1) == 1 {
				started <- struct{}{}
				<-release // the occupant holds the only slot until released
				return nil, context.Canceled
			}
			return inner.DisassembleELFTraceContext(ctx, img, tr)
		},
	})
	img := synthELF(t, 27)

	occupantDone := make(chan struct{})
	go func() {
		post(t, s, "/disassemble", []byte("occupant"))
		close(occupantDone)
	}()
	<-started

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leader := make(chan *httptest.ResponseRecorder, 1)
	go func() { leader <- postCtx(t, s, leaderCtx, "/disassemble", img) }()
	waitForMetric(t, s, "probedis_queue_waiting 1")

	joiner := make(chan *httptest.ResponseRecorder, 1)
	go func() { joiner <- post(t, s, "/disassemble", img) }()
	// Give the joiner a moment to attach to the leader's flight. (Order
	// does not affect the outcome — a joiner arriving after the leader
	// left simply leads from the start.)
	time.Sleep(20 * time.Millisecond)
	cancelLeader()
	if rec := <-leader; rec.Code != 499 {
		t.Fatalf("leader status = %d, want 499 (body: %s)", rec.Code, rec.Body)
	}

	close(release)
	<-occupantDone
	rec := <-joiner
	if rec.Code != http.StatusOK {
		t.Fatalf("joiner status = %d, want 200 (body: %s)", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("X-Probedis-Cache"); got != "miss" {
		t.Errorf("joiner cache header = %q, want miss (fresh leader run)", got)
	}
	if calls.Load() != 2 {
		t.Errorf("pipeline calls = %d, want 2 (occupant + re-elected joiner)", calls.Load())
	}
}

// waitForMetric polls the /metrics scrape until it holds line.
func waitForMetric(t *testing.T, s *Server, line string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; {
		rec := httptest.NewRecorder()
		s.Routes().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		if strings.Contains(rec.Body.String(), line+"\n") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("/metrics never read %q", line)
		}
		time.Sleep(time.Millisecond)
	}
}
