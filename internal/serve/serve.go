// Package serve implements the disasmd HTTP service: bounded
// admission with load shedding, per-request deadlines, a
// content-addressed result cache with singleflight deduplication, and
// panic isolation — the serving hardening around the core pipeline.
// cmd/disasmd is a thin flag-parsing wrapper over this package so the
// chaos/load harness (internal/servtest) can drive the real server
// in-process.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"probedis/internal/core"
	"probedis/internal/obs"
	"probedis/internal/spool"
	"probedis/internal/store"
	"probedis/internal/vclock"
)

// PipelineFunc runs one disassembly. The default wraps the
// Disassembler; tests substitute blocking or panicking pipelines to
// exercise the serving layer in isolation.
type PipelineFunc func(ctx context.Context, img []byte, tr *obs.Span) ([]core.SectionDetail, error)

// Config tunes the serving hardening. Zero values pick production
// defaults (documented per field).
type Config struct {
	// Slots bounds concurrent disassemblies (0 = pipeline worker count).
	Slots int
	// Queue bounds requests waiting for a slot; beyond it requests are
	// shed with 429 (0 = 2*Slots; negative = no queue, shed as soon as
	// every slot is busy).
	Queue int
	// MaxBytes bounds the request body (0 = 64 MiB).
	MaxBytes int64
	// Deadline is the per-request wall budget, queue wait included;
	// exceeding it returns 504 (0 = no deadline).
	Deadline time.Duration
	// CacheEntries/CacheBytes bound the result cache (0 entries
	// disables caching and singleflight).
	CacheEntries int
	CacheBytes   int64
	// SpoolBytes is the largest request body kept entirely in memory
	// during ingest; larger bodies are streamed to a temp file and
	// memory-mapped for the parse, so resident heap per request is
	// O(SpoolBytes), not O(image). 0 picks the default (512 KiB);
	// negative disables spilling — the whole body is buffered on the
	// heap, the pre-streaming behavior, kept for A/B memory tests.
	SpoolBytes int64
	// SpoolDir receives spilled request bodies ("" = os.TempDir()).
	SpoolDir string
	// StoreDir roots the persistent content-addressed result store
	// shared between replicas ("" disables the disk tier).
	StoreDir string
	// StoreBytes bounds the store (0 = store.DefaultMaxBytes).
	StoreBytes int64
	// Fingerprint keys store entries by what produced them: a server
	// reads only entries of its own fingerprint, and servers with
	// different ones keep theirs side by side ("" = the Disassembler's
	// Fingerprint: the pipeline generation, its model and its options).
	// Tests override it to exercise the separation.
	Fingerprint string
	// Clock injects a fake clock in tests (nil = wall clock).
	Clock vclock.Clock
	// Pipeline overrides the disassembly function (nil = the real
	// pipeline on the Disassembler passed to New).
	Pipeline PipelineFunc
}

// Server is the disassembly service: it owns the shared pipeline, the
// metrics registry, the admission queue and the result cache.
//
// Concurrency model: each request is one binary; at most Slots
// disassemblies execute at once, at most Queue more wait for a slot,
// and anything beyond that is shed immediately with 429 so overload
// degrades by refusing work instead of accumulating it. Every request
// runs under its own context (client disconnect + optional deadline),
// which the pipeline polls cooperatively — a dead request stops
// burning CPU within milliseconds and frees its slot.
type Server struct {
	d        *core.Disassembler
	reg      *obs.Registry
	cfg      Config
	clock    vclock.Clock
	pipeline PipelineFunc
	sem      chan struct{}
	group    *group       // nil when caching disabled
	store    *store.Store // nil when the disk tier is disabled

	mu       sync.Mutex
	nwait    int
	inflight atomic.Int64
}

// errPanic marks a pipeline panic caught by the per-request recover.
var errPanic = errors.New("serve: pipeline panicked")

// New builds a Server around d. See Config for the knobs. The only
// failure mode is an unusable StoreDir.
func New(d *core.Disassembler, cfg Config) (*Server, error) {
	if cfg.Slots <= 0 {
		cfg.Slots = d.Workers()
	}
	if cfg.Queue == 0 {
		cfg.Queue = 2 * cfg.Slots
	} else if cfg.Queue < 0 {
		cfg.Queue = 0
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = 64 << 20
	}
	if cfg.SpoolBytes == 0 {
		cfg.SpoolBytes = spool.DefaultThreshold
	} else if cfg.SpoolBytes < 0 {
		// Buffered mode: the spool threshold is the body cap, so nothing
		// ever spills and the full image stays on the heap.
		cfg.SpoolBytes = cfg.MaxBytes
	}
	if cfg.Fingerprint == "" && cfg.StoreDir != "" {
		cfg.Fingerprint = d.Fingerprint()
	}
	s := &Server{
		d:        d,
		reg:      obs.NewRegistry(),
		cfg:      cfg,
		clock:    vclock.System(cfg.Clock),
		pipeline: cfg.Pipeline,
		sem:      make(chan struct{}, cfg.Slots),
	}
	if s.pipeline == nil {
		s.pipeline = func(ctx context.Context, img []byte, tr *obs.Span) ([]core.SectionDetail, error) {
			return d.DisassembleELFTraceContext(ctx, img, tr)
		}
	}
	if cfg.CacheEntries > 0 {
		s.group = newGroup(cfg.CacheEntries, cfg.CacheBytes)
	}
	if cfg.StoreDir != "" {
		st, err := store.Open(cfg.StoreDir, cfg.StoreBytes, cfg.Fingerprint)
		if err != nil {
			return nil, fmt.Errorf("serve: opening result store: %w", err)
		}
		s.store = st
	}

	s.reg.SetHelp("probedis_requests_total", "requests served, by HTTP status code")
	s.reg.SetHelp("probedis_request_bytes_total", "ELF bytes admitted to the pipeline")
	s.reg.SetHelp("probedis_sections_total", "executable sections disassembled")
	s.reg.SetHelp("probedis_stage_nanos_total", "cumulative pipeline stage wall time")
	s.reg.SetHelp("probedis_stage_calls_total", "pipeline stage executions")
	s.reg.SetHelp("probedis_stage_bytes_total", "bytes processed per pipeline stage")
	s.reg.SetHelp("probedis_stage_counters_total",
		"pipeline stage progress counters (settled/contested bytes, hints, scan fallbacks)")
	s.reg.SetHelp("probedis_inflight_requests", "disassembly requests currently executing")
	s.reg.SetHelp("probedis_queue_waiting", "requests waiting for an admission slot")
	s.reg.SetHelp("probedis_cache_hits_total", "requests answered from the result cache (flight joins included)")
	s.reg.SetHelp("probedis_cache_misses_total", "requests that ran the pipeline as flight leader")
	s.reg.SetHelp("probedis_cache_evictions_total", "result-cache entries evicted to make room")
	s.reg.SetHelp("probedis_cache_entries", "result-cache entries resident")
	s.reg.SetHelp("probedis_cache_bytes", "result-cache body bytes resident")
	s.reg.SetHelp("probedis_panics_total", "pipeline panics isolated to a 500 response")
	s.reg.SetHelp("probedis_pipeline_runs_total", "full pipeline executions (traced runs and cache misses)")
	s.reg.SetHelp("probedis_spool_files", "spilled request bodies currently on disk (process-wide)")
	s.reg.SetHelp("probedis_spool_bytes", "bytes of spilled request bodies currently on disk (process-wide)")
	s.reg.SetHelp("probedis_goroutines", "live goroutines")
	s.reg.SetHelp("probedis_heap_alloc_bytes", "heap bytes in use")
	s.reg.Gauge("probedis_inflight_requests", func() float64 { return float64(s.inflight.Load()) })
	s.reg.Gauge("probedis_queue_waiting", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.nwait)
	})
	if s.group != nil {
		s.reg.Gauge("probedis_cache_entries", func() float64 {
			s.group.mu.Lock()
			defer s.group.mu.Unlock()
			return float64(s.group.cache.len())
		})
		s.reg.Gauge("probedis_cache_bytes", func() float64 {
			s.group.mu.Lock()
			defer s.group.mu.Unlock()
			return float64(s.group.cache.sizeBytes())
		})
	}
	if s.store != nil {
		s.reg.SetHelp("probedis_store_hits_total", "requests answered from the persistent result store")
		s.reg.SetHelp("probedis_store_misses_total", "store lookups that found no usable entry")
		s.reg.SetHelp("probedis_store_evictions_total", "store entries evicted by the byte-budget sweep")
		s.reg.SetHelp("probedis_store_corruptions_total", "store entries quarantined after failing validation")
		s.reg.SetHelp("probedis_store_errors_total", "store publishes that failed transiently (result still served)")
		s.reg.SetHelp("probedis_store_entries", "persistent store entries resident")
		s.reg.SetHelp("probedis_store_bytes", "persistent store bytes resident")
		s.reg.CounterFunc("probedis_store_hits_total", s.store.HitCount)
		s.reg.CounterFunc("probedis_store_misses_total", s.store.MissCount)
		s.reg.CounterFunc("probedis_store_evictions_total", s.store.EvictionCount)
		s.reg.CounterFunc("probedis_store_corruptions_total", s.store.CorruptionCount)
		s.reg.Gauge("probedis_store_entries", func() float64 { return float64(s.store.EntryCount()) })
		s.reg.Gauge("probedis_store_bytes", func() float64 { return float64(s.store.ByteCount()) })
	}
	// Process-wide, not per-server: internal/spool maintains the spool
	// gauges, so sample them at scrape time.
	s.reg.Gauge("probedis_spool_files", func() float64 { return float64(spool.LiveFiles()) })
	s.reg.Gauge("probedis_spool_bytes", func() float64 { return float64(spool.LiveBytes()) })
	s.reg.Gauge("probedis_goroutines", func() float64 { return float64(runtime.NumGoroutine()) })
	s.reg.Gauge("probedis_heap_alloc_bytes", func() float64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	})
	return s, nil
}

// Registry exposes the metrics registry (the chaos harness scrapes it
// directly in addition to the /metrics endpoint).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Store exposes the persistent result store, nil when the disk tier is
// disabled (the replica-sharing tests inspect its counters directly).
func (s *Server) Store() *store.Store { return s.store }

// Routes builds the service mux: the disassembly endpoint, the metrics
// scrape, and the stdlib pprof handlers.
func (s *Server) Routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/disassemble", s.handleDisassemble)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// sectionJSON is the per-section summary in a disassemble response.
type sectionJSON struct {
	Name       string `json:"name"`
	Addr       uint64 `json:"addr"`
	Bytes      int    `json:"bytes"`
	CodeBytes  int    `json:"code_bytes"`
	DataBytes  int    `json:"data_bytes"`
	Insts      int    `json:"insts"`
	Funcs      int    `json:"funcs"`
	Blocks     int    `json:"blocks"`
	JumpTables int    `json:"jump_tables"`
	Hints      int    `json:"hints"`
	Committed  int    `json:"committed"`
	Rejected   int    `json:"rejected"`
	Retracted  int    `json:"retracted"`
}

// DisassembleResponse is the 200 body of POST /disassemble.
type DisassembleResponse struct {
	Sections []sectionJSON `json:"sections"`
	Trace    *obs.SpanJSON `json:"trace,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// handleDisassemble serves POST /disassemble: the request body is one
// ELF64 image, the response a per-section JSON summary (append ?trace=1
// for the span tree; traced requests bypass the result cache, since a
// cached trace would describe some earlier request's run). Malformed
// inputs are client errors: 400, never 500.
//
// Ingest is streaming: the body is spooled through an incremental
// SHA-256 (so its cache key is known before any analysis), in memory up
// to SpoolBytes and on disk past it. The size cap is enforced from the
// spooled byte count — chunked uploads and lying Content-Length headers
// hit the same 413 as honest oversized bodies.
func (s *Server) handleDisassemble(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "POST an ELF64 image to /disassemble")
		return
	}
	if r.ContentLength > s.cfg.MaxBytes {
		// A declared length over the cap is refused before spooling a
		// byte; the count-based check below covers everything else.
		s.fail(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxBytes))
		return
	}
	body, err := spool.Spool(spool.Config{
		Threshold: s.cfg.SpoolBytes,
		Dir:       s.cfg.SpoolDir,
		MaxBytes:  s.cfg.MaxBytes,
	}, r.Body)
	if err != nil {
		if errors.Is(err, spool.ErrTooLarge) {
			s.fail(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxBytes))
			return
		}
		// Spool-side failures (no temp space) are the server's problem,
		// transport failures the client's.
		if errors.Is(err, spool.ErrIO) {
			s.fail(w, http.StatusInsufficientStorage, err.Error())
			return
		}
		s.fail(w, http.StatusBadRequest, "reading request body: "+err.Error())
		return
	}
	if body.Size() == 0 {
		body.Close()
		s.fail(w, http.StatusBadRequest, "empty request body, expected an ELF64 image")
		return
	}

	// The request context carries client disconnect; the optional
	// deadline is layered on top and covers queue wait as well, so a
	// request cannot sit in the queue longer than its total budget.
	ctx := r.Context()
	if s.cfg.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = vclock.ContextWithTimeout(ctx, s.clock, s.cfg.Deadline)
		defer cancel()
	}

	wantTrace := r.URL.Query().Get("trace") == "1"
	if s.group == nil || wantTrace {
		if s.group != nil {
			w.Header().Set("X-Probedis-Cache", "bypass")
		}
		s.serveUncached(ctx, w, body, wantTrace)
		return
	}
	s.serveCached(ctx, w, body)
}

// releaseBody returns a spooled body after a pipeline attempt. A panic
// may have left stray goroutines still reading the mapped view, so that
// path abandons the mapping (unlinking the file, leaking only pages)
// instead of unmapping under the readers' feet.
func releaseBody(b *spool.Body, err error) {
	if errors.Is(err, errPanic) {
		b.Abandon()
		return
	}
	b.Close()
}

// serveUncached is the plain admit -> run -> respond path (traced
// requests and cache-disabled configurations).
func (s *Server) serveUncached(ctx context.Context, w http.ResponseWriter, b *spool.Body, wantTrace bool) {
	release, status, msg := s.admit(ctx)
	if status != 0 {
		b.Close()
		s.fail(w, status, msg)
		return
	}
	defer release()
	s.reg.Counter("probedis_request_bytes_total").Add(b.Size())

	img, err := b.View()
	if err != nil {
		b.Close()
		s.fail(w, http.StatusInsufficientStorage, err.Error())
		return
	}
	secs, tr, err := s.run(ctx, img)
	releaseBody(b, err)
	if err != nil {
		s.failPipeline(w, ctx, err)
		return
	}
	resp := s.summarize(secs, tr)
	if wantTrace {
		t := obs.ToJSON(tr)
		resp.Trace = &t
	}
	body, err := json.Marshal(resp)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, "encoding response: "+err.Error())
		return
	}
	s.writeOK(w, body)
}

// serveCached is the singleflight + cache path: per unique image at
// most one pipeline run is in progress, duplicates wait for it, and
// completed results are served from the LRU (backed, when configured,
// by the persistent store — see lead).
func (s *Server) serveCached(ctx context.Context, w http.ResponseWriter, b *spool.Body) {
	key := b.Sum()
	for {
		body, _, f, hit, lead := s.group.lookup(key)
		if hit {
			b.Close()
			s.reg.Counter("probedis_cache_hits_total").Add(1)
			w.Header().Set("X-Probedis-Cache", "hit")
			s.writeOK(w, body)
			return
		}
		if !lead {
			// Join the in-progress flight for the same image.
			select {
			case <-f.done:
			case <-ctx.Done():
				b.Close()
				s.failPipeline(w, ctx, ctx.Err())
				return
			}
			if f.retry {
				// The leader was cancelled by its own request; its fate
				// says nothing about the image. Re-enter: either the
				// cache has it by now, another flight is up, or we lead.
				continue
			}
			if f.body != nil {
				b.Close()
				s.reg.Counter("probedis_cache_hits_total").Add(1)
				w.Header().Set("X-Probedis-Cache", "hit")
				s.writeOK(w, f.body)
				return
			}
			// Deterministic failures (malformed image: 400) and resource
			// failures (shed, panic) propagate to joiners — re-running
			// the pipeline would reproduce the former and worsen the
			// latter.
			b.Close()
			s.fail(w, f.status, f.errMsg)
			return
		}
		s.lead(ctx, w, key, f, b)
		return
	}
}

// lead runs as the flight leader for key: first consulting the
// persistent store (a disk hit feeds the memory cache and skips
// admission entirely — serving a stored body needs no pipeline slot),
// then running the pipeline and publishing the result to both tiers.
func (s *Server) lead(ctx context.Context, w http.ResponseWriter, key cacheKey, f *flight, b *spool.Body) {
	if s.store != nil {
		if stored, ok := s.store.Get(key); ok {
			b.Close()
			if ev := s.group.publish(key, f, stored, 0); ev > 0 {
				s.reg.Counter("probedis_cache_evictions_total").Add(int64(ev))
			}
			w.Header().Set("X-Probedis-Cache", "disk")
			s.writeOK(w, stored)
			return
		}
	}
	s.reg.Counter("probedis_cache_misses_total").Add(1)
	release, status, msg := s.admit(ctx)
	if status != 0 {
		// Admission failures retire the flight. Shedding propagates
		// (the server is saturated for joiners too); cancellation makes
		// joiners re-elect.
		b.Close()
		s.group.abort(key, f, status, msg, status == http.StatusGatewayTimeout)
		s.fail(w, status, msg)
		return
	}
	defer release()
	// Counted only after admission: shed and refused requests must not
	// inflate the admitted-bytes series.
	s.reg.Counter("probedis_request_bytes_total").Add(b.Size())

	img, verr := b.View()
	if verr != nil {
		b.Close()
		s.group.abort(key, f, http.StatusInsufficientStorage, verr.Error(), false)
		s.fail(w, http.StatusInsufficientStorage, verr.Error())
		return
	}
	secs, tr, err := s.run(ctx, img)
	releaseBody(b, err)
	if err != nil {
		status, msg, retry := classify(ctx, err)
		// A cancelled leader never publishes: the run was truncated, so
		// nothing it produced may reach the cache.
		s.group.abort(key, f, status, msg, retry)
		s.failPipeline(w, ctx, err)
		return
	}
	resp := s.summarize(secs, tr)
	body, err := json.Marshal(resp)
	if err != nil {
		s.group.abort(key, f, http.StatusInternalServerError, "encoding response: "+err.Error(), false)
		s.fail(w, http.StatusInternalServerError, "encoding response: "+err.Error())
		return
	}
	if s.store != nil {
		if perr := s.store.Put(key, body); perr != nil {
			if errors.Is(perr, store.ErrFull) {
				// The result exists but cannot be made durable; refusing
				// keeps the two-tier invariant (everything served from the
				// memory cache is also on disk for the other replicas).
				s.group.abort(key, f, http.StatusInsufficientStorage, perr.Error(), false)
				s.fail(w, http.StatusInsufficientStorage, perr.Error())
				return
			}
			// Transient store I/O failure: the computed answer is still
			// correct, serve it; the next miss retries the disk write.
			s.reg.Counter("probedis_store_errors_total").Add(1)
		}
	}
	if ev := s.group.publish(key, f, body, len(secs)); ev > 0 {
		s.reg.Counter("probedis_cache_evictions_total").Add(int64(ev))
	}
	w.Header().Set("X-Probedis-Cache", "miss")
	s.writeOK(w, body)
}

// admit acquires a pipeline slot, waiting in the bounded queue. It
// returns a non-zero status when the request is refused: 429 when the
// queue is full (load shed), 504 when the deadline fires while queued,
// 499 when the client hangs up while queued.
func (s *Server) admit(ctx context.Context) (release func(), status int, msg string) {
	rel := func() {
		s.inflight.Add(-1)
		<-s.sem
	}
	select {
	case s.sem <- struct{}{}:
		s.inflight.Add(1)
		return rel, 0, ""
	default:
	}
	s.mu.Lock()
	if s.nwait >= s.cfg.Queue {
		s.mu.Unlock()
		return nil, http.StatusTooManyRequests,
			fmt.Sprintf("server saturated: %d running, %d queued", s.cfg.Slots, s.cfg.Queue)
	}
	s.nwait++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.nwait--
		s.mu.Unlock()
	}()
	select {
	case s.sem <- struct{}{}:
		s.inflight.Add(1)
		return rel, 0, ""
	case <-ctx.Done():
		if context.Cause(ctx) == context.DeadlineExceeded {
			return nil, http.StatusGatewayTimeout,
				fmt.Sprintf("deadline %v exceeded while queued", s.cfg.Deadline)
		}
		return nil, 499, "client disconnected while queued"
	}
}

// run executes the pipeline with panic isolation: a panicking request
// becomes its own 500 without taking the process down.
func (s *Server) run(ctx context.Context, img []byte) (secs []core.SectionDetail, tr *obs.Span, err error) {
	tr = obs.NewTraceTimeOnly("disassemble")
	s.reg.Counter("probedis_pipeline_runs_total").Add(1)
	defer func() {
		if r := recover(); r != nil {
			s.reg.Counter("probedis_panics_total").Add(1)
			secs, err = nil, errPanic
		}
	}()
	secs, err = s.pipeline(ctx, img, tr)
	tr.End()
	tr.SetBytes(int64(len(img)))
	if err != nil {
		return nil, tr, err
	}
	s.reg.FoldSpans("probedis", tr)
	s.reg.Counter("probedis_sections_total").Add(int64(len(secs)))
	return secs, tr, nil
}

func (s *Server) summarize(secs []core.SectionDetail, tr *obs.Span) *DisassembleResponse {
	resp := &DisassembleResponse{Sections: make([]sectionJSON, len(secs))}
	for i, sec := range secs {
		det := sec.Detail
		res := det.Result
		resp.Sections[i] = sectionJSON{
			Name:       sec.Name,
			Addr:       sec.Addr,
			Bytes:      res.Len(),
			CodeBytes:  res.CodeBytes(),
			DataBytes:  res.Len() - res.CodeBytes(),
			Insts:      res.NumInsts(),
			Funcs:      len(res.FuncStarts),
			Blocks:     det.CFG.NumBlocks(),
			JumpTables: len(det.Tables),
			Hints:      det.Hints,
			Committed:  det.Outcome.Committed,
			Rejected:   det.Outcome.Rejected,
			Retracted:  det.Outcome.Retracted,
		}
	}
	return resp
}

// classify maps a pipeline error to (status, message, joiner-retry).
func classify(ctx context.Context, err error) (int, string, bool) {
	switch {
	case err == errPanic:
		return http.StatusInternalServerError, "internal error: pipeline panicked", false
	case ctx.Err() != nil && context.Cause(ctx) == context.DeadlineExceeded:
		return http.StatusGatewayTimeout, "deadline exceeded during disassembly", true
	case ctx.Err() != nil:
		return 499, "client disconnected", true
	default:
		// Every remaining pipeline error on this path is an input
		// problem (bad magic, truncated tables, overflowing offsets, no
		// executable sections) — the malformed-header corpus in
		// internal/elfx pins that Parse rejects rather than panics, so
		// the client gets 400.
		return http.StatusBadRequest, err.Error(), false
	}
}

func (s *Server) failPipeline(w http.ResponseWriter, ctx context.Context, err error) {
	status, msg, _ := classify(ctx, err)
	s.fail(w, status, msg)
}

// retryAfter estimates when shedding might stop from the actual queue
// depth at refusal time: a client arriving behind `waiting` queued
// requests on Slots parallel slots needs ceil((waiting+1)/Slots) service
// rounds before a slot frees up for it. Each round is bounded by the
// per-request deadline when one is configured; without a deadline each
// round is estimated at a nominal second. Always at least 1.
func (s *Server) retryAfter() string {
	s.mu.Lock()
	waiting := s.nwait
	s.mu.Unlock()
	slots := s.cfg.Slots
	if slots < 1 {
		slots = 1
	}
	rounds := (waiting + slots) / slots // ceil((waiting+1)/slots), >= 1
	if s.cfg.Deadline > 0 {
		d := time.Duration(rounds) * s.cfg.Deadline
		if secs := int((d + time.Second - 1) / time.Second); secs >= 1 {
			return fmt.Sprint(secs)
		}
	}
	return fmt.Sprint(rounds)
}

func (s *Server) writeOK(w http.ResponseWriter, body []byte) {
	s.reg.Counter("probedis_requests_total", "code", "200").Add(1)
	w.Header().Set("Content-Type", "application/json")
	// Two writes, not append: cached bodies are shared across requests
	// and must never be mutated through a capacity-aliasing append.
	w.Write(body)
	io.WriteString(w, "\n")
}

// fail writes a JSON error response and counts it.
func (s *Server) fail(w http.ResponseWriter, code int, msg string) {
	s.reg.Counter("probedis_requests_total", "code", fmt.Sprint(code)).Add(1)
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", s.retryAfter())
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorResponse{Error: msg})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.reg.WritePrometheus(w)
}
