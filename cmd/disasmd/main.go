// Command disasmd serves the metadata-free disassembly pipeline over
// HTTP — the production-scale front end of the repo's north star. The
// serving logic lives in internal/serve; this wrapper only parses
// flags, loads the model and manages process lifecycle.
//
//	disasmd [-addr :8421] [-workers 0] [-batch 0] [-queue 0]
//	        [-max-bytes 67108864] [-deadline 0] [-cache-entries 128]
//	        [-cache-bytes 67108864] [-model m.pdmd] [-spool-bytes 524288]
//	        [-store-dir dir] [-store-bytes 1073741824]
//
// Endpoints:
//
//	POST /disassemble        body = one ELF64 image; JSON per-section
//	                         summary. Append ?trace=1 for the per-stage
//	                         span tree (bypasses the result cache; above
//	                         -workers 1, concurrent spans may sum past
//	                         the request's wall time).
//	                         Malformed ELF -> 400, oversized -> 413,
//	                         saturated -> 429 (+Retry-After), deadline
//	                         exceeded -> 504, spool/store space
//	                         exhausted -> 507.
//	GET  /metrics            Prometheus text format: request counters,
//	                         cache hit/miss/eviction counters, store and
//	                         spool counters/gauges, queue and inflight
//	                         gauges, cumulative per-stage wall
//	                         time/bytes/calls, heap and goroutine gauges.
//	GET  /debug/pprof/*      stdlib CPU/heap/goroutine profiling.
//	GET  /healthz            liveness probe.
//
// Concurrent disassemblies are bounded by -batch (default: the pipeline
// worker-pool size); up to -queue more wait for a slot and anything
// beyond that is shed with 429. Each admitted request runs under its
// client's context plus the optional -deadline, which the pipeline
// observes cooperatively (see core.DisassembleELFTraceContext).
// SIGINT/SIGTERM drain in-flight requests before exit.
//
// Uploads are streamed: bodies above -spool-bytes spill to a temp file
// that is memory-mapped for the parse, so resident memory per request
// is bounded by the spool threshold, not the image size. With
// -store-dir set, marshaled results are persisted to a shared
// content-addressed store — replicas pointed at the same directory
// compute each unique image once fleet-wide (X-Probedis-Cache: disk on
// cross-replica hits).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"probedis/internal/core"
	"probedis/internal/serve"
	"probedis/internal/stats"
)

func main() {
	addr := flag.String("addr", ":8421", "listen address")
	workers := flag.Int("workers", 0, "size of each request's work pool, which runs its sections, superset decode, hint analyses and scoring (0 = GOMAXPROCS, 1 = serial)")
	batch := flag.Int("batch", 0, "max concurrent disassembly requests (0 = worker-pool size)")
	queue := flag.Int("queue", 0, "max requests queued for a slot before shedding 429 (0 = 2*batch)")
	maxBytes := flag.Int64("max-bytes", 64<<20, "max accepted ELF image size in bytes")
	deadline := flag.Duration("deadline", 0, "per-request deadline incl. queue wait, 504 past it (0 = none)")
	cacheEntries := flag.Int("cache-entries", 128, "result cache capacity in entries (0 = disable cache)")
	cacheBytes := flag.Int64("cache-bytes", 64<<20, "result cache capacity in body bytes")
	modelPath := flag.String("model", "", "load a trained model (see cmd/train); default trains in-process")
	spoolBytes := flag.Int64("spool-bytes", 0, "largest upload kept in memory; larger bodies spool to a mmap-ed temp file (0 = 512 KiB, negative = buffer whole bodies)")
	storeDir := flag.String("store-dir", "", "persistent content-addressed result store root, shareable between replicas (empty = disabled)")
	storeBytes := flag.Int64("store-bytes", 0, "result store byte budget, LRU-swept past it (0 = 1 GiB)")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: disasmd [-addr :8421] [-workers n] [-batch n] [-queue n]"+
			" [-max-bytes n] [-deadline d] [-cache-entries n] [-cache-bytes n] [-model m.pdmd]"+
			" [-spool-bytes n] [-store-dir dir] [-store-bytes n]")
		os.Exit(2)
	}

	var model *stats.Model
	if *modelPath != "" {
		mf, err := os.Open(*modelPath)
		if err != nil {
			log.Fatalf("disasmd: %v", err)
		}
		model, err = stats.ReadModel(mf)
		mf.Close()
		if err != nil {
			log.Fatalf("disasmd: %v", err)
		}
	} else {
		log.Print("disasmd: training default model in-process")
		model = core.DefaultModel()
	}

	d := core.New(model, core.WithWorkers(*workers))
	s, err := serve.New(d, serve.Config{
		Slots:        *batch,
		Queue:        *queue,
		MaxBytes:     *maxBytes,
		Deadline:     *deadline,
		CacheEntries: *cacheEntries,
		CacheBytes:   *cacheBytes,
		SpoolBytes:   *spoolBytes,
		StoreDir:     *storeDir,
		StoreBytes:   *storeBytes,
	})
	if err != nil {
		log.Fatalf("disasmd: %v", err)
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           s.Routes(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("disasmd: serving on %s (workers=%d batch=%d queue=%d max-bytes=%d deadline=%v cache=%d/%dB)",
		*addr, d.Workers(), *batch, *queue, *maxBytes, *deadline, *cacheEntries, *cacheBytes)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop()
	log.Print("disasmd: draining in-flight requests")
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("disasmd: shutdown: %v", err)
	}
}
