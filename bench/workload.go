package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"probedis/internal/core"
	"probedis/internal/eval"
	"probedis/internal/serve"
	"probedis/internal/stats"
)

// options is one run's configuration.
type options struct {
	workload string
	seed     int64
	dur      time.Duration // measured window
	trace    bool
	short    bool   // smoke-test sizes, set only by the tests
	workdir  string // temp stores, spools and span dumps
}

// workload is one set of inputs and the loop that drives them.
type workload struct {
	name string
	// serves: the loop goes through an HTTP server; otherwise it calls
	// the library directly.
	serves bool
	// tiers: requests spread over cache tiers, reported per tier.
	tiers bool
	// shardBytes configures core.WithShardBytes (0: whole sections).
	shardBytes int
	gen        func(o *options) ([]*image, error)
	loop       func(r *runner, warm, dur time.Duration, tr *tracer) loopResult
}

// workloads is the benchmark's fixed set, in run order.
var workloads = []*workload{
	// Library calls on many small sections: hints, correction and
	// per-image fixed cost dominate, and ground truth checks accuracy.
	{
		name: "offline-corpus",
		gen: func(o *options) ([]*image, error) {
			if o.short {
				return corpusImages(o.seed, 11, []int{40}, false)
			}
			return corpusImages(o.seed, 256, []int{40, 150, 400}, false)
		},
		loop: (*runner).offlineLoop,
	},
	// One multi-MiB section: whole-section walks (scan, viability,
	// retraction, CFG) and the superset side tables dominate. 4 MiB keeps
	// the heap under 1 GiB on a machine shared with other jobs.
	{
		name: "offline-large",
		gen: func(o *options) ([]*image, error) {
			size := 4 << 20
			if o.short {
				size = 256 << 10
			}
			im, err := largeImage(o.seed, size, false)
			return []*image{im}, err
		},
		loop: (*runner).offlineLoop,
	},
	// Open-loop Zipf traffic through the disasmd defaults: HTTP, the
	// in-memory spool, the memory cache and the disk store answer most
	// requests; misses queue behind each other on two connections. The
	// base images are the corpus's smallest (40 functions), so a miss
	// takes the one processor for a few ms and the median request measures
	// the serving layers. With 150- and 400-function images among them,
	// misses held the processor for tens of ms, and as the host's speed
	// moved the server in and out of queueing, latency_p50 went from 1.3
	// to 11 ms between runs.
	{
		name:   "serve-mixed",
		serves: true,
		tiers:  true,
		gen: func(o *options) ([]*image, error) {
			n := 64
			if o.short {
				n = 8
			}
			return corpusImages(o.seed, n, []int{40}, true)
		},
		loop: (*runner).mixedLoop,
	},
	// Closed-loop chunked uploads of unique MiB images: every body spills
	// to disk, runs the sharded scheduler and ends in an fsync'd store
	// write — the write side of what serve-mixed reads. At 1 MiB the
	// collector ran about once per request and the heap high-water mark
	// settled at about 175 or about 245 MiB from one run to the next; at
	// 2 MiB it collects several times per request and the mark repeats.
	{
		name:       "serve-large",
		serves:     true,
		shardBytes: 256 << 10,
		gen: func(o *options) ([]*image, error) {
			n, size := 4, 2<<20
			if o.short {
				n, size = 2, 640<<10
			}
			ims := make([]*image, n)
			for i := range ims {
				var err error
				if ims[i], err = largeImage(o.seed*int64(n)+int64(i), size, true); err != nil {
					return nil, err
				}
			}
			return ims, nil
		},
		loop: (*runner).largeLoop,
	},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// Serving configuration: the disasmd defaults plus a fresh store.
const (
	cacheEntries = 128
	cacheBytes   = 64 << 20
)

// serve-mixed traffic. The Zipf exponent puts about two thirds of the
// requests on memory hits and the rest on disk hits and misses (about 13%
// and 21%), so the median request sits well inside one tier. At s = 1.1
// half the requests hit memory and latency_p50 flipped between the
// memory and the disk tier from one seed to the next. The rate keeps the
// processor about 30% busy.
const (
	mixedRate  = 200.0 // requests per second
	mixedIDs   = 20000 // distinct variants
	mixedZipfS = 1.2
)

// Model training parameters of core.DefaultModel, repeated so that
// set-up can be timed more than once per process (DefaultModel trains
// once and caches). TestTrainedModelIsDefault pins the equality.
const (
	trainSeed     = 1_000_000
	trainBinaries = 8
	trainFuncs    = 80
)

// env is what a workload's set-up builds.
type env struct {
	model    *stats.Model
	d        *core.Disassembler
	srv      *server
	client   *http.Client
	storeDir string
}

func (e *env) close() {
	if e.client != nil {
		e.client.CloseIdleConnections()
	}
	if e.srv != nil {
		e.srv.close()
	}
	if e.storeDir != "" {
		os.RemoveAll(e.storeDir)
	}
}

// serveConfig is the disasmd-default configuration with the store at dir.
func (o *options) serveConfig(storeDir string) serve.Config {
	return serve.Config{
		CacheEntries: cacheEntries,
		CacheBytes:   cacheBytes,
		SpoolDir:     o.workdir,
		StoreDir:     storeDir,
	}
}

func (w *workload) coreOptions() []core.Option {
	if w.shardBytes > 0 {
		return []core.Option{core.WithShardBytes(w.shardBytes)}
	}
	return nil
}

// setup builds everything a run needs before its first operation: the
// trained model, the disassembler and, for serve workloads, the server
// with a fresh store and its listener. Input generation is not part of it.
func (w *workload) setup(o *options) (*env, error) {
	e := &env{model: core.TrainModel(trainSeed, trainBinaries, trainFuncs)}
	e.d = core.New(e.model, w.coreOptions()...)
	if !w.serves {
		return e, nil
	}
	dir, err := os.MkdirTemp(o.workdir, "store-")
	if err != nil {
		return nil, err
	}
	e.storeDir = dir
	if e.srv, err = startServer(e.d, o.serveConfig(dir)); err != nil {
		e.close()
		return nil, err
	}
	e.client = newClient()
	return e, nil
}

// runner holds one run's inputs, environment and output checks.
type runner struct {
	o    *options
	w    *workload
	ims  []*image
	refs [][]byte // serve workloads: the expected body per image
	env  *env
	ref  *refMeter // untraced runs: reference passes between operations

	mu    sync.Mutex
	first map[int]eval.Metrics // offline: accuracy of each image's first result
}

// offlineLoop is one caller disassembling the images back to back in a
// seeded order, scoring every result against ground truth off the clock.
func (r *runner) offlineLoop(warm, dur time.Duration, tr *tracer) loopResult {
	order := rand.New(rand.NewSource(r.o.seed)).Perm(len(r.ims))
	return closedLoop(warm, dur, tr, r.ref, func(seq int) sample {
		i := order[seq%len(order)]
		im := r.ims[i]
		secs, err := r.env.d.DisassembleELF(im.elf)
		s := sample{bytes: int64(len(im.elf)), err: err}
		if err == nil {
			s.verify = func() error { return r.score(i, secs) }
		}
		return s
	})
}

// score checks one offline result: a single section whose accuracy
// equals that of every earlier result for the same image.
func (r *runner) score(i int, secs []core.SectionResult) error {
	if len(secs) != 1 {
		return fmt.Errorf("image %d: %d sections, want 1", i, len(secs))
	}
	m := eval.Score(r.ims[i].bin, secs[0].Result)
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.first[i]; !ok {
		r.first[i] = m
	} else if prev != m {
		return fmt.Errorf("image %d: result differs from the first run", i)
	}
	return nil
}

// accuracy scores any image the loop did not reach and returns the
// corpus accuracy of the first result per image, which is the same on
// every run of a seed.
func (r *runner) accuracy() (eval.Metrics, error) {
	for i, im := range r.ims {
		if _, ok := r.first[i]; ok {
			continue
		}
		secs, err := r.env.d.DisassembleELF(im.elf)
		if err != nil {
			return eval.Metrics{}, err
		}
		if err := r.score(i, secs); err != nil {
			return eval.Metrics{}, err
		}
	}
	var all eval.Metrics
	for i := range r.ims {
		all.Add(r.first[i])
	}
	return all, nil
}

// mixedLoop sends Poisson arrivals at a fixed rate over two connections.
// Each request picks a variant by Zipf popularity; a variant is a base
// image with a nonce, so its cache key is its own while its work and
// response are the base image's.
func (r *runner) mixedLoop(warm, dur time.Duration, tr *tracer) loopResult {
	rng := rand.New(rand.NewSource(r.o.seed))
	due := poissonSchedule(rng, mixedRate, warm+dur)
	zipf := rand.NewZipf(rng, mixedZipfS, 1, mixedIDs-1)
	ids := make([]uint64, len(due))
	for i := range ids {
		ids[i] = zipf.Uint64()
	}
	n := uint64(len(r.ims))
	return openLoop(due, maxConns, warm, tr, r.ref,
		func(seq int) []byte { return r.ims[ids[seq]%n].variant(ids[seq]) },
		func(seq int, body []byte) sample {
			return post(r.env.client, r.env.srv.url, body, false, r.refs[ids[seq]%n])
		})
}

// largeLoop is one caller uploading a unique large image in chunks and
// waiting for the answer, then the next.
func (r *runner) largeLoop(warm, dur time.Duration, tr *tracer) loopResult {
	return closedLoop(warm, dur, tr, r.ref, func(seq int) sample {
		i := seq % len(r.ims)
		return post(r.env.client, r.env.srv.url, r.ims[i].variant(uint64(seq)+1), true, r.refs[i])
	})
}

// warmup is the part of a loop that runs before samples are kept.
func warmup(dur time.Duration) time.Duration {
	return min(2*time.Second, dur/8)
}

// setupReps is how many times set-up is timed before the measured loop,
// and again after it. The host's speed switches between levels about
// 1.5x apart for seconds at a time, so set-ups timed back to back all
// landed on one level and setup_s jumped between runs; half of them timed
// 20 seconds later put the median between the levels whenever the two
// moments differ.
func (o *options) setupReps() int {
	if o.short {
		return 1
	}
	return 5
}

// timedSetup runs the workload's set-up once and times it.
func (w *workload) timedSetup(o *options) (*env, float64, error) {
	runtime.GC() // so no set-up pays for collecting the previous one
	t0 := time.Now()
	e, err := w.setup(o)
	if err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return e, time.Since(t0).Seconds(), nil
}

// prepare generates the inputs, computes the reference bodies, and runs
// set-up setupReps times, keeping the last environment. It returns the
// set-up times in seconds.
func prepare(o *options, w *workload) (*runner, []float64, error) {
	ims, err := w.gen(o)
	if err != nil {
		return nil, nil, fmt.Errorf("generating inputs: %w", err)
	}
	r := &runner{o: o, w: w, ims: ims, first: map[int]eval.Metrics{}}
	var setups []float64
	for i := 0; i < o.setupReps(); i++ {
		if r.env != nil {
			r.env.close()
		}
		var secs float64
		if r.env, secs, err = w.timedSetup(o); err != nil {
			return nil, nil, err
		}
		setups = append(setups, secs)
	}
	if w.serves {
		if r.refs, err = referenceBodies(core.New(r.env.model), ims); err != nil {
			r.env.close()
			return nil, nil, err
		}
	}
	return r, setups, nil
}

// endToEnd runs the workload untraced and reports the user-visible
// metrics. Failures are counted, never timed.
func (r *runner) endToEnd(setups []float64) (*result, error) {
	runtime.GC()
	r.ref = newRefMeter()
	heap := startHeapSampler()
	cpu0 := cpuTime()
	lr := r.w.loop(r, warmup(r.o.dur), r.o.dur, nil)
	cpu := cpuTime() - cpu0 - r.ref.cpu
	peak := heap.Stop()
	for i := 0; i < r.o.setupReps(); i++ {
		e, secs, err := r.w.timedSetup(r.o)
		if err != nil {
			return nil, err
		}
		e.close()
		setups = append(setups, secs)
	}

	res := &result{attempted: len(lr.samples)}
	var lats, late []float64
	var bytes int64
	tiers := map[string][]float64{}
	for _, s := range lr.samples {
		if s.err != nil {
			res.failed++
			if res.failed <= 3 {
				fmt.Fprintf(os.Stderr, "%s: %v\n", r.w.name, s.err)
			}
			continue
		}
		ms := float64(s.lat) / 1e6
		lats = append(lats, ms)
		late = append(late, float64(s.late)/1e6)
		bytes += s.bytes
		tiers[s.tier] = append(tiers[s.tier], ms)
	}
	if len(lats) == 0 || lr.window <= 0 {
		return nil, fmt.Errorf("%s: no successful operation in %v", r.w.name, r.o.dur)
	}
	n := len(lats)
	mbps := float64(bytes) / lr.window.Seconds() / 1e6
	p50 := median(lats)
	cpuPerMB := float64(cpu) / 1e6 / (float64(lr.allBytes) / 1e6)
	// Times in ref_ms: scaled by how fast the machine ran the reference
	// passes during the loop (see refMeter).
	k := r.ref.scale()
	res.add("setup_s", median(setups), "s", len(setups))
	res.add("latency_p50_ref_ms", p50*k, "ref_ms", n)
	res.add("cpu_ref_ms_per_mb", cpuPerMB*k, "ref_ms/MB", len(lr.samples))
	res.add("peak_heap_mib", peak/(1<<20), "MiB", len(heap.peaks))

	res.extra = append(res.extra,
		metric{"throughput_mb_s", mbps, "MB/s", n},
		metric{"cpu_ms_per_mb", cpuPerMB, "ms/MB", len(lr.samples)},
		metric{"ref_pass_ms", median(r.ref.times), "ms", len(r.ref.times)})
	res.extra = append(res.extra, tail("latency", lats)...)
	if lr.open {
		res.extra = append(res.extra, tail("gen_late", late)...)
	}
	res.extra = append(res.extra, metric{"fail_pct", 100 * float64(res.failed) / float64(res.attempted), "%", res.attempted})
	if !r.w.serves {
		acc, err := r.accuracy()
		if err != nil {
			return nil, err
		}
		res.extra = append(res.extra,
			metric{"inst_f1", acc.InstF1(), "ratio", len(r.ims)},
			metric{"byte_err_pct", 100 * acc.ByteErrRate(), "%", len(r.ims)})
		if acc.InstF1() < minInstF1 {
			fmt.Fprintf(os.Stderr, "%s: instruction F1 %.4f below %.2f\n", r.w.name, acc.InstF1(), minInstF1)
			res.failed++
		}
	}
	if r.w.tiers {
		for _, t := range []struct{ header, name string }{{"hit", "mem_hit"}, {"disk", "disk_hit"}, {"miss", "miss"}} {
			l := tiers[t.header]
			res.extra = append(res.extra, metric{t.name + "_share", float64(len(l)) / float64(n), "ratio", n})
			if len(l) > 0 {
				res.extra = append(res.extra, tail(t.name, l)...)
			}
		}
		st := r.env.srv.srv.Store()
		res.extra = append(res.extra,
			metric{"cache_evictions", float64(r.env.srv.srv.Registry().Counter("probedis_cache_evictions_total").Value()), "count", 1},
			metric{"store_hit_ratio", float64(st.HitCount()) / float64(max(1, st.HitCount()+st.MissCount())), "ratio", 1})
	}
	return res, nil
}

// minInstF1 is the instruction F1 below which an offline run counts as
// failed: far under what the pipeline reaches on every profile, so it
// trips on a broken pipeline, not on seed-to-seed variation.
const minInstF1 = 0.9

// tail reports a latency set as its median followed by the highest of
// p90 and p99 that has at least minTail samples beyond it, if any.
func tail(prefix string, ms []float64) []metric {
	s := sorted(ms)
	out := []metric{{prefix + "_p50_ms", median(s), "ms", len(s)}}
	for _, q := range []struct {
		q    float64
		name string
	}{{0.99, "_p99_ms"}, {0.9, "_p90_ms"}} {
		if supports(len(s), q.q) {
			return append(out, metric{prefix + q.name, percentile(s, q.q), "ms", len(s)})
		}
	}
	return out
}

// metric is one reported number with its unit and sample count.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

// result is one run's outcome: the contract metrics (end-to-end or
// per-layer) and any extra numbers printed beside them. A run is correct
// when no operation failed.
type result struct {
	attempted int
	failed    int
	metrics   []metric
	extra     []metric
}

func (r *result) add(name string, v float64, unit string, n int) {
	r.metrics = append(r.metrics, metric{name, v, unit, n})
}
