package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"time"

	"probedis/internal/core"
	"probedis/internal/obs"
	"probedis/internal/spool"
	"probedis/internal/store"
)

// traced runs the per-layer measurement: the pipeline replayed layer by
// layer next to the real serial pipeline on the same images, then the
// serving layers replayed on a sample of them, then the workload's own
// loop with a span per request. Spans are written to the workdir at the
// end.
func (r *runner) traced() (*result, error) {
	tr := newTracer()
	res := &result{}
	start := time.Now()

	pipe, err := r.replayPipeline(tr, res, start.Add(r.o.dur/2))
	if err != nil {
		return nil, err
	}
	serving, err := r.replayServing(tr, res)
	if err != nil {
		return nil, err
	}
	lr := r.w.loop(r, 0, r.o.dur/4, tr)
	var maxLate time.Duration
	for _, s := range lr.samples {
		res.attempted++
		if s.err != nil {
			res.failed++
			continue
		}
		maxLate = max(maxLate, s.late)
	}

	res.metrics = append(pipe, serving...)
	res.add("bench.gen_late_max_ms", float64(maxLate)/1e6, "ms", len(lr.samples))
	path := filepath.Join(r.o.workdir, fmt.Sprintf("spans-%s-seed%d.json", r.w.name, r.o.seed))
	if err := tr.writeJSON(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return res, nil
}

// replayPipeline replays every image, in passes until deadline (at least
// one), next to a serial core.DisassembleELF of the same image, which
// supplies the untraced wall time and the expected result. It returns
// the pipeline layer metrics, each a mean per image.
func (r *runner) replayPipeline(tr *tracer, res *result, deadline time.Time) ([]metric, error) {
	p := &replayer{tr: tr, model: r.env.model}
	serial := core.New(r.env.model, core.WithWorkers(1))
	// One unmeasured run first: the first pipeline call of a process grows
	// the heap, and the page faults would land on whichever side ran it.
	if _, err := serial.DisassembleELF(r.ims[0].elf); err != nil {
		return nil, err
	}
	n := len(r.ims)
	var wall time.Duration
	walls := make([][]float64, n) // untraced wall times of each image
	images := 0
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		for i, im := range r.ims {
			req := pass*n + i
			var want []core.SectionResult
			var err error
			untraced := func() {
				t0 := time.Now()
				want, err = serial.DisassembleELF(im.elf)
				d := time.Since(t0)
				walls[i] = append(walls[i], float64(d))
				wall += d
			}
			// Alternate which of the two runs first, so neither always
			// finds the caches warm.
			if req%2 == 0 {
				untraced()
			}
			got, rerr := p.image(im.elf, req)
			if req%2 == 1 {
				untraced()
			}
			if err != nil || rerr != nil {
				return nil, errors.Join(err, rerr)
			}
			images++
			res.attempted++
			if !reflect.DeepEqual(got, want) {
				res.failed++
				fmt.Fprintf(os.Stderr, "%s: replay of image %d differs from the pipeline\n", r.w.name, i)
			}
		}
	}

	spans := tr.snapshot()
	self := selfByName(spans)
	// The replay's excess over the real pipeline, per image from the
	// fastest call on each side (a call on a shared machine is only ever
	// slowed down, by up to 25%), as the median over images.
	replayed := make([][]float64, n)
	var replayedAll time.Duration
	for _, s := range spans {
		if s.Name == "image" {
			replayed[s.Req%n] = append(replayed[s.Req%n], float64(s.dur()))
			replayedAll += time.Duration(s.dur())
		}
	}
	var overhead []float64
	for i := range r.ims {
		w := slices.Min(walls[i])
		overhead = append(overhead, 100*(slices.Min(replayed[i])-w)/w)
	}
	per := func(d time.Duration) float64 { return float64(d) / 1e6 / float64(images) }
	count := func(v int64) float64 { return float64(v) / float64(images) }
	pct := func(a, b int64) float64 { return 100 * float64(a) / float64(max(b, 1)) }

	var m result
	m.add("elfx.parse_ms", per(self["elfx.parse"]), "ms", images)
	m.add("superset.build_ms", per(self["superset.build"]), "ms", images)
	m.add("superset.mb_s", float64(p.sectionBytes)/self["superset.build"].Seconds()/1e6, "MB/s", images)
	m.add("superset.scan_fallback_pct", pct(p.scanFallbacks, p.sectionBytes), "%", images)
	m.add("superset.dcache_hit_pct", pct(p.dcHits, p.dcHits+p.dcMiss), "%", images)
	m.add("analysis.viability_ms", per(self["analysis.viability"]), "ms", images)
	for _, a := range []string{"entry", "jumptable", "calltarget", "prologue", "datapattern", "literalpool"} {
		m.add("analysis.hints."+a+"_ms", per(self["analysis.hints."+a]), "ms", images)
	}
	m.add("analysis.hints.count", count(p.hints), "count", images)
	m.add("tier.partition_ms", per(self["tier.partition"]), "ms", images)
	m.add("tier.settled_pct", pct(p.settled, p.sectionBytes), "%", images)
	m.add("stats.score_ms", per(self["stats.score"]), "ms", images)
	m.add("stats.scored_bytes", count(p.scored), "count", images)
	m.add("analysis.stathints_ms", per(self["analysis.stathints"]), "ms", images)
	m.add("correct.self_ms", per(self["correct"]), "ms", images)
	m.add("correct.committed", count(p.committed), "count", images)
	m.add("correct.rejected_pct", pct(p.rejected, p.committed+p.rejected), "%", images)
	m.add("correct.retracted", count(p.retracted), "count", images)
	m.add("core.emit_ms", per(self["core.emit"]), "ms", images)
	m.add("cfg.ms", per(self["cfg"]), "ms", images)
	m.add("cfg.blocks", count(p.blocks), "count", images)
	m.add("core.pipeline_ms", per(wall), "ms", images)
	// Time inside the replayed images that no layer span covers: the glue
	// between layer calls.
	m.add("core.unattributed_pct", 100*float64(self["image"])/float64(replayedAll), "%", images)
	m.add("bench.trace_overhead_pct", median(overhead), "%", images)
	return m.metrics, nil
}

// replayedServing is how many images the serving replay sends.
const replayedServing = 16

// replayServing sends a sample of the images through the workload's
// server configuration once per cache tier — a miss and a memory hit on
// one server, then a disk hit on a second server sharing its store —
// and replays spool ingest and store put/get on the same bodies. It
// returns the serving layer metrics, each a median per call.
func (r *runner) replayServing(tr *tracer, res *result) ([]metric, error) {
	ims := r.ims
	if k := len(ims); k > replayedServing {
		ims = nil
		for j := 0; j < replayedServing; j++ {
			ims = append(ims, r.ims[j*k/replayedServing])
		}
	}
	refs, err := referenceBodies(core.New(r.env.model), ims)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(r.o.workdir, "replay-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	t0 := len(tr.snapshot())

	cfg := r.o.serveConfig(filepath.Join(dir, "store"))
	d := core.New(r.env.model, r.w.coreOptions()...)
	cfg.Pipeline = func(ctx context.Context, img []byte, sp *obs.Span) ([]core.SectionDetail, error) {
		id := tr.start("serve.pipeline", 0, -1)
		defer tr.end(id)
		return d.DisassembleELFTraceContext(ctx, img, sp)
	}
	client := newClient()
	defer client.CloseIdleConnections()
	check := func(s sample, tier string) {
		res.attempted++
		if s.err == nil && s.tier != tier {
			s.err = fmt.Errorf("answered from %q, want %q", s.tier, tier)
		}
		if s.err != nil {
			res.failed++
			fmt.Fprintf(os.Stderr, "%s: serving replay: %v\n", r.w.name, s.err)
		}
	}
	for round, tiers := range [][]string{{"miss", "hit"}, {"disk"}} {
		srv, err := startServer(d, cfg)
		if err != nil {
			return nil, err
		}
		if round == 0 {
			for i := 0; i < 50; i++ {
				id := tr.start("serve.healthz", 0, i)
				resp, err := client.Get(srv.url + "/healthz")
				if err == nil {
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						err = fmt.Errorf("healthz status %d", resp.StatusCode)
					}
				}
				tr.end(id)
				check(sample{err: err}, "")
			}
		}
		for i, im := range ims {
			for _, tier := range tiers {
				id := tr.start(tierSpan[tier], 0, i)
				s := post(client, srv.url, im.elf, false, refs[i])
				tr.end(id)
				check(s, tier)
			}
		}
		client.CloseIdleConnections()
		srv.close()
	}

	st, err := store.Open(filepath.Join(dir, "replay-store"), 0, core.PipelineFingerprint)
	if err != nil {
		return nil, err
	}
	spilled := 0
	for i, im := range ims {
		key := sha256.Sum256(im.elf)
		var perr error
		tr.call("store.put", 0, i, func() { perr = st.Put(key, refs[i]) })
		var got []byte
		var ok bool
		tr.call("store.get", 0, i, func() { got, ok = st.Get(key) })
		if perr == nil && (!ok || !bytes.Equal(got, refs[i])) {
			perr = errors.New("store returned a different body")
		}
		check(sample{err: perr}, "")

		var b *spool.Body
		var serr error
		spoolCfg := spool.Config{Threshold: spool.DefaultThreshold, Dir: dir}
		tr.call("spool.spool", 0, i, func() { b, serr = spool.Spool(spoolCfg, bytes.NewReader(im.elf)) })
		if serr == nil {
			var view []byte
			tr.call("spool.view", 0, i, func() { view, serr = b.View() })
			if serr == nil && !bytes.Equal(view, im.elf) {
				serr = errors.New("spool view differs from the body")
			}
			if b.Spilled() {
				spilled++
			}
			b.Close()
		}
		check(sample{err: serr}, "")
	}

	durs := map[string][]float64{}
	for _, s := range tr.snapshot()[t0:] {
		durs[s.Name] = append(durs[s.Name], float64(s.dur())/1e6)
	}
	// Only misses run the pipeline and the replay sends one request at a
	// time, so the i-th pipeline span belongs to the i-th miss.
	var overhead []float64
	for i, miss := range durs["serve.miss"] {
		if i < len(durs["serve.pipeline"]) {
			overhead = append(overhead, miss-durs["serve.pipeline"][i])
		}
	}
	var m result
	n := len(ims)
	for _, name := range []string{"serve.healthz", "serve.miss", "serve.mem_hit", "serve.disk_hit", "serve.pipeline"} {
		m.add(name+"_ms", median(durs[name]), "ms", len(durs[name]))
	}
	m.add("serve.overhead_ms", median(overhead), "ms", len(overhead))
	for _, name := range []string{"store.put", "store.get", "spool.spool", "spool.view"} {
		m.add(name+"_ms", median(durs[name]), "ms", len(durs[name]))
	}
	// Which bodies spill follows from their size against the threshold
	// alone, so the share is printed beside the metrics, not one of them.
	res.extra = append(res.extra, metric{"spool.spilled_share", float64(spilled) / float64(n), "ratio", n})
	return m.metrics, nil
}

// tierSpan names the serving-replay span of each X-Probedis-Cache answer.
var tierSpan = map[string]string{"miss": "serve.miss", "hit": "serve.mem_hit", "disk": "serve.disk_hit"}
