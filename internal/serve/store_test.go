package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"probedis/internal/core"
	"probedis/internal/obs"
	"probedis/internal/stats"
)

// replica builds a model-free server over a shared store root.
func replica(t *testing.T, storeDir string, mutate ...func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		Slots: 2, MaxBytes: 1 << 20, CacheEntries: 8, CacheBytes: 1 << 20,
		StoreDir: storeDir,
	}
	for _, m := range mutate {
		m(&cfg)
	}
	s, err := New(core.New(nil, core.WithWorkers(1)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestTwoReplicasShareStore is the cross-replica acceptance check: a
// result computed by replica A is answered by a cold replica B from
// disk, byte for byte, without B ever running the pipeline.
func TestTwoReplicasShareStore(t *testing.T) {
	dir := t.TempDir()
	img := synthELF(t, 21)

	a := replica(t, dir)
	recA := post(t, a, "/disassemble", img)
	if recA.Code != http.StatusOK {
		t.Fatalf("replica A: status %d: %s", recA.Code, recA.Body)
	}
	if got := recA.Header().Get("X-Probedis-Cache"); got != "miss" {
		t.Fatalf("replica A cache state = %q, want miss", got)
	}
	if runs := counterVal(a, "probedis_pipeline_runs_total"); runs != 1 {
		t.Fatalf("replica A pipeline runs = %d, want 1", runs)
	}

	// Replica B is cold in memory but shares the store root.
	b := replica(t, dir)
	recB := post(t, b, "/disassemble", img)
	if recB.Code != http.StatusOK {
		t.Fatalf("replica B: status %d: %s", recB.Code, recB.Body)
	}
	if got := recB.Header().Get("X-Probedis-Cache"); got != "disk" {
		t.Fatalf("replica B cache state = %q, want disk", got)
	}
	if !bytes.Equal(recA.Body.Bytes(), recB.Body.Bytes()) {
		t.Fatal("replica B's disk-served body differs from replica A's computed one")
	}
	if runs := counterVal(b, "probedis_pipeline_runs_total"); runs != 0 {
		t.Fatalf("replica B ran the pipeline %d times answering from disk", runs)
	}
	if b.Store().HitCount() != 1 {
		t.Fatalf("replica B store hits = %d", b.Store().HitCount())
	}

	// The disk hit seeded B's memory cache: a repeat is a memory hit.
	recB2 := post(t, b, "/disassemble", img)
	if got := recB2.Header().Get("X-Probedis-Cache"); got != "hit" {
		t.Fatalf("replica B second request = %q, want hit", got)
	}
}

// TestConcurrentReplicaPublishConverges: two replicas racing to
// publish the same key into one store must converge on a single intact
// entry that serves every later reader — rename-on-publish makes the
// race last-writer-wins, never torn.
func TestConcurrentReplicaPublishConverges(t *testing.T) {
	dir := t.TempDir()
	img := synthELF(t, 28)
	reps := []*Server{replica(t, dir), replica(t, dir)}

	const n = 8
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := post(t, reps[i%2], "/disassemble", img)
			if rec.Code == http.StatusOK {
				bodies[i] = rec.Body.Bytes()
			}
		}(i)
	}
	wg.Wait()
	for i, b := range bodies {
		if b == nil {
			t.Fatalf("request %d did not get a 200", i)
		}
		if !bytes.Equal(b, bodies[0]) {
			t.Fatalf("request %d body diverged", i)
		}
	}

	// A cold third replica reads whichever publish won — it must be
	// intact and identical (the model-free pipeline is deterministic).
	c := replica(t, dir)
	rec := post(t, c, "/disassemble", img)
	if rec.Code != http.StatusOK {
		t.Fatalf("cold replica status %d", rec.Code)
	}
	if got := rec.Header().Get("X-Probedis-Cache"); got != "disk" {
		t.Fatalf("cold replica cache state = %q, want disk", got)
	}
	if !bytes.Equal(rec.Body.Bytes(), bodies[0]) {
		t.Fatal("cold replica served a different body than the racers")
	}
	for i, r := range append(reps, c) {
		if cnt := r.Store().CorruptionCount(); cnt != 0 {
			t.Errorf("replica %d saw %d corrupt entries during the race", i, cnt)
		}
	}
}

// TestFingerprintChangeInvalidatesStore: a replica whose disassembler
// has another fingerprint (here, jump-table recovery off) must not serve
// entries written under the old one — it recomputes and repopulates.
func TestFingerprintChangeInvalidatesStore(t *testing.T) {
	dir := t.TempDir()
	img := synthELF(t, 22)

	a := replica(t, dir)
	if rec := post(t, a, "/disassemble", img); rec.Code != http.StatusOK {
		t.Fatalf("seed: status %d", rec.Code)
	}

	b, err := New(core.New(nil, core.WithWorkers(1), core.WithoutJumpTables()), Config{
		Slots: 2, MaxBytes: 1 << 20, CacheEntries: 8, CacheBytes: 1 << 20, StoreDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := post(t, b, "/disassemble", img)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("X-Probedis-Cache"); got != "miss" {
		t.Fatalf("stale-fingerprint entry served: cache state %q", got)
	}
	if runs := counterVal(b, "probedis_pipeline_runs_total"); runs != 1 {
		t.Fatalf("pipeline runs = %d, want 1 (recompute)", runs)
	}
	// The old fingerprint's entry is not mistaken for a corrupt one.
	if n := b.Store().CorruptionCount(); n != 0 {
		t.Fatalf("fingerprint rotation produced %d corruption reports", n)
	}
}

// TestStoreSeparatesModels: the store is tagged with the disassembler's
// own fingerprint, which names its statistical model. Servers with the default model and with another one
// alternate on one store directory: neither answers from the entries the
// other wrote, and neither deletes them, so the third and fourth requests
// are disk hits, each with its own model's body.
func TestStoreSeparatesModels(t *testing.T) {
	dir := t.TempDir()
	img := synthELF(t, 24)
	other := core.TrainModel(2_000_000, 1, 20)
	request := func(m *stats.Model) (body []byte, cache string) {
		t.Helper()
		s, err := New(core.New(m, core.WithWorkers(1)), Config{
			Slots: 1, MaxBytes: 1 << 20, CacheEntries: 8, CacheBytes: 1 << 20, StoreDir: dir,
		})
		if err != nil {
			t.Fatal(err)
		}
		rec := post(t, s, "/disassemble", img)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		return rec.Body.Bytes(), rec.Header().Get("X-Probedis-Cache")
	}

	first, cache := request(core.DefaultModel())
	if cache != "miss" {
		t.Fatalf("first server: cache state %q, want miss", cache)
	}
	otherBody, cache := request(other)
	if cache != "miss" {
		t.Fatalf("server with another model: cache state %q, want miss", cache)
	}
	if bytes.Equal(otherBody, first) {
		t.Fatal("precondition: both models give the same body on this image")
	}
	if again, cache := request(core.DefaultModel()); cache != "disk" || !bytes.Equal(again, first) {
		t.Fatalf("server reopened with the default model: cache state %q, same body %v; want a disk hit with the stored body",
			cache, bytes.Equal(again, first))
	}
	if again, cache := request(other); cache != "disk" || !bytes.Equal(again, otherBody) {
		t.Fatalf("server reopened with the other model: cache state %q, same body %v; want a disk hit with its body",
			cache, bytes.Equal(again, otherBody))
	}
}

// TestStoreFullIs507: a result too large for the store's byte budget
// refuses with 507, the documented store-full policy.
func TestStoreFullIs507(t *testing.T) {
	s := replica(t, t.TempDir(), func(c *Config) { c.StoreBytes = 64 }) // smaller than any entry
	rec := post(t, s, "/disassemble", synthELF(t, 23))
	if rec.Code != http.StatusInsufficientStorage {
		t.Fatalf("status = %d, want 507; body: %s", rec.Code, rec.Body)
	}
	var e errorResponse
	if json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Error == "" {
		t.Fatalf("507 body not a JSON error: %s", rec.Body)
	}
}

// TestOversized413CountsSpooledBytesNotContentLength: a chunked upload
// with no Content-Length must still 413 once the spooled byte count
// crosses the cap, and refused bodies must not inflate
// request_bytes_total (admitted-bytes accounting).
func TestOversized413CountsSpooledBytesNotContentLength(t *testing.T) {
	const maxBytes = 32 << 10
	s := fastServer(Config{Slots: 1, MaxBytes: maxBytes, CacheEntries: 4, CacheBytes: 1 << 20})

	before := counterVal(s, "probedis_request_bytes_total")
	// io.LimitReader hides the length from httptest.NewRequest:
	// ContentLength becomes -1, the chunked/streaming case.
	body := io.LimitReader(neverEnding('x'), maxBytes+512)
	req := httptest.NewRequest(http.MethodPost, "/disassemble", body)
	if req.ContentLength != -1 {
		t.Fatalf("test harness leaked a Content-Length: %d", req.ContentLength)
	}
	rec := httptest.NewRecorder()
	s.Routes().ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", rec.Code)
	}
	if after := counterVal(s, "probedis_request_bytes_total"); after != before {
		t.Fatalf("refused request inflated request_bytes_total by %d", after-before)
	}

	// A lying Content-Length over the cap is refused before spooling.
	req2 := httptest.NewRequest(http.MethodPost, "/disassemble", bytes.NewReader([]byte{1}))
	req2.ContentLength = maxBytes + 1
	rec2 := httptest.NewRecorder()
	s.Routes().ServeHTTP(rec2, req2)
	if rec2.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("declared-oversize status = %d, want 413", rec2.Code)
	}
}

// neverEnding is an infinite reader of one byte value.
type neverEnding byte

func (b neverEnding) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(b)
	}
	return len(p), nil
}

// TestRequestBytesCountedOnlyAfterAdmission: a request shed at the
// admission queue must not count toward request_bytes_total.
func TestRequestBytesCountedOnlyAfterAdmission(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{}, 8)
	s := fastServer(Config{
		Slots: 1, Queue: -1, MaxBytes: 1 << 20, CacheEntries: 4, CacheBytes: 1 << 20,
		Pipeline: func(ctx context.Context, img []byte, tr *obs.Span) ([]core.SectionDetail, error) {
			started <- struct{}{}
			<-block
			return nil, ctx.Err()
		},
	})
	imgA, imgB := synthELF(t, 24), synthELF(t, 25)

	done := make(chan int64, 1)
	go func() {
		post(t, s, "/disassemble", imgA)
		done <- 1
	}()
	<-started // the slot is now occupied

	before := counterVal(s, "probedis_request_bytes_total")
	rec := post(t, s, "/disassemble", imgB) // queue disabled: shed immediately
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", rec.Code)
	}
	if after := counterVal(s, "probedis_request_bytes_total"); after != before {
		t.Fatalf("shed request counted %d bytes as admitted", after-before)
	}
	close(block)
	<-done
	if got := counterVal(s, "probedis_request_bytes_total"); got != int64(len(imgA)) {
		t.Fatalf("admitted bytes = %d, want %d (the one admitted image)", got, len(imgA))
	}
}

// TestDiskHitSkipsAdmissionAndAccounting: answering from the store
// needs no pipeline slot and counts no admitted bytes.
func TestDiskHitSkipsAdmissionAndAccounting(t *testing.T) {
	dir := t.TempDir()
	img := synthELF(t, 26)
	a := replica(t, dir)
	if rec := post(t, a, "/disassemble", img); rec.Code != http.StatusOK {
		t.Fatalf("seed failed: %d", rec.Code)
	}

	// Replica B's only pipeline slot is wedged; the disk hit must still
	// be served.
	block := make(chan struct{})
	started := make(chan struct{}, 1)
	b := replica(t, dir, func(c *Config) {
		c.Slots, c.Queue = 1, -1
		c.Pipeline = func(ctx context.Context, img []byte, tr *obs.Span) ([]core.SectionDetail, error) {
			started <- struct{}{}
			<-block
			return nil, ctx.Err()
		}
	})
	wedgeDone := make(chan struct{})
	go func() {
		defer close(wedgeDone)
		post(t, b, "/disassemble", synthELF(t, 27))
	}()
	<-started
	// The wedged request was admitted, so its bytes are already counted;
	// the disk hit must add nothing on top.
	before := counterVal(b, "probedis_request_bytes_total")

	rec := post(t, b, "/disassemble", img)
	close(block)
	<-wedgeDone
	if rec.Code != http.StatusOK {
		t.Fatalf("disk hit blocked behind a wedged slot: status %d", rec.Code)
	}
	if got := rec.Header().Get("X-Probedis-Cache"); got != "disk" {
		t.Fatalf("cache state = %q, want disk", got)
	}
	if got := counterVal(b, "probedis_request_bytes_total"); got != before {
		t.Fatalf("disk hit counted %d admitted bytes", got-before)
	}
}
