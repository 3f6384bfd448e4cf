package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

const testFP = "pipeline-test-v1"

func open(t *testing.T, root string, maxBytes int64, fp string) *Store {
	t.Helper()
	s, err := Open(root, maxBytes, fp)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func key(b []byte) [32]byte { return sha256.Sum256(b) }

func TestPutGetRoundtrip(t *testing.T) {
	s := open(t, t.TempDir(), 1<<20, testFP)
	body := []byte(`{"sections":[{"name":".text"}]}`)
	k := key(body)

	if _, ok := s.Get(k); ok {
		t.Fatal("Get before Put hit")
	}
	if s.MissCount() != 1 {
		t.Errorf("miss count = %d", s.MissCount())
	}
	if err := s.Put(k, body); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(k)
	if !ok || !bytes.Equal(got, body) {
		t.Fatalf("Get after Put: ok=%v body=%q", ok, got)
	}
	if s.HitCount() != 1 {
		t.Errorf("hit count = %d", s.HitCount())
	}
	if s.EntryCount() != 1 {
		t.Errorf("entry count = %d", s.EntryCount())
	}
	if s.ByteCount() <= int64(len(body)) {
		t.Errorf("byte count = %d, want > body length (header overhead)", s.ByteCount())
	}
	// Nothing staged left behind.
	if ents, _ := os.ReadDir(s.tmpDir()); len(ents) != 0 {
		t.Errorf("tmp dir not empty after Put: %d files", len(ents))
	}
}

// TestSharedRootAcrossStores is the replica-sharing contract at the
// store layer: a second Store over the same root serves the first
// one's entries byte-identically, including a cold Open after the
// writer is gone.
func TestSharedRootAcrossStores(t *testing.T) {
	root := t.TempDir()
	a := open(t, root, 1<<20, testFP)
	body := []byte("replica-shared-result")
	k := key(body)
	if err := a.Put(k, body); err != nil {
		t.Fatal(err)
	}

	// Live second replica.
	b := open(t, root, 1<<20, testFP)
	got, ok := b.Get(k)
	if !ok || !bytes.Equal(got, body) {
		t.Fatalf("replica B: ok=%v body=%q", ok, got)
	}
	if b.HitCount() != 1 || b.MissCount() != 0 {
		t.Errorf("replica B counters: hits=%d misses=%d", b.HitCount(), b.MissCount())
	}
	// Cold restart sees it too, and accounting is derived from disk.
	c := open(t, root, 1<<20, testFP)
	if c.EntryCount() != 1 {
		t.Errorf("cold open entry count = %d", c.EntryCount())
	}
	if got, ok := c.Get(k); !ok || !bytes.Equal(got, body) {
		t.Fatalf("cold open: ok=%v body=%q", ok, got)
	}
}

// TestFingerprintInvalidation: a store never serves an entry written
// under another fingerprint (another pipeline version or model), and
// never deletes one, at Open or at Get: replicas with different
// fingerprints alternating on one root read miss, miss, then each its
// own entry back, and the root's accounting counts both.
func TestFingerprintInvalidation(t *testing.T) {
	root := t.TempDir()
	k := key([]byte("one image"))
	bodies := map[string][]byte{"fp-v1": []byte("result-under-v1"), "fp-v2": []byte("result-under-v2")}
	for i, fp := range []string{"fp-v1", "fp-v2", "fp-v1", "fp-v2"} {
		s := open(t, root, 1<<20, fp)
		got, ok := s.Get(k)
		if i < 2 {
			if ok {
				t.Fatalf("request %d (%s): served %q before this fingerprint stored anything", i, fp, got)
			}
			if err := s.Put(k, bodies[fp]); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if !ok || !bytes.Equal(got, bodies[fp]) {
			t.Fatalf("request %d (%s): ok=%v body=%q, want its own stored body", i, fp, ok, got)
		}
		if s.EntryCount() != 2 || s.CorruptionCount() != 0 {
			t.Errorf("request %d (%s): %d entries, %d corrupt; want both fingerprints' entries and none corrupt",
				i, fp, s.EntryCount(), s.CorruptionCount())
		}
	}
	if ents, _ := os.ReadDir(filepath.Join(root, "quarantine")); len(ents) != 0 {
		t.Errorf("entries quarantined: %d", len(ents))
	}
}

// TestLazyStaleSweepOnGet covers the other sweep path: the stale entry
// appears after this store opened. An entry another fingerprint's
// replica writes is not this store's to judge, so Get misses and leaves
// it; an entry of another format version at the store's own path (a
// replica of another store generation) is stale, so Get deletes it.
func TestLazyStaleSweepOnGet(t *testing.T) {
	root := t.TempDir()
	nw := open(t, root, 1<<20, "fp-v2")
	old := open(t, root, 1<<20, "fp-v1")
	body := []byte("written-after-open")
	k := key(body)
	if err := old.Put(k, body); err != nil {
		t.Fatal(err)
	}
	if _, ok := nw.Get(k); ok {
		t.Fatal("another fingerprint's entry served")
	}
	if _, err := os.Stat(old.entryPath(k)); err != nil {
		t.Errorf("Get deleted another fingerprint's entry: %v", err)
	}

	writeOtherVersion(t, nw, k, body)
	if _, ok := nw.Get(k); ok {
		t.Fatal("stale entry served")
	}
	if _, err := os.Stat(nw.entryPath(k)); !os.IsNotExist(err) {
		t.Error("stale entry not swept by Get")
	}
}

// TestOpenSweepsStaleEntries covers the Open-time sweep: an entry of
// another format version at the store's own path (written before a
// version bump) is deleted when the store opens, and is neither counted
// nor quarantined as corrupt.
func TestOpenSweepsStaleEntries(t *testing.T) {
	root := t.TempDir()
	s := open(t, root, 1<<20, testFP)
	body := []byte("written-before-a-version-bump")
	k := key(body)
	writeOtherVersion(t, s, k, body)

	s2 := open(t, root, 1<<20, testFP)
	if s2.EntryCount() != 0 || s2.CorruptionCount() != 0 {
		t.Errorf("after reopen: %d entries, %d corrupt; want none", s2.EntryCount(), s2.CorruptionCount())
	}
	if _, err := os.Stat(s2.entryPath(k)); !os.IsNotExist(err) {
		t.Error("stale entry not swept by Open")
	}
	if q, _ := os.ReadDir(s2.QuarantineDir()); len(q) != 0 {
		t.Errorf("quarantine holds %d files, want none", len(q))
	}
}

// writeOtherVersion writes body at s's own path for k as an intact entry
// of another format version: the header's version changed and the
// checksum recomputed over it, so s must judge it stale, not corrupt.
func writeOtherVersion(t *testing.T, s *Store, k [32]byte, body []byte) {
	t.Helper()
	enc := encodeEntry(body, s.fp)
	payload := bytes.Clone(enc[:len(enc)-sha256.Size])
	binary.LittleEndian.PutUint32(payload[8:], entryVersion+1)
	if err := os.MkdirAll(filepath.Dir(s.entryPath(k)), 0o755); err != nil {
		t.Fatal(err)
	}
	writeFile(t, s.entryPath(k), encodeRaw(payload))
}

// TestByteBudgetSpansFingerprints: the byte budget and its LRU cover the
// whole root, so the entries of a fingerprint no replica uses any more
// age out as another fingerprint's replica publishes.
func TestByteBudgetSpansFingerprints(t *testing.T) {
	root := t.TempDir()
	body := bytes.Repeat([]byte{'x'}, 1000)
	old := open(t, root, 2500, "fp-v1")
	if err := old.Put(key([]byte("old")), body); err != nil {
		t.Fatal(err)
	}
	past := time.Now().Add(-time.Hour)
	os.Chtimes(old.entryPath(key([]byte("old"))), past, past)
	nw := open(t, root, 2500, "fp-v2")
	for _, name := range []string{"a", "b"} {
		if err := nw.Put(key([]byte(name)), body); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(old.entryPath(key([]byte("old")))); !os.IsNotExist(err) {
		t.Error("the unused fingerprint's least-recently-used entry survived the sweep")
	}
	if nw.EntryCount() != 2 || nw.EvictionCount() != 1 {
		t.Errorf("entries %d, evictions %d; want 2 and 1", nw.EntryCount(), nw.EvictionCount())
	}
}

// TestByteBudgetLRUSweep fills the store past its budget and checks the
// least-recently-accessed entries go first — with recency set by Get,
// not Put order.
func TestByteBudgetLRUSweep(t *testing.T) {
	bodies := make([][]byte, 4)
	var keys [][32]byte
	for i := range bodies {
		bodies[i] = bytes.Repeat([]byte{byte('a' + i)}, 1000)
		keys = append(keys, key(bodies[i]))
	}
	entrySize := int64(len(encodeEntry(bodies[0], testFP)))
	s := open(t, t.TempDir(), 3*entrySize, testFP)

	for i := 0; i < 3; i++ {
		if err := s.Put(keys[i], bodies[i]); err != nil {
			t.Fatal(err)
		}
		// Distinct mtimes even on coarse filesystem timestamps.
		now := time.Now().Add(time.Duration(i-10) * time.Second)
		os.Chtimes(s.entryPath(keys[i]), now, now)
	}
	// Touch entry 0 so entry 1 is now the oldest.
	if _, ok := s.Get(keys[0]); !ok {
		t.Fatal("warm entry missing")
	}
	if err := s.Put(keys[3], bodies[3]); err != nil {
		t.Fatal(err)
	}
	if s.EvictionCount() == 0 {
		t.Fatal("no eviction recorded")
	}
	if _, ok := s.Get(keys[1]); ok {
		t.Error("LRU entry survived the sweep")
	}
	for _, i := range []int{0, 3} {
		if got, ok := s.Get(keys[i]); !ok || !bytes.Equal(got, bodies[i]) {
			t.Errorf("entry %d should have survived (ok=%v)", i, ok)
		}
	}
	if s.ByteCount() > 3*entrySize {
		t.Errorf("byte count %d over budget %d after sweep", s.ByteCount(), 3*entrySize)
	}
}

// TestPutErrFull: a body that cannot fit the budget at all is refused
// with ErrFull and evicts nothing.
func TestPutErrFull(t *testing.T) {
	s := open(t, t.TempDir(), 256, testFP)
	small := []byte("fits")
	if err := s.Put(key(small), small); err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte{0xcc}, 1024)
	if err := s.Put(key(big), big); err != ErrFull {
		t.Fatalf("err = %v, want ErrFull", err)
	}
	if got, ok := s.Get(key(small)); !ok || !bytes.Equal(got, small) {
		t.Error("resident entry lost to a refused oversized Put")
	}
}

// TestSameKeyReplace: re-publishing a key replaces the entry without
// double-counting its bytes.
func TestSameKeyReplace(t *testing.T) {
	s := open(t, t.TempDir(), 1<<20, testFP)
	k := key([]byte("the-key"))
	if err := s.Put(k, []byte("first")); err != nil {
		t.Fatal(err)
	}
	first := s.ByteCount()
	if err := s.Put(k, []byte("second")); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(k); !ok || string(got) != "second" {
		t.Fatalf("replace: ok=%v body=%q (last writer must win)", ok, got)
	}
	if s.EntryCount() != 1 {
		t.Errorf("entry count = %d after same-key replace", s.EntryCount())
	}
	if diff := s.ByteCount() - first; diff < 0 || diff > 16 {
		t.Errorf("byte accounting drifted by %d on replace", diff)
	}
}

// TestConcurrentSameKeyPublishConverges: racing publishers (two
// replica handles, many goroutines, two distinct bodies) must leave
// exactly one complete, checksum-valid entry that equals one of the
// published bodies — rename atomicity means no interleaving, ever.
func TestConcurrentSameKeyPublishConverges(t *testing.T) {
	root := t.TempDir()
	a := open(t, root, 1<<20, testFP)
	b := open(t, root, 1<<20, testFP)
	k := key([]byte("contended-key"))
	bodyA := bytes.Repeat([]byte("A"), 4096)
	bodyB := bytes.Repeat([]byte("B"), 4096)

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				a.Put(k, bodyA)
			} else {
				b.Put(k, bodyB)
			}
		}(i)
	}
	wg.Wait()

	// Every handle and a cold open agree on one intact winner.
	for name, s := range map[string]*Store{"a": a, "b": b, "cold": open(t, root, 1<<20, testFP)} {
		got, ok := s.Get(k)
		if !ok {
			t.Fatalf("%s: no entry after concurrent publish", name)
		}
		if !bytes.Equal(got, bodyA) && !bytes.Equal(got, bodyB) {
			t.Fatalf("%s: interleaved entry: %.32q...", name, got)
		}
		if s.CorruptionCount() != 0 {
			t.Errorf("%s: corruption after concurrent publish", name)
		}
	}
	// Deterministic in the sequential case: last writer wins.
	if err := a.Put(k, bodyA); err != nil {
		t.Fatal(err)
	}
	if err := b.Put(k, bodyB); err != nil {
		t.Fatal(err)
	}
	if got, ok := a.Get(k); !ok || !bytes.Equal(got, bodyB) {
		t.Error("sequential same-key publish: last writer did not win")
	}
}

// TestOpenCleansTmpOrphans: staged files left by a crashed publisher
// are swept at Open.
func TestOpenCleansTmpOrphans(t *testing.T) {
	root := t.TempDir()
	s := open(t, root, 1<<20, testFP)
	orphan := filepath.Join(s.tmpDir(), "put-orphan")
	if err := os.WriteFile(orphan, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, root, 1<<20, testFP)
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Error("tmp orphan survived Open")
	}
	if s2.EntryCount() != 0 {
		t.Errorf("orphan counted as entry: %d", s2.EntryCount())
	}
}

func TestEncodeDecodeEntry(t *testing.T) {
	for _, body := range [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xaa}, 100000)} {
		enc := encodeEntry(body, testFP)
		got, v := decodeEntry(enc, testFP)
		if v != entryOK || !bytes.Equal(got, body) {
			t.Fatalf("roundtrip len=%d: verdict=%v", len(body), v)
		}
		if _, v := decodeEntry(enc, "other-fp"); v != entryStale {
			t.Errorf("len=%d: wrong fingerprint verdict = %v, want stale", len(body), v)
		}
	}
}

func TestDefaultBudget(t *testing.T) {
	s := open(t, t.TempDir(), 0, testFP)
	if s.maxBytes != DefaultMaxBytes {
		t.Errorf("default budget = %d", s.maxBytes)
	}
}

func TestManyKeysFanOut(t *testing.T) {
	s := open(t, t.TempDir(), 1<<20, testFP)
	for i := 0; i < 64; i++ {
		body := []byte(fmt.Sprintf("result-%d", i))
		if err := s.Put(key(body), body); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		body := []byte(fmt.Sprintf("result-%d", i))
		if got, ok := s.Get(key(body)); !ok || !bytes.Equal(got, body) {
			t.Fatalf("key %d: ok=%v", i, ok)
		}
	}
	if s.EntryCount() != 64 {
		t.Errorf("entry count = %d", s.EntryCount())
	}
}
