package serve

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

func k(s string) cacheKey { return sha256.Sum256([]byte(s)) }

func TestLRUGetPut(t *testing.T) {
	c := newLRU(4, 0)
	if _, ok := c.get(k("a")); ok {
		t.Fatal("hit on empty cache")
	}
	if ev := c.put(k("a"), []byte("body-a")); ev != 0 {
		t.Fatalf("evicted %d on first insert", ev)
	}
	body, ok := c.get(k("a"))
	if !ok || string(body) != "body-a" {
		t.Fatalf("get = %q/%v", body, ok)
	}
	if c.len() != 1 || c.sizeBytes() != 6 {
		t.Fatalf("len=%d bytes=%d", c.len(), c.sizeBytes())
	}
}

func TestLRUEntryBoundEvictsOldest(t *testing.T) {
	c := newLRU(2, 0)
	c.put(k("a"), []byte("a"))
	c.put(k("b"), []byte("b"))
	// Touch a so b is the least recently used.
	c.get(k("a"))
	if ev := c.put(k("c"), []byte("c")); ev != 1 {
		t.Fatalf("evicted %d, want 1", ev)
	}
	if _, ok := c.get(k("b")); ok {
		t.Fatal("LRU victim b survived")
	}
	if _, ok := c.get(k("a")); !ok {
		t.Fatal("recently-used a evicted")
	}
}

func TestLRUByteBudget(t *testing.T) {
	c := newLRU(100, 10)
	c.put(k("a"), []byte("aaaa")) // 4 bytes
	c.put(k("b"), []byte("bbbb")) // 8 bytes
	if ev := c.put(k("c"), []byte("cccc")); ev != 1 {
		t.Fatalf("evicted %d, want 1 (12 bytes > 10 budget)", ev)
	}
	if c.sizeBytes() > 10 {
		t.Fatalf("bytes=%d over budget", c.sizeBytes())
	}
	// A body over the whole budget is refused outright, evicting nothing.
	before := c.len()
	if ev := c.put(k("huge"), make([]byte, 11)); ev != 0 {
		t.Fatalf("oversized insert evicted %d", ev)
	}
	if c.len() != before {
		t.Fatal("oversized body was stored")
	}
	if _, ok := c.get(k("huge")); ok {
		t.Fatal("oversized body retrievable")
	}
}

func TestLRURefreshSameKey(t *testing.T) {
	c := newLRU(4, 0)
	c.put(k("a"), []byte("v1"))
	c.put(k("a"), []byte("longer-v2"))
	if c.len() != 1 {
		t.Fatalf("len=%d after refresh", c.len())
	}
	body, ok := c.get(k("a"))
	if !ok || string(body) != "longer-v2" {
		t.Fatalf("refresh lost: %q/%v", body, ok)
	}
	if c.sizeBytes() != int64(len("longer-v2")) {
		t.Fatalf("bytes=%d after refresh", c.sizeBytes())
	}
}

// TestLRUOversizedRefreshDropsStaleEntry: refusing an oversized body on a
// key that is already resident must drop the old entry — the refused put
// supersedes it, so keeping it would serve a stale body and keep its
// bytes charged forever.
func TestLRUOversizedRefreshDropsStaleEntry(t *testing.T) {
	c := newLRU(4, 10)
	c.put(k("a"), []byte("v1-old")) // 6 bytes resident
	if ev := c.put(k("a"), make([]byte, 11)); ev != 1 {
		t.Fatalf("oversized refresh evicted %d, want 1 (the stale entry)", ev)
	}
	if body, ok := c.get(k("a")); ok {
		t.Fatalf("stale body %q still served after oversized refresh", body)
	}
	if c.len() != 0 || c.sizeBytes() != 0 {
		t.Fatalf("len=%d bytes=%d after oversized refresh, want 0/0", c.len(), c.sizeBytes())
	}
	// Unrelated resident entries stay untouched.
	c.put(k("b"), []byte("bb"))
	if ev := c.put(k("c"), make([]byte, 11)); ev != 0 {
		t.Fatalf("oversized insert on a fresh key evicted %d", ev)
	}
	if _, ok := c.get(k("b")); !ok {
		t.Fatal("bystander entry lost")
	}
	if c.sizeBytes() != 2 {
		t.Fatalf("bytes=%d, want 2", c.sizeBytes())
	}
}

func TestLRUManyEvictions(t *testing.T) {
	c := newLRU(3, 0)
	total := 0
	for i := 0; i < 10; i++ {
		total += c.put(k(fmt.Sprint(i)), []byte{byte(i)})
	}
	if c.len() != 3 {
		t.Fatalf("len=%d, want 3", c.len())
	}
	if total != 7 {
		t.Fatalf("evictions=%d, want 7", total)
	}
}

func TestGroupSingleLeader(t *testing.T) {
	g := newGroup(4, 0)
	_, f1, hit, lead := g.lookup(k("img"))
	if hit || !lead {
		t.Fatalf("first lookup: hit=%v lead=%v", hit, lead)
	}
	_, f2, hit, lead := g.lookup(k("img"))
	if hit || lead || f2 != f1 {
		t.Fatalf("second lookup must join the flight: hit=%v lead=%v same=%v", hit, lead, f2 == f1)
	}
	g.publish(k("img"), f1, []byte("res"))
	select {
	case <-f1.done:
	default:
		t.Fatal("publish did not close the flight")
	}
	body, _, hit, _ := g.lookup(k("img"))
	if !hit || string(body) != "res" {
		t.Fatalf("post-publish lookup: hit=%v body=%q", hit, body)
	}
}

func TestGroupAbortRetry(t *testing.T) {
	g := newGroup(4, 0)
	_, f, _, lead := g.lookup(k("img"))
	if !lead {
		t.Fatal("not leader")
	}
	g.abort(k("img"), f, 504, "deadline", true)
	<-f.done
	if !f.retry || f.status != 504 || f.body != nil {
		t.Fatalf("flight after abort: %+v", f)
	}
	if _, ok := g.cache.get(k("img")); ok {
		t.Fatal("aborted flight reached the cache")
	}
	// The key is free again: next lookup elects a new leader.
	_, f2, hit, lead := g.lookup(k("img"))
	if hit || !lead || f2 == f {
		t.Fatal("abort did not retire the flight")
	}
}
