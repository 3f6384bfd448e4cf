package serve

import (
	"container/list"
	"sync"
)

// cacheKey is the SHA-256 of the request body: the pipeline is a pure
// function of the image bytes, so content addressing is exact.
type cacheKey = [32]byte

// lru is a doubly-bounded (entry count and total body bytes) LRU of
// marshaled 200 responses. Not safe for concurrent use: the owning
// group serializes access.
type lru struct {
	maxEntries int
	maxBytes   int64
	bytes      int64
	ll         *list.List // front = most recently used
	items      map[cacheKey]*list.Element
}

type lruItem struct {
	key  cacheKey
	body []byte
}

func newLRU(maxEntries int, maxBytes int64) *lru {
	return &lru{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		items:      make(map[cacheKey]*list.Element, maxEntries),
	}
}

func (c *lru) get(key cacheKey) (body []byte, ok bool) {
	e, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(e)
	return e.Value.(*lruItem).body, true
}

// put inserts (or refreshes) an entry and returns how many entries were
// evicted to make room. Bodies larger than the byte budget are not
// stored at all — evicting the whole cache for one oversized response
// would be strictly worse than skipping it.
func (c *lru) put(key cacheKey, body []byte) (evicted int) {
	if c.maxBytes > 0 && int64(len(body)) > c.maxBytes {
		// Refusing the new body must still invalidate a resident entry
		// under the same key: leaving it in place would keep serving the
		// stale body (and keep charging its bytes) after the put was
		// accepted at the caller's layer.
		if e, ok := c.items[key]; ok {
			it := e.Value.(*lruItem)
			c.ll.Remove(e)
			delete(c.items, key)
			c.bytes -= int64(len(it.body))
			evicted++
		}
		return evicted
	}
	if e, ok := c.items[key]; ok {
		it := e.Value.(*lruItem)
		c.bytes += int64(len(body)) - int64(len(it.body))
		it.body = body
		c.ll.MoveToFront(e)
	} else {
		c.items[key] = c.ll.PushFront(&lruItem{key: key, body: body})
		c.bytes += int64(len(body))
	}
	// The just-inserted entry is at the front and within the byte budget
	// (checked above), so with maxEntries >= 1 this never evicts it.
	for c.ll.Len() > c.maxEntries || (c.maxBytes > 0 && c.bytes > c.maxBytes) {
		back := c.ll.Back()
		if back == nil {
			break
		}
		it := back.Value.(*lruItem)
		c.ll.Remove(back)
		delete(c.items, it.key)
		c.bytes -= int64(len(it.body))
		evicted++
	}
	return evicted
}

func (c *lru) len() int         { return c.ll.Len() }
func (c *lru) sizeBytes() int64 { return c.bytes }

// flight is one in-progress pipeline run that duplicate requests for
// the same image attach to instead of re-running the pipeline.
type flight struct {
	done   chan struct{} // closed when the leader finishes
	body   []byte        // marshaled 200 response; nil on failure
	status int           // error status when body == nil
	errMsg string
	// retry marks a leader whose own context ended (deadline or client
	// disconnect, queued or mid-run): the result is nobody's fault and
	// nobody's answer, so joiners re-enter the group and elect a new
	// leader.
	retry bool
}

// group combines the result cache with singleflight deduplication.
// One mutex covers both structures so "cache miss -> become leader" and
// "publish result -> retire flight" are atomic: per unique image there
// is exactly one pipeline run, and a joiner can never miss both the
// flight and the cache entry it published.
type group struct {
	mu      sync.Mutex
	cache   *lru
	flights map[cacheKey]*flight
}

func newGroup(maxEntries int, maxBytes int64) *group {
	return &group{
		cache:   newLRU(maxEntries, maxBytes),
		flights: make(map[cacheKey]*flight),
	}
}

// lookup returns either a cached body (hit=true), an existing flight to
// join, or a fresh flight the caller now leads (lead=true, already
// registered).
func (g *group) lookup(key cacheKey) (body []byte, f *flight, hit, lead bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if body, ok := g.cache.get(key); ok {
		return body, nil, true, false
	}
	if f, ok := g.flights[key]; ok {
		return nil, f, false, false
	}
	f = &flight{done: make(chan struct{})}
	g.flights[key] = f
	return nil, f, false, true
}

// publish stores the leader's success in the cache, retires the flight
// and wakes joiners. Returns the number of cache evictions.
func (g *group) publish(key cacheKey, f *flight, body []byte) int {
	g.mu.Lock()
	f.body = body
	evicted := g.cache.put(key, body)
	delete(g.flights, key)
	g.mu.Unlock()
	close(f.done)
	return evicted
}

// abort retires the flight without caching anything. retry=true makes
// joiners re-elect instead of inheriting the error (set when the
// leader's own context ended — a deadline or disconnect on one request
// says nothing about the image).
func (g *group) abort(key cacheKey, f *flight, status int, msg string, retry bool) {
	g.mu.Lock()
	f.status, f.errMsg, f.retry = status, msg, retry
	delete(g.flights, key)
	g.mu.Unlock()
	close(f.done)
}
