package serve

import (
	"sync"
	"sync/atomic"
)

// resultCache is the epoch-keyed LRU over finished response bodies.
// Keys embed the epoch sequence number (see appendKey), so cache
// coherence under streaming ingest costs nothing: a Commit swaps the
// epoch pointer, every subsequent request keys under the new seq, and
// the old epoch's entries — now unreachable by construction — drift to
// the cold end of the LRU and are evicted by capacity pressure. There
// is no invalidation scan, no version check on hit, and no way to
// serve a stale body for a fresh epoch.
//
// Get is allocation-free: the caller assembles the key in its pooled
// scratch and the map lookup uses Go's []byte→string access form,
// which does not materialize the string. Bodies are immutable once
// inserted; Get returns the shared slice, which remains valid after a
// concurrent eviction (eviction only unlinks the entry).
type resultCache struct {
	mu       sync.Mutex
	maxBytes int64
	maxEnt   int
	size     int64
	m        map[string]*centry
	// Intrusive LRU list: head is most recent, tail next to evict.
	head, tail *centry

	hits, misses atomic.Uint64
}

type centry struct {
	key        string
	body       []byte
	prev, next *centry
}

// newResultCache sizes an LRU cache of at most maxBytes of bodies and
// maxEnt entries.
func newResultCache(maxBytes int64, maxEnt int) *resultCache {
	return &resultCache{
		maxBytes: maxBytes,
		maxEnt:   maxEnt,
		m:        make(map[string]*centry, 64),
	}
}

// get returns the cached body for key, or nil. The returned slice is
// shared and must not be modified.
func (c *resultCache) get(key []byte) []byte {
	c.mu.Lock()
	e := c.m[string(key)] // compiler-recognized no-alloc lookup form
	if e == nil {
		c.mu.Unlock()
		c.misses.Add(1)
		return nil
	}
	c.unlink(e)
	c.pushFront(e)
	body := e.body
	c.mu.Unlock()
	c.hits.Add(1)
	return body
}

// put inserts a private copy of key and body and returns the cached
// body copy (the caller's buffers are pooled scratch about to be
// reused, so the copy doubles as the response slice to write). Entries
// larger than the byte budget are not cached; the copy is still
// returned so the caller's response path is uniform.
func (c *resultCache) put(key, body []byte) []byte {
	stored := make([]byte, len(body))
	copy(stored, body)
	if int64(len(body)) > c.maxBytes {
		return stored
	}
	e := &centry{key: string(key), body: stored}
	c.mu.Lock()
	if old := c.m[e.key]; old != nil {
		// Concurrent identical misses both computed the body; keep the
		// newer copy (they are identical by determinism).
		c.unlink(old)
		c.size -= int64(len(old.body))
		delete(c.m, old.key)
	}
	c.m[e.key] = e
	c.pushFront(e)
	c.size += int64(len(stored))
	for (c.size > c.maxBytes || len(c.m) > c.maxEnt) && c.tail != nil {
		victim := c.tail
		c.unlink(victim)
		c.size -= int64(len(victim.body))
		delete(c.m, victim.key)
	}
	c.mu.Unlock()
	return stored
}

func (c *resultCache) pushFront(e *centry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *resultCache) unlink(e *centry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if c.head == e {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if c.tail == e {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// stats snapshots the counters.
func (c *resultCache) stats() (hits, misses uint64, entries int, bytes int64) {
	hits, misses = c.hits.Load(), c.misses.Load()
	c.mu.Lock()
	entries, bytes = len(c.m), c.size
	c.mu.Unlock()
	return hits, misses, entries, bytes
}
