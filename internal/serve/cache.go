// Package serve is the accd compile-and-run service: a content-hash
// cache of compiled programs, a shared pool of simulated machines, a
// weighted fair admission queue, and the HTTP/JSON handler tying them
// together. The design goal is structural throughput — compile once,
// serve many — with exact validation: every response body is a pure
// function of the request, bit-identical whether the request runs
// alone or under heavy concurrency.
package serve

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"sync"

	"accmulti/internal/analysis"
	"accmulti/internal/core"
)

// CompilerFingerprint versions the compilation pipeline for cache
// keying. Any option that changes what Compile produces (none today —
// the ablation switches are runtime-side) must be folded into the
// fingerprint string alongside this constant, so artifacts compiled
// under different settings can never alias.
const CompilerFingerprint = "accd/1"

// CacheKey is the content hash of one compile request: SHA-256 over
// the option fingerprint and the source, NUL-separated.
func CacheKey(source, fingerprint string) string {
	h := sha256.New()
	io.WriteString(h, fingerprint)
	h.Write([]byte{0})
	io.WriteString(h, source)
	return hex.EncodeToString(h.Sum(nil))
}

// Entry is one cached compilation: the program (or its compile error —
// negative results are cached too, so a client hammering a broken
// source does not recompile it every request) plus the lazily computed
// vet verdict shared by every request that asks for verification.
type Entry struct {
	// Key is the entry's content hash.
	Key string
	// Program is the compiled program; nil when Err is set.
	Program *core.Program
	// Err is the compile failure, nil on success.
	Err error

	vetOnce sync.Once
	vet     *analysis.Result
	vetErr  error

	// ready is closed when Program/Err are final; concurrent requests
	// for an in-flight key wait on it (singleflight).
	ready chan struct{}
}

// Vet runs (once) and returns the directive-verification result for
// the entry's program.
func (e *Entry) Vet() (*analysis.Result, error) {
	e.vetOnce.Do(func() {
		e.vet, e.vetErr = e.Program.Vet()
		if e.vetErr == nil {
			e.vet.Diags.Sort()
		}
	})
	return e.vet, e.vetErr
}

// Cache is the content-hash program cache: singleflight deduplication
// of concurrent compiles of the same source, deterministic LRU
// eviction over completed entries, and hit/miss/evict counters in the
// service metrics registry.
type Cache struct {
	compile func(string) (*core.Program, error)
	mets    *serviceMetrics

	mu      sync.Mutex
	cap     int
	entries map[string]*cacheSlot
	// lru orders completed entries, most recently used first. In-flight
	// compiles are not listed and therefore never evicted.
	lru *list.List
}

type cacheSlot struct {
	entry *Entry
	// elem is the entry's lru node; nil while the compile is in flight.
	elem *list.Element
}

// NewCache creates a cache holding at most capacity compiled entries.
// compile defaults to core.Compile; tests substitute instrumented
// compilers. mets may be nil.
func NewCache(capacity int, compile func(string) (*core.Program, error), mets *serviceMetrics) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	if compile == nil {
		compile = core.Compile
	}
	return &Cache{
		compile: compile,
		mets:    mets,
		cap:     capacity,
		entries: map[string]*cacheSlot{},
		lru:     list.New(),
	}
}

func (c *Cache) inc(name string) {
	if c.mets != nil {
		c.mets.Inc(name, 1)
	}
}

// GetOrCompile returns the entry for source, compiling it exactly once
// no matter how many requests ask concurrently. hit reports whether a
// completed compilation was reused (an in-flight singleflight wait
// counts as a hit: the caller did not pay for a compile).
func (c *Cache) GetOrCompile(source string) (e *Entry, hit bool) {
	key := CacheKey(source, CompilerFingerprint)
	c.mu.Lock()
	if s, ok := c.entries[key]; ok {
		if s.elem != nil {
			c.lru.MoveToFront(s.elem)
			c.mu.Unlock()
			c.inc("cache.hit")
			return s.entry, true
		}
		// Another request is compiling this key right now: wait for it
		// instead of compiling again.
		entry := s.entry
		c.mu.Unlock()
		c.inc("cache.singleflight-wait")
		<-entry.ready
		c.inc("cache.hit")
		return entry, true
	}
	e = &Entry{Key: key, ready: make(chan struct{})}
	c.entries[key] = &cacheSlot{entry: e}
	c.mu.Unlock()
	c.inc("cache.miss")

	e.Program, e.Err = c.compile(source)
	close(e.ready)

	c.mu.Lock()
	if s, ok := c.entries[key]; ok && s.entry == e {
		s.elem = c.lru.PushFront(key)
		for c.lru.Len() > c.cap {
			back := c.lru.Back()
			c.lru.Remove(back)
			delete(c.entries, back.Value.(string))
			c.inc("cache.evict")
		}
	}
	c.mu.Unlock()
	return e, false
}

// Len returns the number of completed cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
