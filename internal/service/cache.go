package service

import "sync"

// cache is the fingerprint-keyed result cache. The engine is deterministic
// and scenario fingerprints cover every semantic field (including seeds),
// so a fingerprint match means the stored statistics are exactly what a
// fresh simulation would produce — a hit skips the queue and the engine
// entirely. Only successful (done) runs are stored; failed and canceled
// runs are not results. Eviction is insertion-order FIFO at a fixed
// capacity: the workload this serves is "the same spec resubmitted", which
// an old entry satisfies as well as a fresh one. An entry points at the
// stats of the retired job that produced it, which never change; an entry
// keeps that job's record after the registry has evicted it.
type cache struct {
	mu      sync.Mutex
	cap     int
	entries map[fingerprint]*Stats
	order   []fingerprint // insertion order, for FIFO eviction
	hits    int64
	misses  int64
}

// newCache returns a cache holding up to cap results; cap <= 0 disables
// caching (every get misses, puts are dropped).
func newCache(cap int) *cache {
	return &cache{cap: cap, entries: make(map[fingerprint]*Stats)}
}

// lookup peeks a fingerprint without touching the hit/miss counters —
// admission decides first whether the submission is accepted at all, then
// records the outcome with record, so a 429'd submission never skews the
// hit ratio.
func (c *cache) lookup(fp fingerprint) (Stats, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st := c.entries[fp]; st != nil {
		return *st, true
	}
	return Stats{}, false
}

// record counts the hits and misses of one admitted submission.
func (c *cache) record(hits, misses int64) {
	c.mu.Lock()
	c.hits += hits
	c.misses += misses
	c.mu.Unlock()
}

// put stores a result, evicting the oldest entry at capacity.
func (c *cache) put(fp fingerprint, st *Stats) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[fp]; ok {
		c.entries[fp] = st
		return
	}
	for len(c.entries) >= c.cap {
		oldest := c.order[0]
		c.order = c.order[1:]
		delete(c.entries, oldest)
	}
	c.entries[fp] = st
	c.order = append(c.order, fp)
}

// stats returns the hit/miss counters and current size.
func (c *cache) stats() (hits, misses int64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, len(c.entries)
}
