package serve

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// SolveCacheKey identifies one cacheable solve: a snapshot fingerprint plus
// the full solve request identity (solver name and seed — two requests that
// differ in either may legitimately produce different assignments).
//
// The fingerprint is a hash of the view's State (the per-loop version
// vector and the routing generation); because a hash can collide, every
// entry also stores the exact vector, which Get re-verifies.
type SolveCacheKey struct {
	Fingerprint uint64
	Solver      string
	Seed        int64
}

// SolveCacheStats is a point-in-time snapshot of the cache counters.
type SolveCacheStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// solveCacheEntry is one cached solve with the exact state identity it was
// produced under.
type solveCacheEntry struct {
	key      SolveCacheKey
	versions []uint64
	routeGen uint64
	value    any
}

// SolveCache is a fixed-capacity LRU of completed solve results. Only
// clean, complete solves belong in it — never partials or errors — and Get
// returns an entry only when the exact version vector (and routing
// generation) of the current state matches the one the entry was computed
// under, so a cached result is bit-identical to what re-running the solve
// would produce: staleness is zero by construction, not by TTL.
//
// A nil *SolveCache is valid and means "disabled": Get always misses
// (without counting), Put is a no-op. All methods are safe for concurrent
// use.
type SolveCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	items    map[SolveCacheKey]*list.Element

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

// NewSolveCache returns an LRU holding up to capacity entries, or nil (a
// disabled cache) when capacity <= 0.
func NewSolveCache(capacity int) *SolveCache {
	if capacity <= 0 {
		return nil
	}
	return &SolveCache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[SolveCacheKey]*list.Element, capacity),
	}
}

// Get returns the cached value for key if present AND computed under
// exactly the given version vector and routing generation. A fingerprint
// collision (key present, vector different) is treated as a miss and the
// stale entry is dropped.
func (c *SolveCache) Get(key SolveCacheKey, versions []uint64, routeGen uint64) (any, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	e := el.Value.(*solveCacheEntry)
	if e.routeGen != routeGen || !sameVersions(e.versions, versions) {
		// Same fingerprint, different state: the entry can never become
		// valid again (versions only move forward), so drop it.
		c.ll.Remove(el)
		delete(c.items, key)
		c.misses.Add(1)
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits.Add(1)
	return e.value, true
}

// Put stores a completed solve under key. The versions slice is copied, so
// callers may reuse their backing array.
func (c *SolveCache) Put(key SolveCacheKey, versions []uint64, routeGen uint64, value any) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*solveCacheEntry)
		e.versions = append([]uint64(nil), versions...)
		e.routeGen = routeGen
		e.value = value
		c.ll.MoveToFront(el)
		return
	}
	e := &solveCacheEntry{
		key:      key,
		versions: append([]uint64(nil), versions...),
		routeGen: routeGen,
		value:    value,
	}
	c.items[key] = c.ll.PushFront(e)
	for c.ll.Len() > c.capacity {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*solveCacheEntry).key)
		c.evictions.Add(1)
	}
}

// Len returns the number of cached entries (0 for a disabled cache).
func (c *SolveCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns the cumulative hit/miss/eviction counters (zero for a
// disabled cache).
func (c *SolveCache) Stats() SolveCacheStats {
	if c == nil {
		return SolveCacheStats{}
	}
	return SolveCacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
	}
}

func sameVersions(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// stateFingerprint condenses a view's State into the solve-cache key hash
// (FNV-1a over the little-endian words). Collisions are harmless: the cache
// stores — and Get re-verifies — the exact vector.
func stateFingerprint(versions []uint64, routeGen uint64) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h = (h ^ v&0xff) * 1099511628211
			v >>= 8
		}
	}
	for _, v := range versions {
		mix(v)
	}
	mix(routeGen)
	return h
}
