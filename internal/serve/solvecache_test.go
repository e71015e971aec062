package serve

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

func TestSolveCacheLRUSemantics(t *testing.T) {
	var nc *SolveCache // disabled cache: every method is a safe no-op
	if _, ok := nc.Get(SolveCacheKey{}, nil, 0); ok {
		t.Fatal("nil cache returned a hit")
	}
	nc.Put(SolveCacheKey{}, nil, 0, "x")
	if nc.Len() != 0 || nc.Stats() != (SolveCacheStats{}) {
		t.Fatal("nil cache reported state")
	}
	if NewSolveCache(0) != nil {
		t.Fatal("NewSolveCache(0) should be nil (disabled)")
	}

	c := NewSolveCache(2)
	k1 := SolveCacheKey{Fingerprint: 1, Solver: "g", Seed: 1}
	k2 := SolveCacheKey{Fingerprint: 2, Solver: "g", Seed: 1}
	k3 := SolveCacheKey{Fingerprint: 3, Solver: "g", Seed: 1}
	c.Put(k1, []uint64{1}, 0, "a")
	c.Put(k2, []uint64{2}, 0, "b")
	if v, ok := c.Get(k1, []uint64{1}, 0); !ok || v != "a" {
		t.Fatalf("Get(k1) = (%v, %v), want (a, true)", v, ok)
	}
	// k1 was just used, so inserting k3 must evict k2.
	c.Put(k3, []uint64{3}, 0, "c")
	if _, ok := c.Get(k2, []uint64{2}, 0); ok {
		t.Fatal("k2 survived past capacity; LRU eviction broken")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}

	// A fingerprint collision (same key, different exact state) must miss
	// AND drop the stale entry.
	if _, ok := c.Get(k1, []uint64{9}, 0); ok {
		t.Fatal("collision Get returned a hit")
	}
	if _, ok := c.Get(k1, []uint64{1}, 0); ok {
		t.Fatal("stale collided entry was not dropped")
	}

	// routeGen participates in the exact-state check.
	c.Put(k1, []uint64{1}, 5, "r")
	if _, ok := c.Get(k1, []uint64{1}, 6); ok {
		t.Fatal("routeGen mismatch returned a hit")
	}
	if v, ok := c.Get(k1, []uint64{1}, 5); ok || v != nil {
		t.Fatal("entry should have been dropped after the routeGen mismatch")
	}
}

// TestSolveCacheHTTP drives the full serve-plane contract: a repeat solve
// against an unchanged snapshot replays the identical answer flagged
// cached, and any applied mutation batch invalidates by construction.
func TestSolveCacheHTTP(t *testing.T) {
	_, _, ts := newTestServer(t, EngineConfig{}, Config{SolverName: "greedy", SolveCache: 8})
	for i := 0; i < 4; i++ {
		doJSON(t, "POST", ts.URL+"/v1/tasks", testTask(i))
		doJSON(t, "POST", ts.URL+"/v1/workers", testWorker(i))
	}

	_, first := doJSON(t, "POST", ts.URL+"/v1/solve", `{"seed":7}`)
	if first["cached"] == true {
		t.Fatal("first solve reported cached")
	}
	_, second := doJSON(t, "POST", ts.URL+"/v1/solve", `{"seed":7}`)
	if second["cached"] != true {
		t.Fatalf("repeat solve not served from cache: %v", second)
	}
	for _, field := range []string{"version", "assignment", "min_reliability", "total_diversity", "solver", "seed"} {
		if !reflect.DeepEqual(first[field], second[field]) {
			t.Fatalf("cached %s diverged: %v vs %v", field, first[field], second[field])
		}
	}

	// A different seed is a different request identity: miss.
	_, other := doJSON(t, "POST", ts.URL+"/v1/solve", `{"seed":8}`)
	if other["cached"] == true {
		t.Fatal("different seed hit the cache")
	}

	// Any applied batch bumps the snapshot version; the old entries can
	// never be served again.
	doJSON(t, "POST", ts.URL+"/v1/workers", testWorker(99))
	_, third := doJSON(t, "POST", ts.URL+"/v1/solve", `{"seed":7}`)
	if third["cached"] == true {
		t.Fatal("solve after a mutation batch hit the cache")
	}
	if third["version"] == second["version"] {
		t.Fatal("version did not advance after the mutation batch")
	}

	_, stats := doJSON(t, "GET", ts.URL+"/v1/stats", "")
	if hits := stats["solve_cache_hits"].(float64); hits != 1 {
		t.Fatalf("solve_cache_hits = %v, want 1", hits)
	}
	if misses := stats["solve_cache_misses"].(float64); misses != 3 {
		t.Fatalf("solve_cache_misses = %v, want 3", misses)
	}
	// Cache hits answer without running a solver.
	if solves := stats["solves"].(float64); solves != 3 {
		t.Fatalf("solves = %v, want 3 (hits must not count)", solves)
	}
}

// TestSolveCacheHammer races solves (alternating seeds) against mutation
// batches through a tiny cache; the race detector is the assertion.
func TestSolveCacheHammer(t *testing.T) {
	_, _, ts := newTestServer(t, EngineConfig{}, Config{SolverName: "greedy", SolveCache: 2})
	for i := 0; i < 3; i++ {
		doJSON(t, "POST", ts.URL+"/v1/tasks", testTask(i))
		doJSON(t, "POST", ts.URL+"/v1/workers", testWorker(i))
	}
	const iters = 30
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if g == 3 {
					// One goroutine churns the engine to force invalidations.
					_, _, err := tryJSON("POST", ts.URL+"/v1/workers", testWorker(100+i))
					if err != nil {
						t.Error(err)
						return
					}
					continue
				}
				body := fmt.Sprintf(`{"seed":%d}`, g%2)
				code, _, err := tryJSON("POST", ts.URL+"/v1/solve", body)
				if err != nil || code != 200 {
					t.Errorf("solve: code=%d err=%v", code, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
