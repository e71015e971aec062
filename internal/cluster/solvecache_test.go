package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"rdbsc/internal/serve"
)

// TestClusterSolveCacheInvalidation exercises the cluster-plane cache key:
// a repeat solve against unchanged shards replays the cached answer, any
// shard's version bump misses, and a routing-generation bump alone — the
// versions untouched — also misses (a move can strand a stale copy the
// version vector does not see).
func TestClusterSolveCacheInvalidation(t *testing.T) {
	cl, err := New(Config{Shards: 2, Beta: 0.5, BetaSet: true, SolverName: "greedy"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, cl)
	ts := serveHTTP(t, cl, serve.Config{SolveCache: 8})

	post := func(path string, body any) map[string]any {
		t.Helper()
		b, _ := json.Marshal(body)
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: %s", path, resp.Status)
		}
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	var tasks, workers []map[string]any
	for i := 0; i < 8; i++ {
		f := float64(i) / 7
		tasks = append(tasks, map[string]any{"id": i, "x": 0.05 + 0.9*f, "y": 0.5, "start": 0, "end": 6})
		workers = append(workers, map[string]any{
			"id": i, "x": 0.05 + 0.9*f, "y": 0.45, "speed": 1.0, "confidence": 0.8, "depart": 0,
		})
	}
	post("/v1/tasks", tasks)
	post("/v1/workers", workers)

	first := post("/v1/solve", map[string]any{"seed": 3})
	if first["cached"] == true {
		t.Fatal("first solve reported cached")
	}
	second := post("/v1/solve", map[string]any{"seed": 3})
	if second["cached"] != true {
		t.Fatalf("repeat solve not served from cache: %v", second)
	}
	for _, field := range []string{"version", "min_reliability", "total_diversity", "assigned_workers"} {
		if first[field] != second[field] {
			t.Fatalf("cached %s diverged: %v vs %v", field, first[field], second[field])
		}
	}

	// A routing-generation bump alone (shard versions untouched) must
	// invalidate: this is what a cross-shard move does before the stale
	// copy's removal applies.
	cl.mu.Lock()
	cl.routeGen++
	cl.mu.Unlock()
	third := post("/v1/solve", map[string]any{"seed": 3})
	if third["cached"] == true {
		t.Fatal("solve after a routeGen bump hit the cache")
	}

	// A shard version bump (one applied mutation) must invalidate too.
	post("/v1/workers", map[string]any{
		"id": 50, "x": 0.5, "y": 0.45, "speed": 1.0, "confidence": 0.8, "depart": 0,
	})
	fourth := post("/v1/solve", map[string]any{"seed": 3})
	if fourth["cached"] == true {
		t.Fatal("solve after a shard mutation hit the cache")
	}

	// Stats surface: 1 hit, 3 misses, hits do not count as solves.
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if hits := stats["solve_cache_hits"].(float64); hits != 1 {
		t.Fatalf("solve_cache_hits = %v, want 1", hits)
	}
	if misses := stats["solve_cache_misses"].(float64); misses != 3 {
		t.Fatalf("solve_cache_misses = %v, want 3", misses)
	}
	if solves := stats["solves"].(float64); solves != 3 {
		t.Fatalf("solves = %v, want 3 (cache hits must not count)", solves)
	}
}
