package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"rdbsc/internal/engine"
	"rdbsc/internal/geo"
	"rdbsc/internal/model"
	"rdbsc/internal/serve"
)

func TestTilingDeterministicAndInRange(t *testing.T) {
	tl := Tiling{Shards: 4}.withDefaults()
	rng := rand.New(rand.NewSource(11))
	seen := make(map[int]bool)
	for i := 0; i < 2000; i++ {
		p := geo.Pt(rng.Float64()*4-2, rng.Float64()*4-2)
		s := tl.ShardOf(p)
		if s < 0 || s >= tl.Shards {
			t.Fatalf("ShardOf(%v) = %d out of [0,%d)", p, s, tl.Shards)
		}
		if s2 := tl.ShardOf(p); s2 != s {
			t.Fatalf("ShardOf(%v) not deterministic: %d then %d", p, s, s2)
		}
		seen[s] = true
	}
	if len(seen) != tl.Shards {
		t.Errorf("2000 random points over [-2,2)^2 hit only %d of %d shards", len(seen), tl.Shards)
	}
}

// TestShardsInDiscCoversDisc: the disc query must mark the shard of every
// point inside the disc — it is the pruning set for cross-shard pair
// discovery, so a miss would silently drop valid pairs.
func TestShardsInDiscCoversDisc(t *testing.T) {
	tl := Tiling{Shards: 5, TileSize: 0.25}.withDefaults()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		c := geo.Pt(rng.Float64()*2-1, rng.Float64()*2-1)
		r := rng.Float64() * 1.5
		reach := tl.ShardsInDisc(c, r)
		for k := 0; k < 40; k++ {
			ang := rng.Float64() * 2 * math.Pi
			d := rng.Float64() * r
			p := geo.Pt(c.X+d*math.Cos(ang), c.Y+d*math.Sin(ang))
			if !reach[tl.ShardOf(p)] {
				t.Fatalf("trial %d: point %v at distance %.3f inside disc(%v, %.3f) maps to unmarked shard %d",
					trial, p, d, c, r, tl.ShardOf(p))
			}
		}
	}
	// Zero radius still marks the center's own shard.
	reach := tl.ShardsInDisc(geo.Pt(0.1, 0.1), 0)
	if !reach[tl.ShardOf(geo.Pt(0.1, 0.1))] {
		t.Error("zero-radius disc must mark the center's shard")
	}
}

func TestRemovalOfUnknownIDAcksUnchanged(t *testing.T) {
	cl, err := New(Config{Shards: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, cl)
	ctx := context.Background()
	acks, err := cl.Mutate(ctx, engine.TaskRemoval(999), engine.WorkerRemoval(999))
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range acks {
		if a.Changed {
			t.Errorf("removal of an unknown ID acked Changed=true: %+v", a)
		}
	}
}

func TestCrossShardMoveRetiresStaleCopy(t *testing.T) {
	cl, err := New(Config{Shards: 4, TileSize: 0.3, Beta: 0.5, BetaSet: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, cl)
	ctx := context.Background()

	// Find two locations on different shards.
	locA := geo.Pt(0.05, 0.05)
	var locB geo.Point
	for x := 0.05; ; x += 0.3 {
		locB = geo.Pt(x, 0.05)
		if cl.tiling.ShardOf(locB) != cl.tiling.ShardOf(locA) {
			break
		}
		if x > 5 {
			t.Skip("hash degenerate: every tile on one shard")
		}
	}
	w := model.Worker{ID: 1, Loc: locA, Speed: 1, Dir: geo.FullCircle, Confidence: 0.9}
	if _, err := cl.Mutate(ctx, engine.WorkerUpsert(w)); err != nil {
		t.Fatal(err)
	}
	w.Loc = locB
	if _, err := cl.Mutate(ctx, engine.WorkerUpsert(w)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	if got := cl.moves.Load(); got != 1 {
		t.Errorf("moves = %d, want 1", got)
	}
	// Exactly one live copy across all shards, at the new location.
	copies := 0
	for _, sh := range cl.shards {
		for _, sw := range sh.snap.Load().Problem.In.Workers {
			if sw.ID == 1 {
				copies++
				if sw.Loc != locB {
					t.Errorf("surviving copy at %v, want %v", sw.Loc, locB)
				}
			}
		}
	}
	if copies != 1 {
		t.Errorf("worker 1 has %d live copies across shards, want 1", copies)
	}
	cl.mu.Lock()
	home := cl.workerShard[1]
	cl.mu.Unlock()
	if home != cl.tiling.ShardOf(locB) {
		t.Errorf("registry routes worker 1 to shard %d, want %d", home, cl.tiling.ShardOf(locB))
	}
}

func TestShutdownDrainsAndRejects(t *testing.T) {
	cl, err := New(Config{Shards: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var muts []engine.Mutation
	for i := 0; i < 64; i++ {
		muts = append(muts, engine.TaskUpsert(model.Task{
			ID: model.TaskID(i), Loc: geo.Pt(float64(i)*0.07, 0.2), Start: 0, End: 5,
		}))
	}
	if _, err := cl.Mutate(ctx, muts...); err != nil {
		t.Fatal(err)
	}
	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := cl.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
	// Every accepted mutation applied before shutdown returned.
	total := 0
	for _, sh := range cl.shards {
		total += sh.snap.Load().Tasks()
	}
	if total != 64 {
		t.Errorf("after drain, shards hold %d tasks, want 64", total)
	}
	if err := cl.Enqueue(engine.TaskUpsert(model.Task{ID: 99, End: 1}), nil); err == nil {
		t.Error("Enqueue after Shutdown should fail")
	}
}

// serveHTTP mounts the one HTTP layer (internal/serve) over cl behind an
// httptest server. The caller still shuts cl down.
func serveHTTP(t *testing.T, cl *Cluster, cfg serve.Config) *httptest.Server {
	t.Helper()
	cfg.Backend = cl
	if cfg.SolverName == "" {
		cfg.SolverName = "greedy"
	}
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestHTTPSurface pins what only the cluster backend puts on the /v1
// surface: the coordinator fields of a solve, the per-shard rows and the
// "cluster" block of the stats, and the shard count in healthz. What both
// backends share is serve's TestHTTPContract.
func TestHTTPSurface(t *testing.T) {
	cl, err := New(Config{Shards: 4, Beta: 0.5, BetaSet: true, SolverName: "greedy"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, cl)
	ts := serveHTTP(t, cl, serve.Config{})

	do := func(method, path string, body, out any) {
		t.Helper()
		b, _ := json.Marshal(body)
		req, _ := http.NewRequest(method, ts.URL+path, bytes.NewReader(b))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: %s", method, path, resp.Status)
		}
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatal(err)
			}
		}
	}

	var tasks, workers []map[string]any
	for i := 0; i < 12; i++ {
		f := float64(i) / 11
		tasks = append(tasks, map[string]any{"id": i, "x": 0.05 + 0.9*f, "y": 0.5, "start": 0, "end": 6})
	}
	for i := 0; i < 16; i++ {
		f := float64(i) / 15
		workers = append(workers, map[string]any{
			"id": i, "x": 0.05 + 0.9*f, "y": 0.45, "speed": 1.0, "confidence": 0.8, "depart": 0,
		})
	}
	do("POST", "/v1/tasks", tasks, nil)
	do("POST", "/v1/workers", workers, nil)

	var solve serve.SolveResponse
	do("POST", "/v1/solve", map[string]any{"seed": 3}, &solve)
	if !solve.Feasible || solve.AssignedWorkers == 0 {
		t.Fatalf("solve infeasible: %+v", solve)
	}
	if solve.CoordinatorInfo == nil {
		t.Fatal("cluster solve carries no coordinator fields")
	}
	if solve.EscalatedComponents+solve.InteriorComponents != solve.Stats.Components {
		t.Errorf("escalated %d + interior %d != components %d",
			solve.EscalatedComponents, solve.InteriorComponents, solve.Stats.Components)
	}

	var stats struct {
		Tasks   int `json:"tasks"`
		Workers int `json:"workers"`
		Shards  []struct {
			Shard   int    `json:"shard"`
			Version uint64 `json:"version"`
		} `json:"shards"`
		Cluster struct {
			ShardCount          int    `json:"shard_count"`
			ConsistencyFailures uint64 `json:"consistency_failures"`
			Assemblies          uint64 `json:"assemblies"`
		} `json:"cluster"`
	}
	do("GET", "/v1/stats", nil, &stats)
	if stats.Tasks != 12 || stats.Workers != 16 {
		t.Errorf("stats population %d/%d, want 12/16", stats.Tasks, stats.Workers)
	}
	if len(stats.Shards) != 4 || stats.Cluster.ShardCount != 4 {
		t.Errorf("stats shard breakdown has %d rows, shard_count %d, want 4/4",
			len(stats.Shards), stats.Cluster.ShardCount)
	}
	if stats.Cluster.ConsistencyFailures != 0 {
		t.Errorf("consistency_failures = %d, want 0", stats.Cluster.ConsistencyFailures)
	}
	if stats.Cluster.Assemblies == 0 {
		t.Error("assemblies = 0 after a solve")
	}

	var hz struct {
		OK     bool `json:"ok"`
		Shards int  `json:"shards"`
	}
	do("GET", "/healthz", nil, &hz)
	if !hz.OK || hz.Shards != 4 {
		t.Errorf("healthz %+v, want ok with 4 shards", hz)
	}
}

func shutdown(t *testing.T, cl *Cluster) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := cl.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}
