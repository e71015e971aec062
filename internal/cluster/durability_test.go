package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"rdbsc/internal/engine"
	"rdbsc/internal/geo"
	"rdbsc/internal/model"
	"rdbsc/internal/serve"
	"rdbsc/internal/store"
)

// doJSON issues one request and decodes the JSON response body.
func doJSON(t *testing.T, method, url, body string) (int, map[string]any) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = bytes.NewReader([]byte(body))
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s %s: decoding response: %v", method, url, err)
	}
	return resp.StatusCode, out
}

func openShardStores(t *testing.T, dir string, shards int) []store.Store {
	t.Helper()
	stores := make([]store.Store, shards)
	for i := range stores {
		fs, err := store.Open(filepath.Join(dir, fmt.Sprintf("shard-%d", i)), store.FileOptions{Fsync: store.FsyncOff})
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = fs
	}
	return stores
}

func startDurableCluster(t *testing.T, dir string, shards int) (*Cluster, *httptest.Server, func()) {
	t.Helper()
	cl, err := New(Config{
		Shards: shards, Beta: 0.5, BetaSet: true, SolverName: "greedy",
		Stores: openShardStores(t, dir, shards), SnapshotEvery: 3,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := serveHTTP(t, cl, serve.Config{})
	stopped := false
	stop := func() {
		if stopped {
			return
		}
		stopped = true
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := cl.Shutdown(ctx); err != nil {
			t.Fatalf("cluster shutdown: %v", err)
		}
	}
	t.Cleanup(stop)
	return cl, ts, stop
}

// TestClusterDurableRecoveryExact pins multi-shard recovery: every shard
// recovers from its own store, and the reassembled cluster answers solves
// identically to the pre-stop one.
func TestClusterDurableRecoveryExact(t *testing.T) {
	const shards = 4
	dir := t.TempDir()
	_, ts, stop := startDurableCluster(t, dir, shards)

	// A population spread over the unit square so every shard owns some
	// entities (tile size 0.3 over 4 shards).
	for i := 0; i < 12; i++ {
		x, y := 0.1+0.08*float64(i), 0.9-0.07*float64(i)
		code, body := doJSON(t, "POST", ts.URL+"/v1/tasks",
			fmt.Sprintf(`{"id":%d,"x":%f,"y":%f,"start":0,"end":10}`, i, x, y))
		if code != http.StatusOK {
			t.Fatalf("task %d: %d %v", i, code, body)
		}
		code, body = doJSON(t, "POST", ts.URL+"/v1/workers",
			fmt.Sprintf(`{"id":%d,"x":%f,"y":%f,"speed":1,"confidence":0.9}`, i, y, x))
		if code != http.StatusOK {
			t.Fatalf("worker %d: %d %v", i, code, body)
		}
	}
	_, statsBefore := doJSON(t, "GET", ts.URL+"/v1/stats", "")
	code, solveBefore := doJSON(t, "POST", ts.URL+"/v1/solve", `{"solver":"greedy","seed":7}`)
	if code != http.StatusOK {
		t.Fatalf("pre-stop solve: %d %v", code, solveBefore)
	}
	stop()

	_, ts2, _ := startDurableCluster(t, dir, shards)
	_, statsAfter := doJSON(t, "GET", ts2.URL+"/v1/stats", "")
	for _, k := range []string{"tasks", "workers"} {
		if statsBefore[k] != statsAfter[k] {
			t.Errorf("recovered %s = %v, want %v", k, statsAfter[k], statsBefore[k])
		}
	}
	// Per-shard versions must come back exactly (shard order is fixed by
	// the tiling, which is deterministic).
	shBefore := statsBefore["shards"].([]any)
	shAfter := statsAfter["shards"].([]any)
	if len(shBefore) != len(shAfter) {
		t.Fatalf("shard count changed across recovery: %d vs %d", len(shBefore), len(shAfter))
	}
	for i := range shBefore {
		b, a := shBefore[i].(map[string]any), shAfter[i].(map[string]any)
		for _, k := range []string{"version", "tasks", "workers", "pairs"} {
			if b[k] != a[k] {
				t.Errorf("shard %d %s = %v, want %v", i, k, a[k], b[k])
			}
		}
		if dur := a["durability"].(map[string]any); dur["backend"] != "file" {
			t.Errorf("shard %d backend %v, want file", i, dur["backend"])
		}
	}
	code, solveAfter := doJSON(t, "POST", ts2.URL+"/v1/solve", `{"solver":"greedy","seed":7}`)
	if code != http.StatusOK {
		t.Fatalf("post-recovery solve: %d %v", code, solveAfter)
	}
	for _, volatile := range []string{"elapsed_ms", "at", "stats", "cached", "cluster"} {
		delete(solveBefore, volatile)
		delete(solveAfter, volatile)
	}
	if !reflect.DeepEqual(solveBefore, solveAfter) {
		t.Errorf("solve diverged across recovery:\n before: %v\n after:  %v", solveBefore, solveAfter)
	}
}

// distinctShardLocs returns two in-square locations the tiling routes to
// different shards (shard assignment hashes tile coordinates, so the pair
// is found by probing rather than construction).
func distinctShardLocs(t *testing.T, tl Tiling) (geo.Point, geo.Point) {
	t.Helper()
	a := geo.Pt(0.05, 0.05)
	sa := tl.ShardOf(a)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			b := geo.Pt(0.05+tl.TileSize*float64(i), 0.05+tl.TileSize*float64(j))
			if tl.ShardOf(b) != sa {
				return a, b
			}
		}
	}
	t.Fatal("no location on a second shard within the probe window")
	return a, a
}

// TestClusterRecoveryResolvesDuplicateEntities simulates the cross-shard
// move crash window: the destination shard logged the moved worker's upsert
// (with a later recency epoch) but the source shard crashed before logging
// the retirement, so both stores recover a copy. The registry rebuild must
// keep exactly the copy carrying the higher epoch — the acknowledged
// post-move write — and retire the stale one, no matter which of the two
// shards has the lower index. (The destination-on-lower-index direction is
// the one a location-based or iteration-order tie-break gets wrong.)
func TestClusterRecoveryResolvesDuplicateEntities(t *testing.T) {
	const shards = 4
	tl := Tiling{Shards: shards}.withDefaults()
	// Two locations on different shards; run the move in both directions so
	// the newer copy sits once on the higher-index shard and once on the
	// lower-index one.
	locA, locB := distinctShardLocs(t, tl)
	for name, dir := range map[string][2]geo.Point{
		"newer copy on A": {locB, locA}, // moved old→new
		"newer copy on B": {locA, locB},
	} {
		t.Run(name, func(t *testing.T) {
			oldLoc, newLoc := dir[0], dir[1]
			home, stale := tl.ShardOf(newLoc), tl.ShardOf(oldLoc)
			w := model.Worker{ID: 42, Loc: newLoc, Speed: 1, Dir: geo.FullCircle, Confidence: 0.9, Depart: 10}

			tmp := t.TempDir()
			stores := openShardStores(t, tmp, shards)
			// The stale shard holds the pre-move copy (epoch 1); the home
			// shard logged the acked post-move upsert (epoch 2) but the
			// crash hit before the source retirement was logged.
			old := engine.WorkerUpsert(w)
			old.Worker.Loc = oldLoc
			old.Epoch = 1
			if err := stores[stale].AppendBatch([]engine.Mutation{old}); err != nil {
				t.Fatal(err)
			}
			moved := engine.WorkerUpsert(w)
			moved.Epoch = 2
			if err := stores[home].AppendBatch([]engine.Mutation{moved}); err != nil {
				t.Fatal(err)
			}
			for _, s := range stores {
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			}

			_, ts, _ := startDurableCluster(t, tmp, shards)
			_, stats := doJSON(t, "GET", ts.URL+"/v1/stats", "")
			if got := stats["workers"].(float64); got != 1 {
				t.Fatalf("recovered %v workers for one duplicated ID, want 1", got)
			}
			for i, sh := range stats["shards"].([]any) {
				m := sh.(map[string]any)
				want := 0.0
				if i == home {
					want = 1
				}
				if m["workers"].(float64) != want {
					t.Errorf("shard %d holds %v workers, want %v", i, m["workers"], want)
				}
			}
			// The surviving copy must be addressable: removing it routes
			// through the rebuilt registry.
			code, body := doJSON(t, "DELETE", ts.URL+fmt.Sprintf("/v1/workers/%d", w.ID), "")
			if code != http.StatusOK {
				t.Fatalf("removing the surviving copy: %d %v", code, body)
			}
			_, stats = doJSON(t, "GET", ts.URL+"/v1/stats", "")
			if got := stats["workers"].(float64); got != 0 {
				t.Fatalf("%v workers after removal, want 0", got)
			}
		})
	}
}

// TestClusterRecoveryUnstampedTieBreak covers duplicate copies that carry
// no epochs at all (state written outside the cluster plane): the tie
// falls back to the registry invariant, keeping the copy on the shard its
// own location routes to.
func TestClusterRecoveryUnstampedTieBreak(t *testing.T) {
	const shards = 4
	dir := t.TempDir()
	tl := Tiling{Shards: shards}.withDefaults()
	loc := geo.Pt(0.85, 0.15)
	home := tl.ShardOf(loc)
	stale := (home + 1) % shards

	w := model.Worker{ID: 42, Loc: loc, Speed: 1, Dir: geo.FullCircle, Confidence: 0.9, Depart: 10}
	stores := openShardStores(t, dir, shards)
	if err := stores[home].AppendBatch([]engine.Mutation{engine.WorkerUpsert(w)}); err != nil {
		t.Fatal(err)
	}
	old := w
	old.Loc = geo.Pt(0.15, 0.85)
	if err := stores[stale].AppendBatch([]engine.Mutation{engine.WorkerUpsert(old)}); err != nil {
		t.Fatal(err)
	}
	for _, s := range stores {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}

	cl, _, _ := startDurableCluster(t, dir, shards)
	cl.mu.Lock()
	got, ok := cl.workerShard[w.ID]
	cl.mu.Unlock()
	if !ok || got != home {
		t.Fatalf("unstamped duplicate routed to shard %d (ok=%v), want %d", got, ok, home)
	}
	if n := len(cl.shards[stale].eng.Instance().Workers); n != 0 {
		t.Fatalf("stale shard still holds %d workers", n)
	}
}

// TestClusterMoveRetiresSourceCopy drives a live cross-shard move end to
// end: after the destination acks, the source copy is retired (visible in
// move_retirements) and a restart recovers exactly one copy — the
// destination's.
func TestClusterMoveRetiresSourceCopy(t *testing.T) {
	const shards = 4
	dir := t.TempDir()
	cl, ts, stop := startDurableCluster(t, dir, shards)
	tl := cl.tiling
	locA, locB := distinctShardLocs(t, tl)
	from, to := tl.ShardOf(locA), tl.ShardOf(locB)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	w := model.Worker{ID: 7, Loc: locA, Speed: 1, Dir: geo.FullCircle, Confidence: 0.9, Depart: 10}
	if _, err := cl.Mutate(ctx, engine.WorkerUpsert(w)); err != nil {
		t.Fatal(err)
	}
	w.Loc = locB
	acks, err := cl.Mutate(ctx, engine.WorkerUpsert(w))
	if err != nil {
		t.Fatal(err)
	}
	if acks[0].Err != nil {
		t.Fatalf("move upsert acked with error: %v", acks[0].Err)
	}
	if err := cl.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}

	_, stats := doJSON(t, "GET", ts.URL+"/v1/stats", "")
	clStats := stats["cluster"].(map[string]any)
	if got := clStats["cross_shard_moves"].(float64); got != 1 {
		t.Errorf("cross_shard_moves = %v, want 1", got)
	}
	if got := clStats["move_retirements"].(float64); got != 1 {
		t.Errorf("move_retirements = %v, want 1", got)
	}
	if got := clStats["move_retire_failures"].(float64); got != 0 {
		t.Errorf("move_retire_failures = %v, want 0", got)
	}
	if n := len(cl.shards[from].eng.Instance().Workers); n != 0 {
		t.Errorf("source shard %d still holds %d workers after retirement", from, n)
	}
	if n := len(cl.shards[to].eng.Instance().Workers); n != 1 {
		t.Errorf("destination shard %d holds %d workers, want 1", to, n)
	}
	stop()

	// Recovery sees exactly one copy, on the destination.
	cl2, _, _ := startDurableCluster(t, dir, shards)
	for i, sh := range cl2.shards {
		want := 0
		if i == to {
			want = 1
		}
		if n := len(sh.eng.Instance().Workers); n != want {
			t.Errorf("recovered shard %d holds %d workers, want %d", i, n, want)
		}
	}
}

// failingStore fails every append the way a full disk would; everything
// else is the no-op memory backend.
type failingStore struct {
	store.Memory
	err error
}

func (f *failingStore) AppendBatch([]engine.Mutation) error { return f.err }

// TestClusterMoveDestinationFailureKeepsSource pins the destination-first
// contract: when the destination shard cannot log the move's upsert, the
// caller gets the error, the source copy stays live, and the registry
// routes back to it — no acknowledged or pre-existing state is lost.
func TestClusterMoveDestinationFailureKeepsSource(t *testing.T) {
	const shards = 4
	tl := Tiling{Shards: shards}.withDefaults()
	locA, locB := distinctShardLocs(t, tl)
	from, to := tl.ShardOf(locA), tl.ShardOf(locB)

	boom := fmt.Errorf("no space left on device")
	stores := make([]store.Store, shards)
	for i := range stores {
		if i == to {
			stores[i] = &failingStore{err: boom}
		} else {
			stores[i] = store.NewMemory()
		}
	}
	cl, err := New(Config{
		Shards: shards, Beta: 0.5, BetaSet: true, SolverName: "greedy",
		Stores: stores,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	defer func() {
		if err := cl.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	w := model.Worker{ID: 7, Loc: locA, Speed: 1, Dir: geo.FullCircle, Confidence: 0.9, Depart: 10}
	if acks, err := cl.Mutate(ctx, engine.WorkerUpsert(w)); err != nil || acks[0].Err != nil {
		t.Fatalf("seeding source shard: %v / %v", err, acks)
	}
	moved := w
	moved.Loc = locB
	acks, err := cl.Mutate(ctx, engine.WorkerUpsert(moved))
	if err != nil {
		t.Fatal(err)
	}
	if acks[0].Err == nil {
		t.Fatal("move onto a failing destination store was acknowledged")
	}
	if err := cl.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}

	cl.mu.Lock()
	got, ok := cl.workerShard[w.ID]
	cl.mu.Unlock()
	if !ok || got != from {
		t.Fatalf("registry routes worker to shard %d (ok=%v) after failed move, want source %d", got, ok, from)
	}
	if n := len(cl.shards[from].eng.Instance().Workers); n != 1 {
		t.Errorf("source shard holds %d workers, want the surviving copy", n)
	}
	if got := cl.retirements.Load(); got != 0 {
		t.Errorf("move_retirements = %d after a failed move, want 0", got)
	}
	// The surviving copy is fully addressable: a removal drains it.
	if acks, err := cl.Mutate(ctx, engine.WorkerRemoval(w.ID)); err != nil || acks[0].Err != nil {
		t.Fatalf("removing the surviving copy: %v / %v", err, acks)
	}
	if err := cl.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	if n := len(cl.shards[from].eng.Instance().Workers); n != 0 {
		t.Errorf("source shard holds %d workers after removal, want 0", n)
	}
}
