package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"rdbsc/internal/engine"
	"rdbsc/internal/gen"
	"rdbsc/internal/model"
	"rdbsc/internal/store"
)

// startDurable boots a server over a file store in dir and returns a stop
// function that drains and closes it — the graceful half of a restart
// cycle; crash-restart (SIGKILL) is exercised end-to-end by the
// cmd/rdbsc-server harness.
func startDurable(t *testing.T, dir string, snapEvery int, eng *engine.Engine) (*Server, *httptest.Server, func()) {
	t.Helper()
	fs, err := store.Open(dir, store.FileOptions{Fsync: store.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if eng == nil {
		eng = engine.New(engine.Config{SolverName: "greedy"})
	}
	b, err := NewEngineBackend(EngineConfig{Engine: eng, Store: fs, SnapshotEvery: snapEvery})
	if err != nil {
		fs.Close()
		t.Fatal(err)
	}
	s, err := New(Config{Backend: b, SolverName: "greedy"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	stopped := false
	stop := func() {
		if stopped {
			return
		}
		stopped = true
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	}
	t.Cleanup(stop)
	return s, ts, stop
}

// TestDurableRecoveryExact pins the serve-layer recovery contract: after a
// stop and a reboot from the data directory, the engine version and the
// solve answer are identical to the pre-stop server's.
func TestDurableRecoveryExact(t *testing.T) {
	dir := t.TempDir()
	_, ts, stop := startDurable(t, dir, 3, nil) // snapshot every 3 batches: exercises snapshot + WAL suffix

	for i := 1; i <= 7; i++ {
		if code, body := doJSON(t, "POST", ts.URL+"/v1/tasks", testTask(i)); code != http.StatusOK {
			t.Fatalf("task %d: %d %v", i, code, body)
		}
		if code, body := doJSON(t, "POST", ts.URL+"/v1/workers", testWorker(i)); code != http.StatusOK {
			t.Fatalf("worker %d: %d %v", i, code, body)
		}
	}
	_, statsBefore := doJSON(t, "GET", ts.URL+"/v1/stats", "")
	code, solveBefore := doJSON(t, "POST", ts.URL+"/v1/solve", `{"solver":"greedy","seed":3}`)
	if code != http.StatusOK || solveBefore["feasible"] != true {
		t.Fatalf("pre-stop solve: %d %v", code, solveBefore)
	}
	stop()

	_, ts2, _ := startDurable(t, dir, 3, engine.New(engine.Config{SolverName: "greedy"}))
	_, statsAfter := doJSON(t, "GET", ts2.URL+"/v1/stats", "")
	for _, k := range []string{"version", "tasks", "workers"} {
		if statsBefore[k] != statsAfter[k] {
			t.Errorf("recovered %s = %v, want %v", k, statsAfter[k], statsBefore[k])
		}
	}
	dur, ok := statsAfter["durability"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing durability block: %v", statsAfter)
	}
	if dur["backend"] != "file" || dur["recovered_batches"].(float64) < 1 {
		t.Errorf("durability after recovery = %v, want file backend with recovered batches", dur)
	}
	code, solveAfter := doJSON(t, "POST", ts2.URL+"/v1/solve", `{"solver":"greedy","seed":3}`)
	if code != http.StatusOK {
		t.Fatalf("post-recovery solve: %d %v", code, solveAfter)
	}
	// Timing and caching fields legitimately differ across boots;
	// everything else — version, objective, the full assignment — must be
	// identical.
	for _, volatile := range []string{"elapsed_ms", "at", "stats", "cached"} {
		delete(solveBefore, volatile)
		delete(solveAfter, volatile)
	}
	if !reflect.DeepEqual(solveBefore, solveAfter) {
		t.Errorf("solve diverged across recovery:\n before: %v\n after:  %v", solveBefore, solveAfter)
	}
}

// TestBootSnapshotSeedsStore: a server booted with a preloaded engine and
// an empty store must seed the store, so a later restart recovers the
// preloaded population without the original input files.
func TestBootSnapshotSeedsStore(t *testing.T) {
	dir := t.TempDir()
	in := gen.Generate(gen.Default().WithScale(10, 20).WithSeed(3))
	eng := engine.NewFromInstance(in, engine.Config{SolverName: "greedy"})
	wantEta := eng.GridEta()
	_, ts, stop := startDurable(t, dir, 0, eng)
	_, statsBefore := doJSON(t, "GET", ts.URL+"/v1/stats", "")
	stop()

	// Recover into an engine configured like the preloaded one (β and
	// options come from the instance; the grid eta must come back from the
	// snapshot, not from the empty-engine default).
	fresh := engine.New(engine.Config{Beta: in.Beta, BetaSet: true, Opt: in.Opt, SolverName: "greedy"})
	_, ts2, _ := startDurable(t, dir, 0, fresh)
	_, statsAfter := doJSON(t, "GET", ts2.URL+"/v1/stats", "")
	for _, k := range []string{"version", "tasks", "workers", "pairs"} {
		if statsBefore[k] != statsAfter[k] {
			t.Errorf("recovered %s = %v, want %v", k, statsAfter[k], statsBefore[k])
		}
	}
	if got := fresh.GridEta(); got != wantEta {
		t.Errorf("recovered grid eta %v, want the boot engine's %v", got, wantEta)
	}
}

// TestRecoveredStatePreloadConflict: recovered state plus a preloaded
// engine is ambiguous — New must refuse rather than guess.
func TestRecoveredStatePreloadConflict(t *testing.T) {
	dir := t.TempDir()
	fs, err := store.Open(dir, store.FileOptions{Fsync: store.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.AppendBatch([]engine.Mutation{engine.TaskRemoval(1)}); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	fs2, err := store.Open(dir, store.FileOptions{Fsync: store.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	in := gen.Generate(gen.Default().WithScale(5, 10).WithSeed(1))
	if _, err := NewEngineBackend(EngineConfig{Engine: engine.NewFromInstance(in, engine.Config{}), Store: fs2}); err == nil {
		t.Fatal("NewEngineBackend accepted recovered state plus a preloaded engine")
	}
}

// failStore fails every append the way a full disk would; everything else
// behaves like the memory backend.
type failStore struct {
	store.Memory
	err error
}

func (f *failStore) AppendBatch([]engine.Mutation) error { return f.err }

func (f *failStore) WriteSnapshot(uint64, float64, *model.Instance, store.EntityEpochs) error {
	return nil
}

// TestAppendFailureIs503 pins the no-silent-loss surface: when the WAL
// cannot be written, mutations are rejected with 503 — never acknowledged
// and dropped — and the failure is visible in the stats.
func TestAppendFailureIs503(t *testing.T) {
	boom := errors.New("no space left on device")
	_, _, ts := newTestServer(t, EngineConfig{Store: &failStore{err: boom}}, Config{})

	code, body := doJSON(t, "POST", ts.URL+"/v1/tasks", testTask(1))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("mutation with a failing WAL: %d %v, want 503", code, body)
	}
	if fmt.Sprint(body["error"]) == "" {
		t.Fatalf("503 body carries no error: %v", body)
	}
	// Nothing may have reached the engine.
	_, stats := doJSON(t, "GET", ts.URL+"/v1/stats", "")
	if stats["tasks"].(float64) != 0 {
		t.Fatalf("engine holds %v tasks after a failed append, want 0", stats["tasks"])
	}
	dur := stats["durability"].(map[string]any)
	if dur["wal_append_failures"].(float64) < 1 {
		t.Fatalf("durability stats %v, want wal_append_failures >= 1", dur)
	}
}
