package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"rdbsc/internal/applyloop"
	"rdbsc/internal/core"
	"rdbsc/internal/engine"
	"rdbsc/internal/gen"
	"rdbsc/internal/geo"
	"rdbsc/internal/model"
)

// Test solvers, registered once per binary. "test-sleep" parks until its
// deadline and returns an empty partial result (the ErrInterrupted path);
// "test-capture" publishes the problem it was handed and parks until
// released, so tests can churn the engine mid-solve.
var (
	captureProblem = make(chan *core.Problem, 8)
	captureRelease = make(chan struct{})
)

type sleepSolver struct{}

func (sleepSolver) Name() string { return "TEST-SLEEP" }
func (sleepSolver) Solve(ctx context.Context, p *core.Problem, opts *core.SolveOptions) (*core.Result, error) {
	<-ctx.Done()
	a := model.NewAssignment()
	return &core.Result{Assignment: a, Eval: p.Evaluate(a)},
		fmt.Errorf("%w: %w", core.ErrInterrupted, context.Cause(ctx))
}

type captureSolver struct{}

func (captureSolver) Name() string { return "TEST-CAPTURE" }
func (captureSolver) Solve(ctx context.Context, p *core.Problem, opts *core.SolveOptions) (*core.Result, error) {
	captureProblem <- p
	select {
	case <-captureRelease:
	case <-ctx.Done():
	}
	return core.NewGreedy().Solve(ctx, p, opts)
}

func init() {
	core.Register("test-sleep", func() core.Solver { return sleepSolver{} })
	core.Register("test-capture", func() core.Solver { return captureSolver{} })
}

// testTask and testWorker build a trivially reachable population around the
// center of the unit square.
func testTask(id int) string {
	return fmt.Sprintf(`{"id":%d,"x":0.5,"y":0.5,"start":0,"end":10}`, id)
}

func testWorker(id int) string {
	return fmt.Sprintf(`{"id":%d,"x":0.4,"y":0.4,"speed":1,"confidence":0.9}`, id)
}

// newTestServer boots the HTTP layer over a single-engine backend (a fresh
// empty engine unless ecfg names one) behind an httptest server.
func newTestServer(t *testing.T, ecfg EngineConfig, cfg Config) (*Server, *EngineBackend, *httptest.Server) {
	t.Helper()
	if ecfg.Engine == nil {
		ecfg.Engine = engine.New(engine.Config{SolverName: "greedy"})
	}
	b, err := NewEngineBackend(ecfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Backend = b
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, b, ts
}

// tryJSON performs a request and decodes the JSON response; safe to call
// from any goroutine.
func tryJSON(method, url, body string) (int, map[string]any, error) {
	var rd io.Reader
	if body != "" {
		rd = bytes.NewReader([]byte(body))
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return resp.StatusCode, nil, fmt.Errorf("%s %s: decoding response: %w", method, url, err)
	}
	return resp.StatusCode, out, nil
}

func doJSON(t *testing.T, method, url, body string) (int, map[string]any) {
	t.Helper()
	code, out, err := tryJSON(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	return code, out
}

// TestSummarize pins the nearest-rank quantiles behind /v1/stats'
// solve_latency_ms.
func TestSummarize(t *testing.T) {
	if q := summarize(nil); q != (quantiles{}) {
		t.Fatalf("empty sample: %+v", q)
	}
	sample := make([]float64, 100)
	for i := range sample {
		sample[i] = float64(100 - i) // 100..1, so sorting has work to do
	}
	q := summarize(sample)
	if q.P50 != 50 || q.P95 != 95 || q.P99 != 99 || q.Max != 100 || q.Mean != 50.5 {
		t.Fatalf("nearest-rank quantiles of 1..100: %+v", q)
	}
	if sample[0] != 100 || sample[99] != 1 {
		t.Fatal("summarize reordered its input")
	}
	if q := summarize([]float64{7}); q != (quantiles{P50: 7, P95: 7, P99: 7, Mean: 7, Max: 7}) {
		t.Fatalf("one-element sample: %+v", q)
	}
}

// TestDecomposeEngineShardsServeSolves pins that a Decompose engine keeps
// its component decomposition on the snapshot plane: serve-layer solves go
// through core.Sharded, and the exhaustive population cap surfaces as 422,
// not 500.
func TestDecomposeEngineShardsServeSolves(t *testing.T) {
	islands := gen.GenerateIslands(gen.Default().WithScale(24, 48).WithSeed(9), 4)
	eng := engine.NewFromInstance(islands, engine.Config{SolverName: "greedy", Decompose: true})
	s, _, ts := newTestServer(t, EngineConfig{Engine: eng}, Config{SolverName: "greedy"})

	code, body := doJSON(t, "POST", ts.URL+"/v1/solve", `{"seed":2}`)
	if code != http.StatusOK {
		t.Fatalf("solve: %d %v", code, body)
	}
	if comps := body["stats"].(map[string]any)["Components"].(float64); comps < 2 {
		t.Fatalf("Decompose engine solved monolithically on the serve plane: %v components", comps)
	}
	if body["solver"] != "SHARDED(GREEDY)" {
		t.Errorf("solver = %v, want the sharded wrapper", body["solver"])
	}
	// An explicitly sharded request must not be double-wrapped.
	code, body = doJSON(t, "POST", ts.URL+"/v1/solve", `{"solver":"sharded-greedy","seed":2}`)
	if code != http.StatusOK || body["solver"] != "SHARDED(GREEDY)" {
		t.Fatalf("explicit sharded solve: %d %v", code, body)
	}

	// Exhaustive over its population cap: a request-shaped refusal.
	code, body = doJSON(t, "POST", ts.URL+"/v1/solve", `{"solver":"exhaustive"}`)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("exhaustive over cap: %d %v, want 422", code, body)
	}
	if s.solveErrors.Load() != 0 {
		t.Errorf("population-cap refusal counted as a solve error")
	}
}

// TestUpsertResponseCoalescedAccounting pins the mutation response fields:
// "accepted" counts the request's mutations, "applied" only what reached
// the engine — matching /v1/stats mutations_applied. The batch linger keeps
// both duplicates in one batch deterministically.
func TestUpsertResponseCoalescedAccounting(t *testing.T) {
	_, b, ts := newTestServer(t, EngineConfig{BatchLinger: 100 * time.Millisecond}, Config{})
	code, body := doJSON(t, "POST", ts.URL+"/v1/workers", "["+testWorker(5)+","+testWorker(5)+"]")
	if code != http.StatusOK || body["accepted"].(float64) != 2 ||
		body["applied"].(float64) != 1 || body["coalesced"].(float64) != 1 {
		t.Fatalf("coalesced upsert accounting: %d %v", code, body)
	}
	if got := b.loop.Stats().Applied; got != 1 {
		t.Fatalf("stats applied = %d, want 1 (matching the response's applied field)", got)
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	_, _, ts := newTestServer(t, EngineConfig{}, Config{})
	for _, tc := range []struct {
		method, path, body string
	}{
		{"POST", "/v1/tasks", `{"id":1,"start":5,"end":1}`}, // End before Start
		{"POST", "/v1/tasks", `not json`},
		{"POST", "/v1/workers", `{"id":1,"speed":0}`}, // non-positive speed
		{"POST", "/v1/solve", `{"solver":"no-such-solver"}`},
		{"DELETE", "/v1/tasks/abc", ""},
	} {
		if code, body := doJSON(t, tc.method, ts.URL+tc.path, tc.body); code != http.StatusBadRequest {
			t.Errorf("%s %s %q: got %d %v, want 400", tc.method, tc.path, tc.body, code, body)
		}
	}
}

// TestBatchCoalescingSingleBump holds the apply loop on its first mutation,
// queues nine more edits of the same two entities, and releases: everything
// must drain as ONE batch — one engine version bump, coalesced duplicates
// never touching the engine.
func TestBatchCoalescingSingleBump(t *testing.T) {
	release := make(chan struct{})
	eng := engine.New(engine.Config{SolverName: "greedy"})
	s, err := NewEngineBackend(EngineConfig{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	s.testStallApply = func() { <-release }
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()

	v0 := s.Snapshot().Version
	reply := make(chan applyloop.Ack, 10)
	enq := func(m engine.Mutation) {
		t.Helper()
		if err := s.Enqueue(m, reply); err != nil {
			t.Fatal(err)
		}
	}
	// First mutation wakes the loop, which parks in the stall hook while
	// the rest queue up behind it.
	enq(engine.TaskUpsert(model.Task{ID: 1, Loc: geo.Pt(0.5, 0.5), Start: 0, End: 10}))
	for i := 0; i < 8; i++ {
		enq(engine.TaskUpsert(model.Task{ID: 1, Loc: geo.Pt(0.5, 0.5), Start: 0, End: float64(1 + i)}))
	}
	enq(engine.WorkerUpsert(model.Worker{ID: 7, Loc: geo.Pt(0.4, 0.4), Speed: 1, Dir: geo.FullCircle, Confidence: 0.9}))
	close(release)

	var acks []applyloop.Ack
	for i := 0; i < 10; i++ {
		select {
		case a := <-reply:
			acks = append(acks, a)
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out after %d acks", i)
		}
	}
	snap := s.Snapshot()
	if snap.Version != v0+1 {
		t.Errorf("10 queued mutations bumped the version %d times, want 1", snap.Version-v0)
	}
	var coalesced int
	for _, a := range acks {
		if a.Version != snap.Version {
			t.Errorf("ack version %d, want %d", a.Version, snap.Version)
		}
		if a.Coalesced {
			coalesced++
		}
	}
	if coalesced != 8 {
		t.Errorf("coalesced %d mutations, want 8 (duplicate task upserts)", coalesced)
	}
	if got := s.loop.Stats().Applied; got != 2 {
		t.Errorf("applied %d mutations to the engine, want 2", got)
	}
	if got := s.loop.Stats().Batches; got != 1 {
		t.Errorf("drained %d batches, want 1", got)
	}
	if tk, ok := eng.Task(1); !ok || tk.End != 8 {
		t.Errorf("last-wins coalescing broken: task = %v, present=%v", tk, ok)
	}
}

// TestQueueFullBackpressure fills the bounded queue while the apply loop is
// parked and checks that further mutations — direct and over HTTP — are
// rejected with ErrQueueFull / 429, then drain cleanly on release.
func TestQueueFullBackpressure(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	_, s, ts := newTestServer(t, EngineConfig{QueueDepth: 4}, Config{})
	s.testStallApply = func() {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
	}

	mk := func(id int) engine.Mutation {
		return engine.TaskUpsert(model.Task{ID: model.TaskID(id), Loc: geo.Pt(0.5, 0.5), Start: 0, End: 10})
	}
	// One mutation wakes (and parks) the loop; four more fill the queue.
	if err := s.Enqueue(mk(0), nil); err != nil {
		t.Fatal(err)
	}
	<-entered
	for i := 1; i <= 4; i++ {
		if err := s.Enqueue(mk(i), nil); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	if err := s.Enqueue(mk(5), nil); err != applyloop.ErrQueueFull {
		t.Fatalf("over-capacity enqueue: err = %v, want ErrQueueFull", err)
	}
	code, body := doJSON(t, "POST", ts.URL+"/v1/tasks", testTask(6))
	if code != http.StatusTooManyRequests {
		t.Fatalf("HTTP enqueue over capacity: %d %v, want 429", code, body)
	}

	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for s.loop.Stats().Applied < 5 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if tasks := s.Snapshot().Tasks(); tasks != 5 {
		t.Fatalf("drained to %d tasks, want 5", tasks)
	}
	if s.loop.Stats().RejectedFull < 2 {
		t.Errorf("rejected_queue_full = %d, want >= 2", s.loop.Stats().RejectedFull)
	}
}

// TestSolveDeadlinePartial maps a per-request timeout to the solve context
// and verifies the interrupted partial result comes back flagged, not as
// an error.
func TestSolveDeadlinePartial(t *testing.T) {
	s, _, ts := newTestServer(t, EngineConfig{}, Config{})
	start := time.Now()
	code, body := doJSON(t, "POST", ts.URL+"/v1/solve", `{"solver":"test-sleep","timeout_ms":50}`)
	if code != http.StatusOK {
		t.Fatalf("interrupted solve: %d %v", code, body)
	}
	if body["partial"] != true {
		t.Fatalf("deadline-bound solve not flagged partial: %v", body)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout_ms not honored: solve took %v", elapsed)
	}
	if s.partials.Load() != 1 || s.solveErrors.Load() != 0 {
		t.Errorf("partials=%d solveErrors=%d, want 1/0", s.partials.Load(), s.solveErrors.Load())
	}
}

// TestSnapshotIsolationAcrossBatches starts a solve, applies a batch while
// it runs, and verifies the solve kept its pre-batch view while the
// published snapshot moved on.
func TestSnapshotIsolationAcrossBatches(t *testing.T) {
	eng := engine.New(engine.Config{SolverName: "greedy"})
	eng.UpsertTask(model.Task{ID: 1, Loc: geo.Pt(0.5, 0.5), Start: 0, End: 10})
	eng.UpsertWorker(model.Worker{ID: 1, Loc: geo.Pt(0.4, 0.4), Speed: 1, Dir: geo.FullCircle, Confidence: 0.9})
	_, s, ts := newTestServer(t, EngineConfig{Engine: eng}, Config{})
	preVersion := s.Snapshot().Version

	solveDone := make(chan map[string]any, 1)
	go func() {
		_, body, err := tryJSON("POST", ts.URL+"/v1/solve", `{"solver":"test-capture"}`)
		if err != nil {
			t.Error(err)
		}
		solveDone <- body
	}()
	captured := <-captureProblem
	preTasks := len(captured.In.Tasks)

	// Churn while the solve is parked: the apply loop is free (solves never
	// hold it), so the batch applies and the published snapshot advances.
	code, _ := doJSON(t, "POST", ts.URL+"/v1/tasks", testTask(2))
	if code != http.StatusOK {
		t.Fatalf("mutation during solve: %d", code)
	}
	after := s.Snapshot()
	if after.Version == preVersion {
		t.Fatal("published snapshot did not advance")
	}
	if after.Problem == captured {
		t.Fatal("published snapshot still aliases the solving problem")
	}
	if len(captured.In.Tasks) != preTasks {
		t.Fatal("batch mutated the problem an in-flight solve holds")
	}

	close(captureRelease)
	body := <-solveDone
	if body["version"].(float64) != float64(preVersion) {
		t.Fatalf("solve reported version %v, want its snapshot version %d", body["version"], preVersion)
	}
	// The current assignment view exposes the staleness.
	_, body = doJSON(t, "GET", ts.URL+"/v1/assignment", "")
	if body["current_version"].(float64) == body["version"].(float64) {
		t.Fatal("assignment view should show a newer current_version after churn")
	}
}

// TestShutdownDrainsQueue: mutations accepted before Shutdown must be
// applied before the apply loop exits, and intake must answer 503 after.
func TestShutdownDrainsQueue(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	srv, s, ts := newTestServer(t, EngineConfig{QueueDepth: 64}, Config{})
	s.testStallApply = func() {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
	}

	for i := 0; i < 20; i++ {
		m := engine.TaskUpsert(model.Task{ID: model.TaskID(i), Loc: geo.Pt(0.5, 0.5), Start: 0, End: 10})
		if err := s.Enqueue(m, nil); err != nil {
			t.Fatal(err)
		}
	}
	<-entered

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- srv.Shutdown(ctx)
	}()
	// Intake must close even while the queue still drains.
	deadline := time.Now().Add(5 * time.Second)
	for {
		// Probe with a no-op mutation (removing an absent task), so probes
		// that sneak in before intake closes cannot change the engine.
		if err := s.Enqueue(engine.TaskRemoval(9_999), nil); err == applyloop.ErrClosed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("enqueue never started failing with ErrClosed")
		}
		time.Sleep(time.Millisecond)
	}
	code, _ := doJSON(t, "POST", ts.URL+"/v1/tasks", testTask(99))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("HTTP mutation during shutdown: %d, want 503", code)
	}

	close(release)
	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if got := s.Snapshot().Tasks(); got != 20 {
		t.Fatalf("shutdown drained to %d tasks, want all 20 accepted mutations applied", got)
	}
}

// TestConcurrentChurnAndSolves is the -race hammer: parallel clients mix
// upserts, removals, solves, and reads over HTTP while the apply loop
// batches under them.
func TestConcurrentChurnAndSolves(t *testing.T) {
	eng := engine.New(engine.Config{SolverName: "greedy"})
	for i := 0; i < 10; i++ {
		eng.UpsertTask(model.Task{ID: model.TaskID(i), Loc: geo.Pt(0.5, 0.5), Start: 0, End: 10})
		eng.UpsertWorker(model.Worker{ID: model.WorkerID(i), Loc: geo.Pt(0.4, 0.4), Speed: 1, Dir: geo.FullCircle, Confidence: 0.9})
	}
	s, _, ts := newTestServer(t, EngineConfig{Engine: eng, QueueDepth: 4096, BatchMax: 64}, Config{})

	const clients = 8
	const iters = 25
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				id := (c*iters + i) % 40
				var code int
				var err error
				switch i % 5 {
				case 0:
					code, _, err = tryJSON("POST", ts.URL+"/v1/tasks", testTask(id))
				case 1:
					code, _, err = tryJSON("POST", ts.URL+"/v1/workers", testWorker(id))
				case 2:
					code, _, err = tryJSON("POST", ts.URL+"/v1/solve", `{"solver":"greedy","seed":2,"timeout_ms":500}`)
				case 3:
					code, _, err = tryJSON("DELETE", fmt.Sprintf("%s/v1/workers/%d", ts.URL, id), "")
				default:
					code, _, err = tryJSON("GET", ts.URL+"/v1/stats", "")
				}
				if err != nil {
					t.Error(err)
					continue
				}
				switch code {
				case http.StatusOK, http.StatusAccepted, http.StatusTooManyRequests:
				default:
					t.Errorf("client %d iter %d: unexpected status %d", c, i, code)
				}
			}
		}(c)
	}
	wg.Wait()

	// The engine must come out of the storm internally consistent: the
	// indexed pair set equals a brute-force scan of the final population.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	p := eng.Problem()
	if want := eng.Instance().ValidPairs(); len(p.Pairs) != len(want) {
		t.Fatalf("index retrieved %d pairs, scan found %d", len(p.Pairs), len(want))
	}
}
