package serve_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"rdbsc/internal/applyloop"
	"rdbsc/internal/cluster"
	"rdbsc/internal/core"
	"rdbsc/internal/engine"
	"rdbsc/internal/model"
	"rdbsc/internal/serve"
	"rdbsc/internal/store"
)

// The HTTP contract: every status code and JSON shape of the /v1 surface,
// run through the one handler over each state backend. A case here holds
// for both; what only one backend does (coalescing counts, cross-shard
// moves, recovery) is tested next to that backend.

// backend opens one state plane. queue is the per-loop queue depth (0 =
// default); newStore, when non-nil, supplies each apply loop's store.
type backend struct {
	name    string
	sharded bool
	open    func(queue int, newStore func() store.Store) (serve.Backend, error)
}

var backends = []backend{
	{"engine", false, func(queue int, newStore func() store.Store) (serve.Backend, error) {
		cfg := serve.EngineConfig{Engine: engine.New(engine.Config{Beta: 0.5, BetaSet: true}), QueueDepth: queue}
		if newStore != nil {
			cfg.Store = newStore()
		}
		return serve.NewEngineBackend(cfg)
	}},
	{"cluster4", true, func(queue int, newStore func() store.Store) (serve.Backend, error) {
		cfg := cluster.Config{Shards: 4, Beta: 0.5, BetaSet: true, QueueDepth: queue}
		for i := 0; newStore != nil && i < cfg.Shards; i++ {
			cfg.Stores = append(cfg.Stores, newStore())
		}
		return cluster.New(cfg, nil)
	}},
}

// hookStore is a memory store whose AppendBatch runs a hook first. Appends
// happen on the apply loop before the batch applies, so a failing hook is a
// full disk and a parked one holds a batch unapplied and the queue behind
// it full — from outside either backend, with no test-only switch inside.
type hookStore struct {
	store.Memory
	hook func() error
}

func (s *hookStore) AppendBatch([]engine.Mutation) error { return s.hook() }

// gate parks every append that reaches it until release is closed.
type gate struct {
	entered chan struct{}
	release chan struct{}
}

func newGate() *gate {
	return &gate{entered: make(chan struct{}, 64), release: make(chan struct{})}
}

func (g *gate) store() store.Store {
	return &hookStore{hook: func() error {
		g.entered <- struct{}{}
		<-g.release
		return nil
	}}
}

// parkSolver parks until its deadline and returns an empty partial result.
type parkSolver struct{}

func (parkSolver) Name() string { return "CONTRACT-PARK" }
func (parkSolver) Solve(ctx context.Context, p *core.Problem, _ *core.SolveOptions) (*core.Result, error) {
	<-ctx.Done()
	a := model.NewAssignment()
	return &core.Result{Assignment: a, Eval: p.Evaluate(a)},
		fmt.Errorf("%w: %w", core.ErrInterrupted, context.Cause(ctx))
}

func init() { core.Register("contract-park", func() core.Solver { return parkSolver{} }) }

// harness is one server over one backend behind an httptest listener.
type harness struct {
	t       *testing.T
	sharded bool
	srv     *serve.Server
	url     string
}

func start(t *testing.T, b backend, cfg serve.Config, queue int, newStore func() store.Store) *harness {
	t.Helper()
	state, err := b.open(queue, newStore)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Backend = state
	if cfg.SolverName == "" {
		cfg.SolverName = "greedy"
	}
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return &harness{t: t, sharded: b.sharded, srv: srv, url: ts.URL}
}

type reply struct {
	code int
	hdr  http.Header
	body map[string]any
}

func (r reply) String() string { return fmt.Sprintf("%d %v", r.code, r.body) }

// try performs a request over the listener; safe from any goroutine.
func (h *harness) try(method, path, body string) (reply, error) {
	req, err := http.NewRequest(method, h.url+path, strings.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	r := reply{code: resp.StatusCode, hdr: resp.Header}
	if err := json.NewDecoder(resp.Body).Decode(&r.body); err != nil {
		return r, fmt.Errorf("%s %s: decoding response: %w", method, path, err)
	}
	return r, nil
}

func (h *harness) do(method, path, body string) reply {
	h.t.Helper()
	r, err := h.try(method, path, body)
	if err != nil {
		h.t.Fatal(err)
	}
	return r
}

// want performs a request and fails the test unless it answers code.
func (h *harness) want(code int, method, path, body string) reply {
	h.t.Helper()
	r := h.do(method, path, body)
	if r.code != code {
		h.t.Fatalf("%s %s %s: got %v, want %d", method, path, body, r, code)
	}
	return r
}

// handle runs one request straight through the handler under ctx, so the
// test can end the request's context and still read the response.
func (h *harness) handle(ctx context.Context, method, path, body string) <-chan reply {
	done := make(chan reply, 1)
	go func() {
		rec := httptest.NewRecorder()
		h.srv.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)).WithContext(ctx))
		r := reply{code: rec.Code, hdr: rec.Header()}
		_ = json.Unmarshal(rec.Body.Bytes(), &r.body)
		done <- r
	}()
	return done
}

// await polls /v1/stats until ok accepts it.
func (h *harness) await(what string, ok func(stats map[string]any) bool) {
	h.t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if ok(h.want(200, "GET", "/v1/stats", "").body) {
			return
		}
	}
	h.t.Fatalf("timed out waiting for %s", what)
}

// populate posts a line of tasks and a line of workers across the unit
// square as two arrays: every worker reaches every task (one component of
// tasks×workers pairs), and on the sharded backend the entities land on
// several shards, so most of those pairs cross shards.
func (h *harness) populate(tasks, workers int) {
	h.t.Helper()
	var ts, ws []string
	for i := 0; i < tasks; i++ {
		ts = append(ts, fmt.Sprintf(`{"id":%d,"x":%.3f,"y":0.5,"start":0,"end":6}`, i, 0.05+0.9*float64(i)/float64(tasks)))
	}
	for i := 0; i < workers; i++ {
		ws = append(ws, fmt.Sprintf(`{"id":%d,"x":%.3f,"y":0.45,"speed":1,"confidence":0.8}`, i, 0.05+0.9*float64(i)/float64(workers)))
	}
	if r := h.want(200, "POST", "/v1/tasks", "["+strings.Join(ts, ",")+"]"); r.body["accepted"] != float64(tasks) {
		h.t.Fatalf("task array ack: %v", r)
	}
	if r := h.want(200, "POST", "/v1/workers", "["+strings.Join(ws, ",")+"]"); r.body["changed"] != float64(workers) {
		h.t.Fatalf("worker array ack: %v", r)
	}
}

func keys(m map[string]any) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

const centerTask = `{"id":%d,"x":0.5,"y":0.5,"start":0,"end":10}`

var contract = []struct {
	name string
	run  func(t *testing.T, b backend)
}{
	{"lifecycle", func(t *testing.T, b backend) {
		h := start(t, b, serve.Config{}, 0, nil)

		h.want(404, "GET", "/v1/assignment", "")

		ack := h.want(200, "POST", "/v1/tasks", fmt.Sprintf(centerTask, 100)).body
		if !reflect.DeepEqual(keys(ack), []string{"accepted", "applied", "changed", "coalesced", "version"}) ||
			ack["accepted"] != 1.0 || ack["applied"] != 1.0 || ack["changed"] != 1.0 || ack["coalesced"] != 0.0 || ack["version"].(float64) < 1 {
			t.Fatalf("single upsert ack: %v", ack)
		}
		h.populate(12, 16)

		solve := h.want(200, "POST", "/v1/solve", `{"solver":"greedy","seed":3}`).body
		if solve["feasible"] != true || solve["partial"] != false || solve["solver"] != "GREEDY" || solve["seed"] != 3.0 {
			t.Fatalf("solve: %v", solve)
		}
		assigned := solve["assignment"].([]any)
		if len(assigned) == 0 || solve["assigned_workers"] != float64(len(assigned)) {
			t.Fatalf("solve assignment: %v", solve)
		}
		// The coordinator fields are all there on a sharded backend, zero or
		// not, and none of them on a single engine.
		for _, k := range []string{"escalated_components", "interior_components", "cross_shard_pairs", "assembly_reused"} {
			if _, ok := solve[k]; ok != h.sharded {
				t.Errorf("solve field %q present=%v on a backend with sharded=%v", k, ok, h.sharded)
			}
		}

		got := h.want(200, "GET", "/v1/assignment", "").body
		if got["version"] != solve["version"] || got["current_version"] != solve["version"] {
			t.Fatalf("assignment versions %v/%v, want both %v", got["version"], got["current_version"], solve["version"])
		}
		if !reflect.DeepEqual(got["assignment"], solve["assignment"]) {
			t.Fatal("stored assignment diverged from the solve response")
		}

		stats := h.want(200, "GET", "/v1/stats", "").body
		wantKeys := []string{"batches", "beta", "durability", "mutations_applied", "mutations_coalesced",
			"mutations_enqueued", "pairs", "partial_solves", "queue_cap", "queue_len", "rebuilds",
			"rejected_queue_full", "solve_cache_evictions", "solve_cache_hits", "solve_cache_misses",
			"solve_errors", "solve_latency_ms", "solver_stats", "solves", "tasks", "uptime_ms", "version", "workers"}
		if h.sharded {
			wantKeys = append(wantKeys, "cluster", "shards")
		} else {
			wantKeys = append(wantKeys, "retrieve_ms")
		}
		sort.Strings(wantKeys)
		if !reflect.DeepEqual(keys(stats), wantKeys) {
			t.Errorf("stats keys\n got %v\nwant %v", keys(stats), wantKeys)
		}
		if stats["tasks"] != 13.0 || stats["workers"] != 16.0 || stats["pairs"] != 13.0*16 || stats["beta"] != 0.5 {
			t.Errorf("stats population: %v", stats)
		}
		if stats["version"] != solve["version"] || stats["batches"].(float64) < 3 || stats["mutations_applied"] != 29.0 {
			t.Errorf("stats state plane: %v", stats)
		}
		latency := stats["solve_latency_ms"].(map[string]any)
		if got := keys(latency); !reflect.DeepEqual(got, []string{"max", "mean", "p50", "p95", "p99"}) {
			t.Errorf("solve_latency_ms keys %v, want [max mean p50 p95 p99]", got)
		}
		if stats["solves"] != 1.0 || stats["solver_stats"].(map[string]any)["Rounds"].(float64) == 0 || latency["max"].(float64) <= 0 {
			t.Errorf("stats solve plane: %v", stats)
		}
		if stats["durability"].(map[string]any)["backend"] != "memory" {
			t.Errorf("stats durability: %v", stats["durability"])
		}

		hz := h.want(200, "GET", "/healthz", "").body
		if hz["ok"] != true || hz["version"] != stats["version"] {
			t.Errorf("healthz %v, want ok at version %v", hz, stats["version"])
		}
		if _, ok := hz["shards"]; ok != h.sharded {
			t.Errorf("healthz shards present=%v on a backend with sharded=%v", ok, h.sharded)
		}

		rm := h.want(200, "DELETE", "/v1/workers/15", "").body
		if !reflect.DeepEqual(keys(rm), []string{"coalesced", "removed", "version"}) || rm["removed"] != true {
			t.Fatalf("remove worker: %v", rm)
		}
		if rm := h.want(200, "DELETE", "/v1/workers/999", "").body; rm["removed"] != false {
			t.Fatalf("remove absent worker: %v", rm)
		}
		// The stored assignment now shows its age.
		if cur := h.want(200, "GET", "/v1/assignment", "").body; cur["current_version"].(float64) <= cur["version"].(float64) {
			t.Fatalf("current_version did not move past the solve's after a removal: %v", cur)
		}
		if after := h.want(200, "GET", "/v1/stats", "").body; after["workers"] != 15.0 {
			t.Errorf("workers %v after a removal, want 15", after["workers"])
		}
	}},

	{"cached-solve", func(t *testing.T, b backend) {
		h := start(t, b, serve.Config{SolveCache: 8}, 0, nil)
		h.populate(6, 8)

		first := h.want(200, "POST", "/v1/solve", `{"seed":7}`).body
		if _, ok := first["cached"]; ok {
			t.Fatalf("first solve reported cached: %v", first)
		}
		second := h.want(200, "POST", "/v1/solve", `{"seed":7}`).body
		if second["cached"] != true {
			t.Fatalf("repeat solve not served from cache: %v", second)
		}
		// The replay is the first answer verbatim, original timing included.
		delete(second, "cached")
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("cached answer diverged:\n first %v\nsecond %v", first, second)
		}
		// A different seed is a different request identity; any applied
		// batch is a different state.
		if other := h.want(200, "POST", "/v1/solve", `{"seed":8}`).body; other["cached"] == true {
			t.Fatal("different seed hit the cache")
		}
		h.want(200, "POST", "/v1/workers", `{"id":99,"x":0.5,"y":0.45,"speed":1,"confidence":0.8}`)
		third := h.want(200, "POST", "/v1/solve", `{"seed":7}`).body
		if third["cached"] == true || third["version"] == first["version"] {
			t.Fatalf("solve after a mutation batch: cached=%v version %v (was %v)", third["cached"], third["version"], first["version"])
		}
		// Hits answer without running a solver.
		stats := h.want(200, "GET", "/v1/stats", "").body
		if stats["solve_cache_hits"] != 1.0 || stats["solve_cache_misses"] != 3.0 || stats["solves"] != 3.0 {
			t.Fatalf("cache counters: hits %v misses %v solves %v, want 1/3/3",
				stats["solve_cache_hits"], stats["solve_cache_misses"], stats["solves"])
		}
	}},

	{"partial-on-timeout", func(t *testing.T, b backend) {
		h := start(t, b, serve.Config{SolveCache: 8}, 0, nil)
		h.populate(3, 4)
		began := time.Now()
		for i := 0; i < 2; i++ { // twice: a partial is never cached
			r := h.want(200, "POST", "/v1/solve", `{"solver":"contract-park","timeout_ms":50}`).body
			if r["partial"] != true || r["cached"] == true {
				t.Fatalf("deadline-bound solve: %v", r)
			}
		}
		if elapsed := time.Since(began); elapsed > 5*time.Second {
			t.Fatalf("timeout_ms not honored: two solves took %v", elapsed)
		}
		stats := h.want(200, "GET", "/v1/stats", "").body
		if stats["partial_solves"] != 2.0 || stats["solve_errors"] != 0.0 || stats["solves"] != 2.0 {
			t.Errorf("partials %v errors %v solves %v, want 2/0/2", stats["partial_solves"], stats["solve_errors"], stats["solves"])
		}
	}},

	{"bad-request-400", func(t *testing.T, b backend) {
		h := start(t, b, serve.Config{}, 0, nil)
		for _, tc := range []struct{ method, path, body string }{
			{"POST", "/v1/tasks", `not json`},
			{"POST", "/v1/tasks", ``},
			{"POST", "/v1/workers", `[{"id":1,"speed":1,"confidence":0.5},`},
			{"POST", "/v1/tasks", `{"id":1,"start":5,"end":1}`}, // End before Start
			{"POST", "/v1/workers", `{"id":1,"speed":0}`},       // non-positive speed
			{"POST", "/v1/solve", `{"solver":"no-such-solver"}`},
			{"POST", "/v1/solve", `{"seed":"x"}`},
			{"DELETE", "/v1/tasks/abc", ""},
			{"DELETE", "/v1/workers/99999999999", ""},
		} {
			if r := h.do(tc.method, tc.path, tc.body); r.code != 400 || r.body["error"] == nil {
				t.Errorf("%s %s %q: got %v, want 400 with an error", tc.method, tc.path, tc.body, r)
			}
		}
		if stats := h.want(200, "GET", "/v1/stats", "").body; stats["mutations_enqueued"] != 0.0 || stats["solves"] != 0.0 {
			t.Errorf("a rejected request reached the state plane: %v", stats)
		}
	}},

	{"exhaustive-over-cap-422", func(t *testing.T, b backend) {
		h := start(t, b, serve.Config{}, 0, nil)
		h.populate(12, 16) // one component, 12^16 assignments
		h.want(422, "POST", "/v1/solve", `{"solver":"exhaustive"}`)
		// A request-shaped refusal, not a server fault.
		if stats := h.want(200, "GET", "/v1/stats", "").body; stats["solve_errors"] != 0.0 {
			t.Errorf("population-cap refusal counted as a solve error: %v", stats["solve_errors"])
		}
	}},

	{"queue-full-429", func(t *testing.T, b backend) {
		g := newGate()
		h := start(t, b, serve.Config{}, 1, g.store)
		// Same location, so the sharded backend routes all of it to one
		// loop. The first upsert parks that loop in its append; the second
		// fills the depth-1 queue behind it.
		held := make(chan reply, 2)
		post := func(id int) {
			r, err := h.try("POST", "/v1/tasks", fmt.Sprintf(centerTask, id))
			if err != nil {
				t.Error(err)
			}
			held <- r
		}
		go post(1)
		<-g.entered
		go post(2)
		h.await("the second upsert to queue", func(s map[string]any) bool { return s["queue_len"] == 1.0 })

		r := h.want(429, "POST", "/v1/tasks", fmt.Sprintf(centerTask, 3))
		if r.body["enqueued"] != 0.0 || r.body["error"] != applyloop.ErrQueueFull.Error() {
			t.Errorf("429 body: %v", r)
		}
		h.want(429, "DELETE", "/v1/tasks/1", "")

		close(g.release)
		for i := 0; i < 2; i++ {
			if r := <-held; r.code != 200 {
				t.Errorf("held upsert after release: %v", r)
			}
		}
		stats := h.want(200, "GET", "/v1/stats", "").body
		if stats["tasks"] != 2.0 || stats["rejected_queue_full"] != 2.0 {
			t.Errorf("after drain: tasks %v rejected %v, want 2/2", stats["tasks"], stats["rejected_queue_full"])
		}
	}},

	{"request-ended-202", func(t *testing.T, b backend) {
		g := newGate()
		h := start(t, b, serve.Config{}, 0, g.store)
		ctx, cancel := context.WithCancel(context.Background())
		upsert := h.handle(ctx, "POST", "/v1/tasks", fmt.Sprintf(centerTask, 1))
		<-g.entered // the batch is logged-in-progress, not applied
		removal := h.handle(ctx, "DELETE", "/v1/tasks/1", "")
		h.await("the removal to queue", func(s map[string]any) bool { return s["mutations_enqueued"] == 2.0 })
		cancel()
		if r := <-upsert; r.code != 202 || r.body["queued"] != 1.0 || r.body["note"] == nil {
			t.Errorf("upsert whose request ended: %v", r)
		}
		if r := <-removal; r.code != 202 || r.body["queued"] != 1.0 {
			t.Errorf("removal whose request ended: %v", r)
		}
		// Accepted means applied, request or no request.
		close(g.release)
		h.await("both mutations to apply", func(s map[string]any) bool { return s["mutations_applied"] == 2.0 })
		if stats := h.want(200, "GET", "/v1/stats", "").body; stats["tasks"] != 0.0 {
			t.Errorf("tasks %v after upsert+removal, want 0", stats["tasks"])
		}
	}},

	{"append-failure-503", func(t *testing.T, b backend) {
		boom := errors.New("no space left on device")
		h := start(t, b, serve.Config{}, 0, func() store.Store {
			return &hookStore{hook: func() error { return boom }}
		})
		if r := h.want(503, "POST", "/v1/tasks", fmt.Sprintf(centerTask, 1)); !strings.Contains(fmt.Sprint(r.body["error"]), boom.Error()) {
			t.Errorf("503 body does not carry the append error: %v", r)
		}
		h.want(503, "DELETE", "/v1/tasks/1", "")
		// Never acknowledged and dropped: nothing reached an engine, and the
		// failure is visible.
		stats := h.want(200, "GET", "/v1/stats", "").body
		if stats["tasks"] != 0.0 || stats["durability"].(map[string]any)["wal_append_failures"] != 2.0 {
			t.Errorf("after failed appends: tasks %v durability %v", stats["tasks"], stats["durability"])
		}
	}},

	{"shutdown-503", func(t *testing.T, b backend) {
		h := start(t, b, serve.Config{}, 0, nil)
		h.populate(3, 4)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := h.srv.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		if r := h.want(503, "POST", "/v1/tasks", fmt.Sprintf(centerTask, 9)); r.body["enqueued"] != 0.0 {
			t.Errorf("503 body: %v", r)
		}
		h.want(503, "DELETE", "/v1/workers/1", "")
		// Everything accepted before the shutdown was applied, and reads
		// still answer from the last view.
		if stats := h.want(200, "GET", "/v1/stats", "").body; stats["tasks"] != 3.0 || stats["workers"] != 4.0 {
			t.Errorf("population after shutdown: %v", stats)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		if err := h.srv.Serve(ln); !errors.Is(err, applyloop.ErrClosed) {
			t.Errorf("Serve after Shutdown: %v, want ErrClosed", err)
		}
	}},

	// Under an impossible budget the adaptive tier walks its ladder: shed
	// when there is nothing to serve, then serve the last assignment stale
	// inside the bound, then shed again once the bound has passed.
	{"degrade-stale-shed", func(t *testing.T, b backend) {
		// Under a 1ns budget every adaptive request is over budget. The
		// first one solves as the probe; holding it in flight leaves every
		// other over-budget request on the ladder: shed while nothing can
		// be served, stale within -max-stale, shed past it.
		const maxStale = 300 * time.Millisecond
		held := &holdBackend{entered: make(chan struct{}, 1), release: make(chan struct{})}
		hb := backend{b.name, b.sharded, func(queue int, newStore func() store.Store) (serve.Backend, error) {
			inner, err := b.open(queue, newStore)
			held.Backend = inner
			return held, err
		}}
		h := start(t, hb, serve.Config{Adaptive: true, SLOp99: time.Nanosecond, MaxStale: maxStale}, 0, nil)
		t.Cleanup(func() { // before the server's shutdown, should the test stop early
			select {
			case <-held.release:
			default:
				close(held.release)
			}
		})
		h.populate(3, 4)

		probe := make(chan reply, 1)
		go func() {
			r, err := h.try("POST", "/v1/solve", `{}`)
			if err != nil {
				t.Error(err)
			}
			probe <- r
		}()
		<-held.entered

		if r := h.want(429, "POST", "/v1/solve", `{}`); r.hdr.Get("Retry-After") != "1" {
			t.Errorf("shed without Retry-After: %v", r.hdr)
		}
		// An explicit solver bypasses the tier and seeds the last assignment.
		seeded := h.want(200, "POST", "/v1/solve", `{"solver":"greedy","seed":1}`).body
		if seeded["lanes"] != nil || seeded["degraded"] != nil {
			t.Errorf("explicit-solver request carried adaptive fields: %v", seeded)
		}

		sawDegraded, sawShed := false, false
		for deadline := time.Now().Add(2 * maxStale); time.Now().Before(deadline); time.Sleep(40 * time.Millisecond) {
			switch r := h.do("POST", "/v1/solve", `{}`); r.code {
			case 200:
				if sawShed {
					t.Fatalf("served stale after the bound had passed: %v", r)
				}
				stale, _ := r.body["stale_ms"].(float64)
				if r.body["degraded"] != true || stale > float64(maxStale/time.Millisecond) ||
					r.body["current_version"] != seeded["version"] || !reflect.DeepEqual(r.body["assignment"], seeded["assignment"]) {
					t.Fatalf("degraded answer: %v", r)
				}
				sawDegraded = true
			case 429:
				sawShed = true
			default:
				t.Fatalf("unexpected status: %v", r)
			}
		}
		if !sawDegraded || !sawShed {
			t.Errorf("degraded inside the bound: %v, shed past it: %v; want both", sawDegraded, sawShed)
		}

		// The probe, once released, answers with a fresh solve.
		close(held.release)
		if r := <-probe; r.code != 200 || r.body["degraded"] != nil || r.body["lanes"] == nil {
			t.Errorf("probe answer: %v", r)
		}
		ad := h.want(200, "GET", "/v1/stats", "").body["adaptive"].(map[string]any)
		if ad["stale_served"].(float64) < 1 || ad["shed"].(float64) < 2 || ad["budget_ms"] != 1e-6 {
			t.Errorf("adaptive stats: %v", ad)
		}
	}},
}

// holdBackend wraps a state backend so that adaptive solves — the only
// kind the over-budget probe runs — signal entered and then park until
// release is closed.
type holdBackend struct {
	serve.Backend
	entered chan struct{}
	release chan struct{}
}

func (b *holdBackend) View() serve.View { return holdView{b.Backend.View(), b} }

type holdView struct {
	serve.View
	b *holdBackend
}

func (v holdView) Solve(ctx context.Context, s core.Solver, opts *core.SolveOptions) (*core.Result, *serve.CoordinatorInfo, error) {
	if strings.Contains(s.Name(), "ADAPTIVE") {
		v.b.entered <- struct{}{}
		<-v.b.release
	}
	return v.View.Solve(ctx, s, opts)
}

func TestHTTPContract(t *testing.T) {
	for _, b := range backends {
		for _, tc := range contract {
			t.Run(b.name+"/"+tc.name, func(t *testing.T) { tc.run(t, b) })
		}
	}
}
