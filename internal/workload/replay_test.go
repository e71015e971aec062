package workload

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rdbsc/internal/engine"
	"rdbsc/internal/serve"
)

// startServer runs an in-process single-engine server for one test.
func startServer(t *testing.T) *httptest.Server {
	t.Helper()
	backend, err := serve.NewEngineBackend(serve.EngineConfig{Engine: engine.New(engine.Config{})})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Config{Backend: backend, SolverName: "greedy"})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Shutdown(context.Background())
	})
	return hs
}

// TestReplayAgainstHTTPTestServer is the loadgen dry run: replay a small
// dense trace against an in-process serve.Server and check the report
// accounts for every request, at least one solve completed feasibly, and
// the server's own /v1/stats latency view was populated.
func TestReplayAgainstHTTPTestServer(t *testing.T) {
	hs := startServer(t)

	sc, err := ByName("dense")
	if err != nil {
		t.Fatal(err)
	}
	tr := sc.Trace(Params{M: 15, N: 30, Seed: 3})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rep, err := Replay(ctx, tr, ReplayConfig{
		BaseURL: hs.URL,
		// ~2s of wall clock: compressed enough to stay fast, slow enough
		// that tasks live tens of milliseconds and solve ticks reliably
		// observe a populated snapshot (600 h/s made every task's alive
		// window ~2ms and flaked under -race).
		HoursPerSecond: 120,
		SolveEvery:     0.2,
		Solver:         "greedy",
		Seed:           3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatalf("report invalid: %v", err)
	}
	if rep.Kind != "load" || rep.Scenario != "dense" {
		t.Fatalf("report header %q/%q", rep.Kind, rep.Scenario)
	}

	l := rep.Load
	if l == nil {
		t.Fatal("missing load metrics")
	}
	if l.MutationsSent != len(tr.Events) {
		t.Errorf("sent %d mutations, trace has %d events", l.MutationsSent, len(tr.Events))
	}
	if l.MutationsOK+l.MutationsRejected+l.MutationErrors != l.MutationsSent {
		t.Errorf("mutation accounting leaks: ok %d + 429 %d + err %d != sent %d",
			l.MutationsOK, l.MutationsRejected, l.MutationErrors, l.MutationsSent)
	}
	if l.MutationErrors != 0 {
		t.Errorf("%d mutation errors against a healthy server", l.MutationErrors)
	}
	if l.SolvesOK == 0 {
		t.Fatal("no solve completed")
	}
	if !rep.Feasible {
		t.Error("no feasible solve on a dense trace")
	}
	if rep.WallMS.P50 <= 0 || l.MutationMS.P50 <= 0 {
		t.Errorf("latency percentiles not recorded: solve p50 %v, mutation p50 %v",
			rep.WallMS.P50, l.MutationMS.P50)
	}

	// Server-side complement: /v1/stats must have seen the solves and
	// summarized their latency.
	resp, err := http.Get(hs.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Solves         uint64 `json:"solves"`
		SolveLatencyMS struct {
			P50 float64 `json:"p50"`
		} `json:"solve_latency_ms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Solves == 0 {
		t.Error("server recorded no solves")
	}
	if stats.SolveLatencyMS.P50 <= 0 {
		t.Error("server solve_latency_ms not populated")
	}
}

// TestReplayReArrival is the regression test for a double-close panic:
// a trace that re-arrives the same entity ID (an upsert, legal for every
// other trace consumer) must replay cleanly, with the departure gated on
// the first arrival.
func TestReplayReArrival(t *testing.T) {
	hs := startServer(t)

	sc, _ := ByName("dense")
	tr := sc.Trace(Params{M: 5, N: 10, Seed: 1})
	// Duplicate the first task/worker arrivals as same-ID upserts.
	var extra []Event
	for _, e := range tr.Events {
		if (e.Kind == TaskArrive || e.Kind == WorkerArrive) && len(extra) < 4 {
			extra = append(extra, e)
		}
	}
	tr.Events = append(tr.Events, extra...)
	rep, err := Replay(context.Background(), tr, ReplayConfig{
		BaseURL:        hs.URL,
		HoursPerSecond: 120,
		SolveEvery:     -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Load.MutationsSent != len(tr.Events) {
		t.Fatalf("sent %d of %d mutations", rep.Load.MutationsSent, len(tr.Events))
	}
	if rep.Load.MutationErrors != 0 {
		t.Fatalf("%d mutation errors", rep.Load.MutationErrors)
	}
}

// TestReplayRetry429: against a server that backpressures every first
// attempt, the default (retry-less) replay records rejections, while a
// replay with a retry budget converts them into successes and tallies the
// extra attempts in MutationRetries.
func TestReplayRetry429(t *testing.T) {
	// Each run gets its own fake server that 429s the first attempt on
	// every method+path and succeeds afterwards.
	newFake := func() *httptest.Server {
		var hits sync.Map // method+path -> *atomic.Int64
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			key := r.Method + " " + r.URL.Path
			v, _ := hits.LoadOrStore(key, new(atomic.Int64))
			if v.(*atomic.Int64).Add(1) == 1 {
				http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write([]byte(`{}`))
		}))
	}

	sc, _ := ByName("dense")
	mkTrace := func() *Trace { return sc.Trace(Params{M: 6, N: 12, Seed: 2, Horizon: 1}) }

	fake := newFake()
	rep, err := Replay(context.Background(), mkTrace(), ReplayConfig{
		BaseURL: fake.URL, HoursPerSecond: 240, SolveEvery: -1,
	})
	fake.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Load.MutationsRejected == 0 {
		t.Fatal("control run saw no 429s; the fake server is not backpressuring")
	}
	if rep.Load.MutationRetries != 0 {
		t.Errorf("retry-less replay recorded %d retries", rep.Load.MutationRetries)
	}

	fake = newFake()
	defer fake.Close()
	rep, err = Replay(context.Background(), mkTrace(), ReplayConfig{
		BaseURL: fake.URL, HoursPerSecond: 240, SolveEvery: -1,
		Retry429: 3, RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	l := rep.Load
	if l.MutationsRejected != 0 {
		t.Errorf("%d mutations stayed rejected despite the retry budget", l.MutationsRejected)
	}
	if l.MutationsOK != l.MutationsSent {
		t.Errorf("ok %d != sent %d with retries on", l.MutationsOK, l.MutationsSent)
	}
	if l.MutationRetries == 0 {
		t.Error("retries were taken but not tallied")
	}
	if l.MutationsPerSecond <= 0 {
		t.Errorf("mutations_per_second not recorded: %v", l.MutationsPerSecond)
	}
}

// TestReplayRequiresBaseURL pins the config contract.
func TestReplayRequiresBaseURL(t *testing.T) {
	tr := &Trace{Scenario: "x", Horizon: 1}
	if _, err := Replay(context.Background(), tr, ReplayConfig{}); err == nil {
		t.Fatal("Replay without BaseURL should fail")
	}
}

// TestReplayCancellation: a cancelled context stops dispatch early and
// still returns a consistent report.
func TestReplayCancellation(t *testing.T) {
	hs := startServer(t)

	sc, _ := ByName("churn")
	tr := sc.Trace(Params{M: 20, N: 40, Seed: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	rep, err := Replay(ctx, tr, ReplayConfig{
		BaseURL:        hs.URL,
		HoursPerSecond: 2, // slow enough that the deadline cuts the replay
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Load.MutationsSent >= len(tr.Events) {
		t.Errorf("cancellation did not truncate the replay: %d of %d sent",
			rep.Load.MutationsSent, len(tr.Events))
	}
}
