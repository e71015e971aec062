package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"rdbsc/internal/serve"
)

// TestClusterAdaptiveTier drives the adaptive solve path over the cluster
// backend: within-budget unnamed solves route through the lane dispatcher,
// one dispatch per component of the assembled problem, unwrapped (lanes in
// the response, controller block in /v1/stats).
func TestClusterAdaptiveTier(t *testing.T) {
	cl, err := New(Config{Shards: 3, Beta: 0.5, BetaSet: true, SolverName: "greedy"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, cl)
	ts := serveHTTP(t, cl, serve.Config{Adaptive: true, SLOp99: 5 * time.Second})

	post := func(path string, body any) (*http.Response, error) {
		b, _ := json.Marshal(body)
		return http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
	}
	var tasks, workers []map[string]any
	for i := 0; i < 10; i++ {
		f := float64(i) / 9
		tasks = append(tasks, map[string]any{"id": i, "x": 0.05 + 0.9*f, "y": 0.5, "start": 0, "end": 6})
		workers = append(workers, map[string]any{
			"id": i, "x": 0.05 + 0.9*f, "y": 0.45, "speed": 1.0, "confidence": 0.8, "depart": 0,
		})
	}
	for path, body := range map[string]any{"/v1/tasks": tasks, "/v1/workers": workers} {
		resp, err := post(path, body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: %v %v", path, err, resp.Status)
		}
		resp.Body.Close()
	}

	resp, err := post("/v1/solve", map[string]any{"seed": 3})
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("adaptive cluster solve: %s", resp.Status)
	}
	var solve serve.SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&solve); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if solve.Solver != "ADAPTIVE" {
		t.Errorf("solver = %q, want ADAPTIVE", solve.Solver)
	}
	if !solve.Feasible || solve.AssignedWorkers == 0 {
		t.Fatalf("adaptive solve infeasible: %+v", solve)
	}
	total := 0
	for _, n := range solve.Lanes {
		total += n
	}
	if total != solve.Stats.Components {
		t.Errorf("lane counts %v sum to %d, want one dispatch per component (%d)",
			solve.Lanes, total, solve.Stats.Components)
	}
	if solve.Degraded {
		t.Errorf("within-budget solve marked degraded")
	}

	// Stats carry the controller block.
	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Adaptive *struct {
			BudgetMS float64 `json:"budget_ms"`
		} `json:"adaptive"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if stats.Adaptive == nil || stats.Adaptive.BudgetMS != 5000 {
		t.Errorf("stats adaptive block = %+v, want budget_ms 5000", stats.Adaptive)
	}
}
