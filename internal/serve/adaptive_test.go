package serve

import (
	"fmt"
	"testing"
	"time"
)

// populate seeds a server with a small reachable population so solves have
// valid pairs to assign.
func populate(t *testing.T, base string, tasks, workers int) {
	t.Helper()
	for i := 0; i < tasks; i++ {
		if code, out := doJSON(t, "POST", base+"/v1/tasks", testTask(100+i)); code != 200 {
			t.Fatalf("seeding task: %d %v", code, out)
		}
	}
	for i := 0; i < workers; i++ {
		if code, out := doJSON(t, "POST", base+"/v1/workers", testWorker(100+i)); code != 200 {
			t.Fatalf("seeding worker: %d %v", code, out)
		}
	}
}

func TestAdaptiveSolveWithinBudget(t *testing.T) {
	_, _, ts := newTestServer(t, EngineConfig{}, Config{SolverName: "greedy", Adaptive: true, SLOp99: 5 * time.Second})
	populate(t, ts.URL, 3, 4)

	code, out := doJSON(t, "POST", ts.URL+"/v1/solve", `{"seed":7}`)
	if code != 200 {
		t.Fatalf("adaptive solve: %d %v", code, out)
	}
	if got := out["solver"]; got != "SHARDED(ADAPTIVE)" {
		t.Errorf("solver = %v, want SHARDED(ADAPTIVE)", got)
	}
	if out["degraded"] != nil {
		t.Errorf("within-budget solve marked degraded: %v", out)
	}
	lanes, ok := out["lanes"].(map[string]any)
	if !ok || len(lanes) == 0 {
		t.Errorf("adaptive solve carried no lane breakdown: %v", out["lanes"])
	}
	if out["feasible"] != true {
		t.Errorf("adaptive solve infeasible on a reachable population: %v", out)
	}

	// The stats surface exposes the controller block.
	code, stats := doJSON(t, "GET", ts.URL+"/v1/stats", "")
	if code != 200 {
		t.Fatalf("stats: %d", code)
	}
	ad, ok := stats["adaptive"].(map[string]any)
	if !ok {
		t.Fatalf("stats has no adaptive block: %v", stats["adaptive"])
	}
	if ad["budget_ms"] != 5000.0 {
		t.Errorf("adaptive.budget_ms = %v, want 5000", ad["budget_ms"])
	}
}

// TestAdaptiveExplicitSolverBypass: a request that names a solver gets the
// fixed-solver path even on an adaptive server — same answer, field for
// field, as a server with the tier off.
func TestAdaptiveExplicitSolverBypass(t *testing.T) {
	_, _, adaptiveTS := newTestServer(t, EngineConfig{}, Config{SolverName: "greedy", Adaptive: true, SLOp99: 5 * time.Second})
	_, _, plainTS := newTestServer(t, EngineConfig{}, Config{SolverName: "greedy"})

	for _, base := range []string{adaptiveTS.URL, plainTS.URL} {
		populate(t, base, 4, 6)
	}

	body := `{"solver":"greedy","seed":42}`
	codeA, outA := doJSON(t, "POST", adaptiveTS.URL+"/v1/solve", body)
	codeP, outP := doJSON(t, "POST", plainTS.URL+"/v1/solve", body)
	if codeA != 200 || codeP != 200 {
		t.Fatalf("solves: %d vs %d", codeA, codeP)
	}
	if outA["lanes"] != nil || outA["degraded"] != nil {
		t.Errorf("explicit-solver request carried adaptive fields: %v", outA)
	}
	// Everything but the wall-clock fields must match exactly.
	for _, k := range []string{"solver", "seed", "version", "feasible", "assigned_workers",
		"assigned_tasks", "min_reliability", "total_diversity"} {
		if fmt.Sprint(outA[k]) != fmt.Sprint(outP[k]) {
			t.Errorf("field %q differs: adaptive %v vs plain %v", k, outA[k], outP[k])
		}
	}
	if fmt.Sprint(outA["assignment"]) != fmt.Sprint(outP["assignment"]) {
		t.Errorf("assignments differ:\nadaptive: %v\nplain:    %v", outA["assignment"], outP["assignment"])
	}

	// With the tier off, /v1/stats has no adaptive block at all.
	_, stats := doJSON(t, "GET", plainTS.URL+"/v1/stats", "")
	if _, present := stats["adaptive"]; present {
		t.Errorf("non-adaptive server exposes an adaptive stats block")
	}
}

// TestAdaptiveOverBudgetRecovers: when the learned cost of the lane an
// instance plans with puts even the minimum-effort plan over budget, one
// request at a time must still solve. Its observed latency is what brings
// the cost back down; a server that only served stale answers or shed
// would never observe a solve again and stay over budget for good.
func TestAdaptiveOverBudgetRecovers(t *testing.T) {
	s, b, ts := newTestServer(t, EngineConfig{}, Config{SolverName: "greedy", Adaptive: true, SLOp99: 50 * time.Millisecond})
	populate(t, ts.URL, 3, 4)
	shape := b.View().Shape()
	for i := 0; !s.adapt.PlanRequest(shape).OverBudget; i++ {
		if i == 100 {
			t.Fatal("could not inflate the learned cost over budget")
		}
		for _, comp := range shape.Components {
			s.adapt.Observe(s.adapt.Plan(comp.Pairs, comp.LnPopulation), comp.Pairs, 10*time.Second)
		}
	}

	const maxRequests = 50
	fresh := 0
	for i := 1; i <= maxRequests && fresh == 0; i++ {
		code, out := doJSON(t, "POST", ts.URL+"/v1/solve", fmt.Sprintf(`{"seed":%d}`, i))
		if code == 200 && out["degraded"] == nil {
			fresh = i
		}
	}
	if fresh == 0 {
		t.Fatalf("no fresh solve in %d sequential over-budget requests", maxRequests)
	}
	for i := fresh + 1; i <= maxRequests && s.adapt.PlanRequest(shape).OverBudget; i++ {
		doJSON(t, "POST", ts.URL+"/v1/solve", fmt.Sprintf(`{"seed":%d}`, i))
	}
	if s.adapt.PlanRequest(shape).OverBudget {
		t.Errorf("still over budget after %d sequential requests: %+v", maxRequests, s.adapt.StatsSnapshot())
	}
}
