package rdbsc

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
)

func TestSolveEndToEnd(t *testing.T) {
	in := GenerateDenseWorkload(DefaultWorkload().WithScale(40, 80))
	for _, solver := range []Solver{NewGreedy(), NewSampling(), NewDC(), GTruth()} {
		res, err := Solve(context.Background(), in, WithSolver(solver), WithSeed(42))
		if err != nil {
			t.Fatalf("%s: %v", solver.Name(), err)
		}
		if err := in.CheckAssignment(res.Assignment); err != nil {
			t.Fatalf("%s produced invalid assignment: %v", solver.Name(), err)
		}
		if res.Eval.MinRel < 0 || res.Eval.MinRel > 1 {
			t.Errorf("%s MinRel = %v", solver.Name(), res.Eval.MinRel)
		}
	}
}

func TestSolveDefaultsToDC(t *testing.T) {
	in := GenerateDenseWorkload(DefaultWorkload().WithScale(20, 40))
	res, err := Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Assignment.Len() == 0 {
		t.Error("default solve assigned nothing")
	}
}

func TestSolveWithIndexMatchesWithout(t *testing.T) {
	in := GenerateDenseWorkload(DefaultWorkload().WithScale(30, 60))
	a, err := Solve(context.Background(), in, WithSolver(NewGreedy()), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(context.Background(), in, WithSolver(NewGreedy()), WithSeed(1), WithIndex())
	if err != nil {
		t.Fatal(err)
	}
	// Greedy is deterministic given the same pair set; the index retrieves
	// the same pairs (possibly in different order, but greedy sorts by
	// worker), so the objective values must agree.
	if math.Abs(a.Eval.TotalESTD-b.Eval.TotalESTD) > 1e-9 {
		t.Errorf("index changed result: %v vs %v", a.Eval, b.Eval)
	}
}

func TestSolveRejectsInvalidInstance(t *testing.T) {
	in := GenerateDenseWorkload(DefaultWorkload().WithScale(5, 5))
	in.Beta = 2 // invalid
	if _, err := Solve(context.Background(), in); err == nil {
		t.Error("expected validation error")
	}
}

func TestReliabilityFacade(t *testing.T) {
	if got := Reliability([]float64{0.5, 0.5}); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("Reliability = %v, want 0.75", got)
	}
}

func TestDiversityFacade(t *testing.T) {
	angles := []float64{0, math.Pi}
	arrivals := []float64{0.5, 0.5}
	probs := []float64{1, 1}
	estd := ExpectedSTD(1, angles, arrivals, probs, 0, 1)
	if math.Abs(estd-math.Ln2) > 1e-12 {
		t.Errorf("ExpectedSTD = %v, want ln2", estd)
	}
	std := STD(1, angles, arrivals, 0, 1)
	if math.Abs(std-math.Ln2) > 1e-12 {
		t.Errorf("STD = %v, want ln2", std)
	}
}

func TestGridFacade(t *testing.T) {
	in := GenerateDenseWorkload(DefaultWorkload().WithScale(20, 40))
	g := NewGrid(GridConfig{}, in)
	tasks, workers := g.Len()
	if tasks != 20 || workers != 40 {
		t.Errorf("grid holds (%d,%d), want (20,40)", tasks, workers)
	}
}

func TestPlatformFacade(t *testing.T) {
	m := SimulatePlatform(PlatformConfig{Horizon: 0.2, Seed: 3})
	if m.Rounds == 0 {
		t.Error("platform simulation executed no rounds")
	}
}

func TestGenerateRealWorkloadFacade(t *testing.T) {
	in := GenerateRealWorkload(RealWorkloadConfig{
		POI:        POIConfig{NumPOIs: 100, Seed: 1},
		Trajectory: TrajectoryConfig{NumTaxis: 50, Seed: 2},
		Tasks:      50,
		Synthetic:  DefaultWorkload(),
	})
	if len(in.Tasks) != 50 || len(in.Workers) != 50 {
		t.Errorf("real workload sizes: %d tasks, %d workers", len(in.Tasks), len(in.Workers))
	}
}

func TestSectorAndPt(t *testing.T) {
	s := Sector(0, math.Pi/2)
	if !s.Contains(math.Pi/5) || s.Contains(math.Pi) {
		t.Errorf("Sector misbehaves: %+v", s)
	}
	if p := Pt(0.1, 0.2); p.X != 0.1 || p.Y != 0.2 {
		t.Errorf("Pt = %v", p)
	}
}

func TestExhaustiveFacade(t *testing.T) {
	in := GenerateDenseWorkload(DefaultWorkload().WithScale(3, 5))
	p := NewProblem(in)
	ex := NewExhaustive()
	if !ex.CanSolve(p) {
		t.Skip("population too large for this seed")
	}
	res, err := ex.Solve(context.Background(), p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.CheckAssignment(res.Assignment); err != nil {
		t.Fatal(err)
	}
}

func TestSolveReturnsErrInfeasible(t *testing.T) {
	// One task, one worker that cannot reach it: too slow, window too short.
	in := &Instance{
		Tasks: []Task{{ID: 0, Loc: Pt(0.9, 0.9), Start: 0, End: 0.01}},
		Workers: []Worker{{
			ID: 0, Loc: Pt(0.1, 0.1), Speed: 0.01, Dir: FullCircle, Confidence: 0.9,
		}},
		Beta: 0.5,
	}
	res, err := Solve(context.Background(), in)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	if res == nil || res.Assignment.Len() != 0 {
		t.Fatalf("infeasible solve should return the evaluated empty result, got %v", res)
	}
}

func TestSolveWithSolverName(t *testing.T) {
	in := GenerateDenseWorkload(DefaultWorkload().WithScale(20, 40))
	res, err := Solve(context.Background(), in, WithSolverName("d&c"), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Assignment.Len() == 0 {
		t.Error("named solver assigned nothing")
	}
	if _, err := Solve(context.Background(), in, WithSolverName("no-such-algo")); err == nil {
		t.Error("expected an error for an unknown solver name")
	}
}

func TestSolversRegistryFacade(t *testing.T) {
	// One canonical name per paper algorithm; composites are reached by
	// the "sharded-" prefix, not registered.
	if got, want := strings.Join(Solvers(), ","), "dc,exhaustive,greedy,gtruth,sampling"; got != want {
		t.Errorf("Solvers() = %s, want %s", got, want)
	}
	for _, n := range []string{"greedy", "SAMPLING", "D&C", "g-truth", "sharded-dc", "Sharded-Exact"} {
		if _, err := NewSolverByName(n); err != nil {
			t.Errorf("NewSolverByName(%q): %v", n, err)
		}
	}
}

func TestSolveHonorsDeadline(t *testing.T) {
	in := GenerateDenseWorkload(DefaultWorkload().WithScale(60, 120))
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the solve must return immediately
	res, err := Solve(ctx, in, WithSolverName("greedy"))
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if res == nil {
		t.Fatal("interrupted solve must return a partial result")
	}
}

func TestSolveProgressCallback(t *testing.T) {
	in := GenerateDenseWorkload(DefaultWorkload().WithScale(20, 40))
	var stages []Stage
	_, err := Solve(context.Background(), in,
		WithSolverName("greedy"),
		WithProgress(func(st Stage) { stages = append(stages, st) }))
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) == 0 {
		t.Fatal("no progress stages emitted")
	}
	for i, st := range stages {
		if st.Round != i+1 {
			t.Fatalf("stage %d has Round %d", i, st.Round)
		}
		if st.Solver != "GREEDY" {
			t.Fatalf("stage solver = %q", st.Solver)
		}
	}
}

func TestEngineFacadeIncrementalResolve(t *testing.T) {
	in := GenerateDenseWorkload(DefaultWorkload().WithScale(20, 40))
	eng := NewEngineFromInstance(in, EngineConfig{})
	res1, err := eng.Solve(context.Background(), &SolveOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res1.Assignment.Len() == 0 {
		t.Fatal("engine solve assigned nothing")
	}

	// Churn: drop half the workers, re-solve incrementally.
	for i := 0; i < len(in.Workers)/2; i++ {
		eng.RemoveWorker(in.Workers[i].ID)
	}
	res2, err := eng.Solve(context.Background(), &SolveOptions{Seed: 5})
	if err != nil && !errors.Is(err, ErrInfeasible) {
		t.Fatal(err)
	}
	if res2.Assignment.Len() > res1.Assignment.Len() {
		t.Errorf("fewer workers produced more assignments: %d > %d",
			res2.Assignment.Len(), res1.Assignment.Len())
	}
	inst := eng.Instance()
	if err := inst.CheckAssignment(res2.Assignment); err != nil {
		t.Fatal(err)
	}
}
