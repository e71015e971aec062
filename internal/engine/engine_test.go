package engine

import (
	"context"
	"errors"
	"testing"

	"rdbsc/internal/core"
	"rdbsc/internal/gen"
	"rdbsc/internal/geo"
	"rdbsc/internal/model"
	"rdbsc/internal/objective"
)

func testInstance(m, n int) *model.Instance {
	return gen.GenerateDense(gen.Default().WithScale(m, n).WithSeed(5))
}

func TestEngineSolveMatchesDirectSolve(t *testing.T) {
	in := testInstance(20, 40)
	eng := NewFromInstance(in, Config{Solver: core.NewGreedy()})
	got, err := eng.Solve(context.Background(), &core.SolveOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.NewGreedy().Solve(context.Background(), core.NewProblem(in), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Eval.MinRel != want.Eval.MinRel || got.Eval.TotalESTD != want.Eval.TotalESTD {
		t.Errorf("engine solve diverged from direct solve: %v vs %v", got.Eval, want.Eval)
	}
}

func TestEngineProblemCachedBetweenSolves(t *testing.T) {
	eng := NewFromInstance(testInstance(10, 20), Config{})
	p1 := eng.Problem()
	p2 := eng.Problem()
	if p1 != p2 {
		t.Error("unchanged engine rebuilt the problem")
	}
	eng.UpsertWorker(model.Worker{
		ID: 10_000, Loc: geo.Pt(0.5, 0.5), Speed: 1,
		Dir: geo.FullCircle, Confidence: 0.9,
	})
	if eng.Problem() == p1 {
		t.Error("mutation did not invalidate the cached problem")
	}
}

func TestEngineChurnKeepsIndexConsistent(t *testing.T) {
	in := testInstance(15, 30)
	eng := NewFromInstance(in, Config{})

	// Remove a third of each population, move one worker, add one task.
	for i := 0; i < len(in.Tasks)/3; i++ {
		if !eng.RemoveTask(in.Tasks[i].ID) {
			t.Fatalf("task %d missing", in.Tasks[i].ID)
		}
	}
	for i := 0; i < len(in.Workers)/3; i++ {
		if !eng.RemoveWorker(in.Workers[i].ID) {
			t.Fatalf("worker %d missing", in.Workers[i].ID)
		}
	}
	moved := in.Workers[len(in.Workers)-1]
	moved.Loc = geo.Pt(0.1, 0.9)
	eng.UpsertWorker(moved)
	eng.UpsertTask(model.Task{ID: 10_000, Loc: geo.Pt(0.9, 0.1), Start: 0, End: 5})

	// The indexed pair set must equal the brute-force scan of the snapshot.
	p := eng.Problem()
	want := eng.Instance().ValidPairs()
	if len(p.Pairs) != len(want) {
		t.Fatalf("index retrieved %d pairs, scan found %d", len(p.Pairs), len(want))
	}

	// And a solve over the churned engine produces a valid assignment.
	res, err := eng.Solve(context.Background(), nil)
	if err != nil && !errors.Is(err, core.ErrInfeasible) {
		t.Fatal(err)
	}
	if err := eng.Instance().CheckAssignment(res.Assignment); err != nil {
		t.Fatal(err)
	}
}

func TestEngineInfeasible(t *testing.T) {
	eng := New(Config{})
	eng.UpsertTask(model.Task{ID: 0, Loc: geo.Pt(0.9, 0.9), Start: 0, End: 0.01})
	eng.UpsertWorker(model.Worker{
		ID: 0, Loc: geo.Pt(0.1, 0.1), Speed: 0.001,
		Dir: geo.FullCircle, Confidence: 0.9,
	})
	res, err := eng.Solve(context.Background(), nil)
	if !errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	if res == nil || res.Assignment.Len() != 0 {
		t.Fatalf("infeasible solve should carry the evaluated empty result, got %v", res)
	}
}

func TestEngineRemoveMissingIsNoop(t *testing.T) {
	eng := New(Config{})
	if eng.RemoveTask(42) || eng.RemoveWorker(42) {
		t.Error("removing absent entries reported success")
	}
	tasks, workers := eng.Len()
	if tasks != 0 || workers != 0 {
		t.Errorf("empty engine has %d tasks, %d workers", tasks, workers)
	}
}

func TestEngineSolveWithOverride(t *testing.T) {
	in := testInstance(10, 20)
	eng := NewFromInstance(in, Config{Solver: core.NewGreedy()})
	res, err := eng.SolveWith(context.Background(), core.NewSampling(), &core.SolveOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Assignment.Len() == 0 {
		t.Error("override solver assigned nothing")
	}
	if eng.Solver().Name() != "GREEDY" {
		t.Error("one-off override replaced the configured solver")
	}
}

func TestEngineInterruptedSolvePropagates(t *testing.T) {
	eng := NewFromInstance(testInstance(30, 60), Config{Solver: core.NewGreedy()})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := eng.Solve(ctx, nil)
	if !errors.Is(err, core.ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if res == nil {
		t.Fatal("interrupted engine solve must return a partial result")
	}
}

// TestEngineEmptyWithSeedsIsNotInfeasible pins the seeded-round contract:
// when SeedStates already commit every worker, an empty *new* assignment is
// a correct answer, not infeasibility.
func TestEngineEmptyWithSeedsIsNotInfeasible(t *testing.T) {
	eng := New(Config{Solver: core.NewGreedy(), Opt: model.Options{WaitAllowed: true}})
	task := model.Task{ID: 0, Loc: geo.Pt(0.5, 0.5), Start: 0, End: 1}
	worker := model.Worker{
		ID: 0, Loc: geo.Pt(0.4, 0.4), Speed: 1,
		Dir: geo.FullCircle, Confidence: 0.9,
	}
	eng.UpsertTask(task)
	eng.UpsertWorker(worker)

	// First round: the worker is dispatched.
	first, err := eng.Solve(context.Background(), nil)
	if err != nil || first.Assignment.Len() != 1 {
		t.Fatalf("first round: res=%v err=%v", first, err)
	}

	// Second round: the same worker arrives committed via SeedStates, so
	// the only correct new assignment is the empty one.
	seed := eng.Problem().NewStates(first.Assignment)
	res, err := eng.Solve(context.Background(), &core.SolveOptions{SeedStates: seed})
	if err != nil {
		t.Fatalf("seeded round with all workers committed must not error, got %v", err)
	}
	if res.Assignment.Len() != 0 {
		t.Fatalf("seeded round reassigned committed workers: %v", res.Assignment)
	}

	// Seeds with no committed workers must still report infeasibility.
	empty := map[model.TaskID]*objective.TaskState{}
	if _, err := eng.Solve(context.Background(), &core.SolveOptions{SeedStates: empty}); err != nil {
		t.Fatalf("solvable round with empty seeds errored: %v", err)
	}
}

// TestEngineSolverNameResolvesThroughRegistry covers the Config.SolverName
// knob and its panic-on-typo contract.
func TestEngineSolverNameResolvesThroughRegistry(t *testing.T) {
	eng := New(Config{SolverName: "sharded-greedy"})
	if got := eng.Solver().Name(); got != "SHARDED(GREEDY)" {
		t.Errorf("SolverName resolved to %q, want SHARDED(GREEDY)", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown SolverName did not panic")
		}
	}()
	New(Config{SolverName: "no-such-solver"})
}
