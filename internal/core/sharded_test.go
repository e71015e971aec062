package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"rdbsc/internal/decompose"
	"rdbsc/internal/gen"
	"rdbsc/internal/geo"
	"rdbsc/internal/model"
	"rdbsc/internal/objective"
	"rdbsc/internal/rng"
)

// baseSolverNames returns the inner solvers the sharded wrapper must
// match: every built-in registry name plus "greedy-naive", the naive greedy
// loop the incremental greedy is tested against, which newInner
// constructs directly. The list is static rather than scraped from the
// registry so that solvers registered ad hoc by other tests (registration
// is global) cannot make the suite order-dependent;
// TestShardedRegistryComposites cross-checks it against the registry.
func baseSolverNames() []string {
	return []string{"greedy", "greedy-naive", "sampling", "dc", "gtruth", "exhaustive"}
}

func mustNewByName(t *testing.T, name string) Solver {
	t.Helper()
	s, err := NewByName(name)
	if err != nil {
		t.Fatalf("NewByName(%q): %v", name, err)
	}
	return s
}

// newInner builds one of baseSolverNames' solvers.
func newInner(t *testing.T, name string) Solver {
	t.Helper()
	if name == "greedy-naive" {
		return &Greedy{Prune: true}
	}
	return mustNewByName(t, name)
}

// islandsInstance draws the standard multi-island differential topology:
// small islands keep every solver fast and the exhaustive population under
// its cap. The returned problem is asserted to decompose into more than
// one component.
func islandsInstance(t *testing.T, seed int64, islands, m, n int) *Problem {
	t.Helper()
	in := gen.GenerateIslands(gen.Default().WithScale(m, n).WithSeed(seed), islands)
	p := NewProblem(in)
	part := decompose.Build(p.Pairs)
	if part.Len() <= 1 {
		t.Fatalf("islands instance (seed %d) did not decompose: %d component(s)", seed, part.Len())
	}
	return p
}

// TestShardedRegistryComposites checks that "sharded-<name>" resolves, for
// every registered name and alias, to a Sharded wrapper around that
// solver, one level deep only.
func TestShardedRegistryComposites(t *testing.T) {
	registered := make(map[string]bool)
	for _, name := range Names() {
		registered[name] = true
	}
	for _, name := range baseSolverNames() {
		if name != "greedy-naive" && !registered[name] {
			t.Fatalf("base solver %q not registered", name)
		}
	}
	for _, name := range []string{"greedy", "sampling", "dc", "gtruth", "exhaustive", "D&C", "exact"} {
		s := mustNewByName(t, "sharded-"+name)
		sh, ok := s.(*Sharded)
		if !ok {
			t.Fatalf("sharded-%s resolved to %T, want *Sharded", name, s)
		}
		inner := mustNewByName(t, name)
		if _, nested := inner.(*Sharded); nested {
			t.Fatalf("%s resolved to a *Sharded", name)
		}
		if sh.Inner.Name() != inner.Name() {
			t.Errorf("sharded-%s wraps %q, want %q", name, sh.Inner.Name(), inner.Name())
		}
		if want := "SHARDED(" + inner.Name() + ")"; s.Name() != want {
			t.Errorf("sharded-%s Name() = %q, want %q", name, s.Name(), want)
		}
	}
	for _, name := range []string{"sharded-sharded-dc", "sharded-", "sharded-no-such-solver"} {
		if _, err := NewByName(name); err == nil {
			t.Errorf("NewByName(%q) resolved, want an unknown-solver error", name)
		}
	}
	for name := range registered {
		if strings.HasPrefix(name, "sharded") {
			t.Errorf("composite %q is registered; the sharded- prefix is resolved, not registered", name)
		}
	}
}

// TestShardedSingleComponentBitIdentical is the single-giant-component half
// of the differential suite: on a problem that is one connected component,
// the sharded wrapper passes the problem and options through verbatim, so
// for EVERY registered solver the assignment, the objective values, and the
// randomness consumption are bit-identical to the monolithic solve.
func TestShardedSingleComponentBitIdentical(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		in := randomInstance(rng.New(seed), 3, 8)
		p := NewProblem(in)
		if part := decompose.Build(p.Pairs); part.Len() != 1 {
			t.Fatalf("seed %d: want a single component, got %d", seed, part.Len())
		}
		for _, name := range baseSolverNames() {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				want := mustSolve(t, newInner(t, name), p, rng.New(seed))
				got := mustSolve(t, NewSharded(newInner(t, name)), p, rng.New(seed))
				if gk, wk := assignmentKey(got.Assignment), assignmentKey(want.Assignment); gk != wk {
					t.Errorf("assignment diverged:\n got %s\nwant %s", gk, wk)
				}
				if got.Eval != want.Eval {
					t.Errorf("objective diverged: got %+v want %+v", got.Eval, want.Eval)
				}
				if got.Stats.Components != 1 {
					t.Errorf("Stats.Components = %d, want 1", got.Stats.Components)
				}
			})
		}
	}
}

// TestShardedMultiIslandMatchesPerComponentMonolithic is the multi-island
// half of the differential suite: the sharded solve must be exactly the
// merge of monolithic solves of the extracted component subproblems — same
// per-component seed derivation, same merge order — for every registered
// solver. This pins the whole wrapper pipeline (partitioning, subproblem
// extraction, seed derivation, concurrent execution, merging) against a
// sequential reference reconstruction.
func TestShardedMultiIslandMatchesPerComponentMonolithic(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		p := islandsInstance(t, seed, 4, 2, 4)
		part := decompose.Build(p.Pairs)
		for _, name := range baseSolverNames() {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				got := mustSolve(t, NewSharded(newInner(t, name)), p, rng.New(seed))

				// Reference: solve each component monolithically with the
				// same derived seeds, merge by hand.
				src := rng.New(seed)
				merged := model.NewAssignment()
				for i := range part.Components {
					compSeed := src.Int63()
					sub := ComponentProblem(p, &part.Components[i])
					res, err := newInner(t, name).Solve(context.Background(), sub,
						&SolveOptions{Source: rng.New(compSeed)})
					if err != nil {
						t.Fatalf("component %d: %v", i, err)
					}
					res.Assignment.Workers(func(w model.WorkerID, tid model.TaskID) {
						merged.Assign(w, tid)
					})
				}
				want := p.Evaluate(merged)
				if gk, wk := assignmentKey(got.Assignment), assignmentKey(merged); gk != wk {
					t.Errorf("assignment diverged:\n got %s\nwant %s", gk, wk)
				}
				if got.Eval != want {
					t.Errorf("objective diverged: got %+v want %+v", got.Eval, want)
				}
				if got.Stats.Components != part.Len() {
					t.Errorf("Stats.Components = %d, want %d", got.Stats.Components, part.Len())
				}
				if got.Stats.MaxComponentPairs != part.MaxPairs() {
					t.Errorf("Stats.MaxComponentPairs = %d, want %d", got.Stats.MaxComponentPairs, part.MaxPairs())
				}
			})
		}
	}
}

// TestShardedParallelMatchesSequential pins scheduling independence: a
// fully parallel sharded run must be bit-identical to the sequential
// (Workers: 1) run for every solver, on the multi-island topology. Run
// under -race in CI, this also exercises the pool for data races.
func TestShardedParallelMatchesSequential(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		p := islandsInstance(t, seed, 6, 4, 8)
		for _, name := range baseSolverNames() {
			if name == "exhaustive" {
				continue // population too large at this island size
			}
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				seq := mustSolve(t, &Sharded{Inner: newInner(t, name), Workers: 1}, p, rng.New(seed))
				par := mustSolve(t, &Sharded{Inner: newInner(t, name), Workers: 8}, p, rng.New(seed))
				if sk, pk := assignmentKey(seq.Assignment), assignmentKey(par.Assignment); sk != pk {
					t.Errorf("assignment diverged:\n seq %s\n par %s", sk, pk)
				}
				if seq.Eval != par.Eval {
					t.Errorf("objective diverged: seq %+v par %+v", seq.Eval, par.Eval)
				}
			})
		}
	}
}

// TestShardedSeededStates runs the differential with committed seed states:
// a third of the workers are committed via a preliminary solve, the rest
// are re-solved sharded vs per-component monolithic. Greedy honors the
// seeds (committed workers excluded, Δ-objectives shaped); the others
// ignore them — in both cases the sharded run must match the reference.
func TestShardedSeededStates(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		p := islandsInstance(t, seed, 4, 3, 6)
		part := decompose.Build(p.Pairs)

		full := mustSolve(t, NewGreedy(), p, rng.New(seed))
		committed := model.NewAssignment()
		i := 0
		full.Assignment.Workers(func(w model.WorkerID, tid model.TaskID) {
			if i%3 == 0 {
				committed.Assign(w, tid)
			}
			i++
		})
		if committed.Len() == 0 {
			t.Fatalf("seed %d: nothing committed", seed)
		}
		seedStates := p.NewStates(committed)

		for _, name := range []string{"greedy", "greedy-naive", "sampling", "dc"} {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				sharded := NewSharded(newInner(t, name))
				got, err := sharded.Solve(context.Background(), p,
					&SolveOptions{Source: rng.New(seed), SeedStates: seedStates})
				if err != nil {
					t.Fatalf("sharded: %v", err)
				}
				src := rng.New(seed)
				merged := model.NewAssignment()
				for ci := range part.Components {
					compSeed := src.Int63()
					sub := ComponentProblem(p, &part.Components[ci])
					res, err := newInner(t, name).Solve(context.Background(), sub,
						&SolveOptions{
							Source:     rng.New(compSeed),
							SeedStates: ComponentSeedStates(seedStates, &part.Components[ci]),
						})
					if err != nil {
						t.Fatalf("component %d: %v", ci, err)
					}
					res.Assignment.Workers(func(w model.WorkerID, tid model.TaskID) {
						merged.Assign(w, tid)
					})
				}
				if gk, wk := assignmentKey(got.Assignment), assignmentKey(merged); gk != wk {
					t.Errorf("assignment diverged:\n got %s\nwant %s", gk, wk)
				}
				if want := p.Evaluate(merged); got.Eval != want {
					t.Errorf("objective diverged: got %+v want %+v", got.Eval, want)
				}
			})
		}
	}
}

// TestShardedCancelledBeforeSolve: a context cancelled before the solve
// starts yields an empty (but evaluated, non-nil) result and
// ErrInterrupted from every solver, sharded or not.
func TestShardedCancelledBeforeSolve(t *testing.T) {
	p := islandsInstance(t, 1, 4, 2, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range baseSolverNames() {
		t.Run(name, func(t *testing.T) {
			res, err := NewSharded(newInner(t, name)).Solve(ctx, p, &SolveOptions{Source: rng.New(1)})
			if !errors.Is(err, ErrInterrupted) {
				t.Fatalf("err = %v, want ErrInterrupted", err)
			}
			if res == nil {
				t.Fatal("nil result on interruption")
			}
			if got, want := res.Eval, p.Evaluate(res.Assignment); got != want {
				t.Errorf("partial eval inconsistent: got %+v want %+v", got, want)
			}
		})
	}
}

// TestShardedMidSolveCancellation cancels from inside a progress callback:
// the merged partial must be a valid assignment whose evaluation is
// consistent, returned together with ErrInterrupted, and the components
// completed before the cancellation survive into the merge.
func TestShardedMidSolveCancellation(t *testing.T) {
	p := islandsInstance(t, 2, 6, 4, 8)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stages atomic.Int64
	sharded := &Sharded{Inner: NewGreedy(), Workers: 2}
	res, err := sharded.Solve(ctx, p, &SolveOptions{
		Source: rng.New(2),
		Progress: func(st Stage) {
			if stages.Add(1) == 3 {
				cancel()
			}
		},
	})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if res == nil {
		t.Fatal("nil result on interruption")
	}
	if err := p.In.CheckAssignment(res.Assignment); err != nil {
		t.Fatalf("partial assignment invalid: %v", err)
	}
	if got, want := res.Eval, p.Evaluate(res.Assignment); got != want {
		t.Errorf("partial eval inconsistent: got %+v want %+v", got, want)
	}
}

// TestShardedTerminalErrorPropagates: a component whose population exceeds
// the exhaustive cap is a terminal error; the sharded solve must surface it
// (not swallow it into a partial merge with nil error).
func TestShardedTerminalErrorPropagates(t *testing.T) {
	p := islandsInstance(t, 1, 4, 3, 6)
	sharded := NewSharded(&Exhaustive{MaxAssignments: 1})
	_, err := sharded.Solve(context.Background(), p, &SolveOptions{Source: rng.New(1)})
	if !errors.Is(err, ErrPopulationTooLarge) {
		t.Fatalf("err = %v, want ErrPopulationTooLarge", err)
	}
}

// TestShardedForeignSeededCommitments: a committed worker whose seeded
// task fell out of every component (its window shrank to nothing) or whose
// seeded task lives in another component must stay excluded from
// assignment in the sharded solve, exactly as in a monolithic one — a
// travelling worker must never be double-booked just because its
// commitment's task lost its pairs.
func TestShardedForeignSeededCommitments(t *testing.T) {
	base := islandsInstance(t, 1, 4, 3, 6)
	part := decompose.Build(base.Pairs)

	// An orphan task nothing can reach: a sub-nanosecond window in an
	// empty corner of the data space.
	orphan := model.Task{ID: 9000, Loc: geo.Pt(0.9999, 0.9999), Start: 0, End: 1e-9}
	in := &model.Instance{
		Tasks:   append(append([]model.Task(nil), base.In.Tasks...), orphan),
		Workers: base.In.Workers,
		Beta:    base.In.Beta,
		Opt:     base.In.Opt,
	}
	p := NewProblem(in)
	if _, ok := decompose.Build(p.Pairs).ComponentOfTask(orphan.ID); ok {
		t.Fatal("orphan task unexpectedly reachable")
	}

	// Commit one worker from the first component to the orphan task, and a
	// worker from the second component to a task of the FIRST component
	// (simulating a stale commitment whose pair is no longer valid).
	wOrphan := part.Components[0].Workers[0]
	wForeign := part.Components[1].Workers[0]
	crossTask := *p.Task(part.Components[0].Tasks[0])

	stOrphan := objective.NewTaskState(orphan, in.Beta)
	stOrphan.Add(wOrphan, 0.9, orphan.Start, 0)
	stCross := objective.NewTaskState(crossTask, in.Beta)
	stCross.Add(wForeign, 0.9, crossTask.Start, 0)
	seeds := map[model.TaskID]*objective.TaskState{
		orphan.ID:    stOrphan,
		crossTask.ID: stCross,
	}

	for _, name := range []string{"greedy", "greedy-naive"} {
		t.Run(name, func(t *testing.T) {
			res, err := NewSharded(newInner(t, name)).Solve(context.Background(), p,
				&SolveOptions{Source: rng.New(1), SeedStates: seeds})
			if err != nil {
				t.Fatalf("sharded: %v", err)
			}
			if res.Assignment.Assigned(wOrphan) {
				t.Errorf("worker %d committed to the orphan task was re-assigned", wOrphan)
			}
			if res.Assignment.Assigned(wForeign) {
				t.Errorf("worker %d committed across components was re-assigned", wForeign)
			}
			mono, err := newInner(t, name).Solve(context.Background(), p,
				&SolveOptions{Source: rng.New(1), SeedStates: seeds})
			if err != nil {
				t.Fatalf("monolithic: %v", err)
			}
			if mono.Assignment.Assigned(wOrphan) || mono.Assignment.Assigned(wForeign) {
				t.Fatalf("monolithic reference re-assigned a committed worker")
			}
			if err := in.CheckAssignment(res.Assignment); err != nil {
				t.Fatalf("invalid sharded assignment: %v", err)
			}
		})
	}
}
