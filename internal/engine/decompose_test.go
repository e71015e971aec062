package engine

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"
	"testing"

	"rdbsc/internal/core"
	"rdbsc/internal/gen"
	"rdbsc/internal/geo"
	"rdbsc/internal/model"
	"rdbsc/internal/rng"
)

// countingSolver counts Solve invocations — the probe for "only dirty
// components are re-solved".
type countingSolver struct {
	inner core.Solver
	calls atomic.Int64 // components solve concurrently
}

func (c *countingSolver) Name() string { return c.inner.Name() }

func (c *countingSolver) Solve(ctx context.Context, p *core.Problem, opts *core.SolveOptions) (*core.Result, error) {
	c.calls.Add(1)
	return c.inner.Solve(ctx, p, opts)
}

func engineAssignmentKey(a *model.Assignment) string {
	type wt struct {
		w model.WorkerID
		t model.TaskID
	}
	var pairs []wt
	a.Workers(func(w model.WorkerID, t model.TaskID) { pairs = append(pairs, wt{w, t}) })
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].w < pairs[j].w })
	out := ""
	for _, pr := range pairs {
		out += fmt.Sprintf("%d->%d;", pr.w, pr.t)
	}
	return out
}

// TestDecomposeDirtyComponentCaching pins the churn contract of
// Config.Decompose: the first solve pays for every component, an unchurned
// re-solve pays for none, and a single-island churn re-solves exactly one
// component.
func TestDecomposeDirtyComponentCaching(t *testing.T) {
	in := gen.GenerateIslands(gen.Default().WithScale(3, 6).WithSeed(3), 4)
	cs := &countingSolver{inner: core.NewGreedy()}
	e := NewFromInstance(in, Config{Solver: cs, Decompose: true})

	res1, err := e.Solve(context.Background(), &core.SolveOptions{Seed: 1})
	if err != nil {
		t.Fatalf("initial solve: %v", err)
	}
	comps := res1.Stats.Components
	if comps < 2 {
		t.Fatalf("want a multi-component instance, got %d component(s)", comps)
	}
	if int(cs.calls.Load()) != comps {
		t.Fatalf("initial solve ran %d component solves, want %d", int(cs.calls.Load()), comps)
	}
	if res1.Stats.ComponentsReused != 0 {
		t.Errorf("initial solve reused %d components, want 0", res1.Stats.ComponentsReused)
	}
	if err := in.CheckAssignment(res1.Assignment); err != nil {
		t.Fatalf("invalid assignment: %v", err)
	}

	// No churn: every component is clean, nothing re-solves, and the merged
	// result is unchanged.
	res2, err := e.Solve(context.Background(), &core.SolveOptions{Seed: 1})
	if err != nil {
		t.Fatalf("cached solve: %v", err)
	}
	if int(cs.calls.Load()) != comps {
		t.Errorf("unchurned re-solve ran %d extra component solves, want 0", int(cs.calls.Load())-comps)
	}
	if res2.Stats.ComponentsReused != comps {
		t.Errorf("unchurned re-solve reused %d components, want %d", res2.Stats.ComponentsReused, comps)
	}
	if engineAssignmentKey(res2.Assignment) != engineAssignmentKey(res1.Assignment) {
		t.Errorf("cached solve changed the assignment")
	}
	if res2.Eval != res1.Eval {
		t.Errorf("cached solve changed the objective: %+v vs %+v", res2.Eval, res1.Eval)
	}

	// Churn one island: a fresh worker standing on one of its tasks joins
	// exactly that component (it can reach nothing else), so exactly one
	// component is dirty.
	target := in.Tasks[0]
	e.UpsertWorker(model.Worker{
		ID:         9999,
		Loc:        target.Loc,
		Speed:      0.001,
		Dir:        geo.FullCircle,
		Confidence: 0.9,
		Depart:     target.Start,
	})
	res3, err := e.Solve(context.Background(), &core.SolveOptions{Seed: 1})
	if err != nil {
		t.Fatalf("churned solve: %v", err)
	}
	if got := int(cs.calls.Load()) - comps; got != 1 {
		t.Errorf("single-island churn re-solved %d components, want 1", got)
	}
	if res3.Stats.Components != comps {
		t.Errorf("component count changed: %d want %d", res3.Stats.Components, comps)
	}
	if res3.Stats.ComponentsReused != comps-1 {
		t.Errorf("churned solve reused %d components, want %d", res3.Stats.ComponentsReused, comps-1)
	}
	if err := e.Instance().CheckAssignment(res3.Assignment); err != nil {
		t.Fatalf("invalid post-churn assignment: %v", err)
	}
	if !res3.Assignment.Assigned(9999) {
		t.Errorf("the fresh reachable worker was not assigned")
	}
}

// TestDecomposeMatchesShardedWrapper: on a multi-component problem with no
// cache hits, the engine's Decompose path and the core.Sharded wrapper are
// the same algorithm (same partition, same per-component seed derivation,
// same merge) and must produce identical results.
func TestDecomposeMatchesShardedWrapper(t *testing.T) {
	in := gen.GenerateIslands(gen.Default().WithScale(4, 8).WithSeed(5), 5)

	e := NewFromInstance(in, Config{SolverName: "greedy", Decompose: true})
	got, err := e.Solve(context.Background(), &core.SolveOptions{Source: rng.New(5)})
	if err != nil {
		t.Fatalf("decomposed engine solve: %v", err)
	}
	if got.Stats.Components < 2 {
		t.Fatalf("want a multi-component instance, got %d", got.Stats.Components)
	}

	ref := NewFromInstance(in, Config{SolverName: "greedy"})
	want, err := ref.SolveWith(context.Background(), core.NewSharded(core.NewGreedy()),
		&core.SolveOptions{Source: rng.New(5)})
	if err != nil {
		t.Fatalf("sharded reference solve: %v", err)
	}
	if engineAssignmentKey(got.Assignment) != engineAssignmentKey(want.Assignment) {
		t.Errorf("assignment diverged:\n got %s\nwant %s",
			engineAssignmentKey(got.Assignment), engineAssignmentKey(want.Assignment))
	}
	if got.Eval != want.Eval {
		t.Errorf("objective diverged: got %+v want %+v", got.Eval, want.Eval)
	}
}

// TestDecomposeRemovalConvergesToFresh: after removals (the lazy-rebuild
// path) the decomposed engine must agree with a fresh decomposed engine
// bulk-loaded with the same live set.
func TestDecomposeRemovalConvergesToFresh(t *testing.T) {
	in := gen.GenerateIslands(gen.Default().WithScale(3, 6).WithSeed(7), 4)
	e := NewFromInstance(in, Config{SolverName: "greedy", Decompose: true})
	if _, err := e.Solve(context.Background(), &core.SolveOptions{Seed: 2}); err != nil {
		t.Fatalf("warm-up solve: %v", err)
	}

	// Remove one task and one worker, replace another worker.
	e.RemoveTask(in.Tasks[1].ID)
	e.RemoveWorker(in.Workers[2].ID)
	moved := in.Workers[3]
	moved.Loc = geo.Pt(1-moved.Loc.X, 1-moved.Loc.Y)
	e.UpsertWorker(moved)

	got, err := e.Solve(context.Background(), &core.SolveOptions{Source: rng.New(9)})
	if err != nil && err != core.ErrInfeasible {
		t.Fatalf("post-churn solve: %v", err)
	}

	fresh := NewFromInstance(e.Instance(), Config{SolverName: "greedy", Decompose: true})
	want, err2 := fresh.Solve(context.Background(), &core.SolveOptions{Source: rng.New(9)})
	if err2 != nil && err2 != core.ErrInfeasible {
		t.Fatalf("fresh solve: %v", err2)
	}
	if engineAssignmentKey(got.Assignment) != engineAssignmentKey(want.Assignment) {
		t.Errorf("churned engine diverged from fresh engine:\n got %s\nwant %s",
			engineAssignmentKey(got.Assignment), engineAssignmentKey(want.Assignment))
	}
	if got.Eval != want.Eval {
		t.Errorf("objective diverged: got %+v want %+v", got.Eval, want.Eval)
	}
}

// TestDecomposeCacheKeyedOnSolver: a SolveWith override must never be
// served component results another solver produced, even when nothing
// churned in between.
func TestDecomposeCacheKeyedOnSolver(t *testing.T) {
	in := gen.GenerateIslands(gen.Default().WithScale(3, 6).WithSeed(11), 4)
	cs := &countingSolver{inner: core.NewGreedy()}
	e := NewFromInstance(in, Config{Solver: cs, Decompose: true})
	res1, err := e.Solve(context.Background(), &core.SolveOptions{Seed: 1})
	if err != nil {
		t.Fatalf("initial solve: %v", err)
	}
	comps := res1.Stats.Components
	if comps < 2 || int(cs.calls.Load()) != comps {
		t.Fatalf("unexpected warm-up: %d components, %d calls", comps, int(cs.calls.Load()))
	}

	other := &countingSolver{inner: core.NewSampling()}
	res2, err := e.SolveWith(context.Background(), other, &core.SolveOptions{Seed: 1})
	if err != nil {
		t.Fatalf("override solve: %v", err)
	}
	if int(other.calls.Load()) != comps {
		t.Errorf("solver override ran %d component solves, want %d (no stale cross-solver cache hits)",
			int(other.calls.Load()), comps)
	}
	if res2.Stats.ComponentsReused != 0 {
		t.Errorf("solver override reused %d cached components, want 0", res2.Stats.ComponentsReused)
	}
}

// TestDecomposeReusedStatsNotReaccumulated: cached components contribute
// their standing assignments but not the cost counters of the round that
// originally solved them.
func TestDecomposeReusedStatsNotReaccumulated(t *testing.T) {
	in := gen.GenerateIslands(gen.Default().WithScale(3, 6).WithSeed(13), 4)
	e := NewFromInstance(in, Config{SolverName: "greedy", Decompose: true})
	res1, err := e.Solve(context.Background(), &core.SolveOptions{Seed: 1})
	if err != nil {
		t.Fatalf("initial solve: %v", err)
	}
	if res1.Stats.Rounds == 0 || res1.Stats.BoundsComputed == 0 {
		t.Fatalf("warm-up reported no work: %+v", res1.Stats)
	}
	res2, err := e.Solve(context.Background(), &core.SolveOptions{Seed: 1})
	if err != nil {
		t.Fatalf("cached solve: %v", err)
	}
	if res2.Stats.ComponentsReused != res1.Stats.Components {
		t.Fatalf("expected a fully cached round, got %+v", res2.Stats)
	}
	if res2.Stats.Rounds != 0 || res2.Stats.BoundsComputed != 0 || res2.Stats.PairsEvaluated != 0 {
		t.Errorf("cached round re-reported earlier rounds' work: %+v", res2.Stats)
	}
	if engineAssignmentKey(res2.Assignment) != engineAssignmentKey(res1.Assignment) {
		t.Errorf("cached round changed the assignment")
	}
}

// TestDecomposeSingleComponentPassthrough: with exactly one (dirty)
// component, the decomposed engine hands the inner solver the original
// problem and options verbatim — consuming nothing from the caller's
// random source first — so randomized solvers see exactly the stream the
// undecomposed engine would give them. FixedK: 2 makes the sampler
// maximally stream-sensitive: with only two draws, any shift of the
// source (for example an Int63 consumed for seed derivation before
// delegating) changes the sampled assignments on most seeds, so the
// equality below fails loudly if the pass-through stops being verbatim.
func TestDecomposeSingleComponentPassthrough(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		in := gen.GenerateIslands(gen.Default().WithScale(6, 12).WithSeed(16+seed), 1)
		lowK := func() core.Solver { return &core.Sampling{FixedK: 2} }
		dec := NewFromInstance(in, Config{Solver: lowK(), Decompose: true})
		got, err := dec.Solve(context.Background(), &core.SolveOptions{Source: rng.New(seed)})
		if err != nil {
			t.Fatalf("seed %d: decomposed solve: %v", seed, err)
		}
		if got.Stats.Components != 1 {
			t.Fatalf("seed %d: want a single component, got %d", seed, got.Stats.Components)
		}
		mono := NewFromInstance(in, Config{Solver: lowK()})
		want, err := mono.Solve(context.Background(), &core.SolveOptions{Source: rng.New(seed)})
		if err != nil {
			t.Fatalf("seed %d: monolithic solve: %v", seed, err)
		}
		if engineAssignmentKey(got.Assignment) != engineAssignmentKey(want.Assignment) {
			t.Errorf("seed %d: single-component pass-through diverged from the monolithic engine:\n got %s\nwant %s",
				seed, engineAssignmentKey(got.Assignment), engineAssignmentKey(want.Assignment))
		}
		if got.Eval != want.Eval {
			t.Errorf("seed %d: objective diverged: got %+v want %+v", seed, got.Eval, want.Eval)
		}
	}
}

// TestDecomposeOverridePreservesWarmCache: a one-off SolveWith override
// must not evict the standing solver's still-valid cache entries.
func TestDecomposeOverridePreservesWarmCache(t *testing.T) {
	in := gen.GenerateIslands(gen.Default().WithScale(3, 6).WithSeed(19), 4)
	cs := &countingSolver{inner: core.NewGreedy()}
	e := NewFromInstance(in, Config{Solver: cs, Decompose: true})
	res1, err := e.Solve(context.Background(), &core.SolveOptions{Seed: 1})
	if err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	comps := res1.Stats.Components
	if comps < 2 || int(cs.calls.Load()) != comps {
		t.Fatalf("unexpected warm-up: %d components, %d calls", comps, int(cs.calls.Load()))
	}
	if _, err := e.SolveWith(context.Background(), core.NewSampling(), &core.SolveOptions{Seed: 1}); err != nil {
		t.Fatalf("override: %v", err)
	}
	res3, err := e.Solve(context.Background(), &core.SolveOptions{Seed: 1})
	if err != nil {
		t.Fatalf("post-override solve: %v", err)
	}
	if int(cs.calls.Load()) != comps {
		t.Errorf("the override evicted the standing solver's cache: %d extra solves", int(cs.calls.Load())-comps)
	}
	if res3.Stats.ComponentsReused != comps {
		t.Errorf("post-override solve reused %d components, want %d", res3.Stats.ComponentsReused, comps)
	}
}
