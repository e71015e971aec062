package core

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"rdbsc/internal/model"
	"rdbsc/internal/objective"
	"rdbsc/internal/rng"
)

// assignmentKey flattens an assignment into a canonical comparable form.
func assignmentKey(a *model.Assignment) string {
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

// TestGreedyIncrementalMatchesNaive is the differential suite of the
// incremental candidate maintenance: across randomized instances, seeds,
// and pruning settings, the incremental path must return assignments
// identical to the per-round full-recomputation baseline.
func TestGreedyIncrementalMatchesNaive(t *testing.T) {
	builders := []struct {
		name string
		mk   func(src *rng.Source) *model.Instance
	}{
		{"random-small", func(src *rng.Source) *model.Instance { return randomInstance(src, 6, 14) }},
		{"random-mid", func(src *rng.Source) *model.Instance { return randomInstance(src, 14, 32) }},
		{"constrained", func(src *rng.Source) *model.Instance { return constrainedInstance(src, 12, 30) }},
	}
	for _, b := range builders {
		for seed := int64(1); seed <= 4; seed++ {
			for _, prune := range []bool{true, false} {
				name := fmt.Sprintf("%s/seed=%d/prune=%v", b.name, seed, prune)
				t.Run(name, func(t *testing.T) {
					in := b.mk(rng.New(seed))
					p := NewProblem(in)
					naive := &Greedy{Prune: prune}
					want := mustSolve(t, naive, p, rng.New(seed))
					wantKey := assignmentKey(want.Assignment)
					got := mustSolve(t, &Greedy{Prune: prune, Incremental: true}, p, rng.New(seed))
					if key := assignmentKey(got.Assignment); key != wantKey {
						t.Errorf("incremental greedy diverged:\n got %s\nwant %s", key, wantKey)
					}
					if got.Eval != want.Eval {
						t.Errorf("eval diverged: got %+v want %+v", got.Eval, want.Eval)
					}
					if got.Stats.Rounds != want.Stats.Rounds {
						t.Errorf("rounds diverged: got %d want %d", got.Stats.Rounds, want.Stats.Rounds)
					}
				})
			}
		}
	}
}

// TestGreedyIncrementalMatchesNaiveSeeded repeats the differential check on
// top of seeded states: committed workers from a partial assignment shape
// every Δ-objective, and both loops must still agree pair for pair. The
// seeded states are clones with non-zero versions, which is where a stale
// memoised Δ would surface.
func TestGreedyIncrementalMatchesNaiveSeeded(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		in := randomInstance(rng.New(seed), 10, 26)
		p := NewProblem(in)

		// Commit roughly a third of the workers via a full naive solve.
		full := mustSolve(t, &Greedy{Prune: true}, p, rng.New(seed))
		existing := model.NewAssignment()
		n := 0
		full.Assignment.Workers(func(w model.WorkerID, t model.TaskID) {
			if n%3 == 0 {
				existing.Assign(w, t)
			}
			n++
		})
		if existing.Len() == 0 {
			t.Fatalf("seed %d: no committed workers to seed with", seed)
		}

		solveFrom := func(g *Greedy) *Result {
			res, err := g.SolveFrom(context.Background(), p, existing, &SolveOptions{Source: rng.New(seed)})
			if err != nil {
				t.Fatalf("SolveFrom: %v", err)
			}
			return res
		}
		want := solveFrom(&Greedy{Prune: true})
		wantKey := assignmentKey(want.Assignment)
		got := solveFrom(NewGreedy())
		if key := assignmentKey(got.Assignment); key != wantKey {
			t.Errorf("seed %d: incremental greedy diverged:\n got %s\nwant %s", seed, key, wantKey)
		}
		if got.Eval != want.Eval {
			t.Errorf("seed %d: eval diverged: got %+v want %+v", seed, got.Eval, want.Eval)
		}
		if got.Stats.Rounds != want.Stats.Rounds {
			t.Errorf("seed %d: rounds diverged: got %d want %d", seed, got.Stats.Rounds, want.Stats.Rounds)
		}
	}
}

// TestGreedyIncrementalSavesBounds pins the point of the fix: on a
// moderately sized instance the incremental cache must cut the number of
// bound computations by at least 3× relative to the per-round full
// recomputation, without changing the assignment.
func TestGreedyIncrementalSavesBounds(t *testing.T) {
	in := randomInstance(rng.New(7), 30, 60)
	p := NewProblem(in)
	naive := mustSolve(t, &Greedy{Prune: true}, p, rng.New(1))
	inc := mustSolve(t, &Greedy{Prune: true, Incremental: true}, p, rng.New(1))
	if assignmentKey(naive.Assignment) != assignmentKey(inc.Assignment) {
		t.Fatal("incremental assignment diverged from naive")
	}
	nb, ib := naive.Stats.BoundsComputed, inc.Stats.BoundsComputed
	if nb == 0 || ib == 0 {
		t.Fatalf("no bound computations recorded: naive=%d incremental=%d", nb, ib)
	}
	if nb < 3*ib {
		t.Errorf("incremental cache saved too little: naive computed %d bounds, incremental %d (want ≥3×)", nb, ib)
	}
	if inc.Stats.BoundsReused == 0 {
		t.Error("incremental path never hit its bound cache")
	}
	t.Logf("bounds computed: naive=%d incremental=%d (%.1fx), reused=%d",
		nb, ib, float64(nb)/float64(ib), inc.Stats.BoundsReused)
}

// TestGreedyExactDeltaMemo pins the exact-Δ memo: the registered greedy
// agrees bit for bit with the naive loop, and computes at most a fifth of
// the exact Δs the per-round recomputation does.
func TestGreedyExactDeltaMemo(t *testing.T) {
	p := NewProblem(randomInstance(rng.New(7), 30, 60))
	naive := mustSolve(t, &Greedy{Prune: true}, p, rng.New(1))
	memo := mustSolve(t, mustNewByName(t, "greedy"), p, rng.New(1))
	if key, wantKey := assignmentKey(memo.Assignment), assignmentKey(naive.Assignment); key != wantKey {
		t.Errorf("greedy diverged from the naive loop:\n got %s\nwant %s", key, wantKey)
	}
	if memo.Eval != naive.Eval {
		t.Errorf("greedy eval %+v, naive %+v", memo.Eval, naive.Eval)
	}
	if memo.Stats.Rounds != naive.Stats.Rounds {
		t.Errorf("greedy rounds %d, naive %d", memo.Stats.Rounds, naive.Stats.Rounds)
	}
	ne, me := naive.Stats.PairsEvaluated, memo.Stats.PairsEvaluated
	if me == 0 || 5*me > ne {
		t.Errorf("exact Δs computed: naive %d, greedy %d (want greedy ≤ 1/5 of naive and > 0)", ne, me)
	}
	t.Logf("exact Δs computed: naive=%d greedy=%d (%.1fx)", ne, me, float64(ne)/float64(me))
}

// TestGreedyRegistryVariants checks that the registered greedy resolves to
// the default knob settings: pruning and incremental maintenance on.
func TestGreedyRegistryVariants(t *testing.T) {
	g, ok := mustNewByName(t, "greedy").(*Greedy)
	if !ok {
		t.Fatalf("NewByName(\"greedy\") is not a *Greedy")
	}
	if *g != *NewGreedy() || !g.Prune || !g.Incremental {
		t.Errorf("NewByName(\"greedy\") = %+v, want Prune=true Incremental=true", g)
	}
}

// TestMinTwoTracker checks the lazy-heap min/second-min maintenance against
// the full-scan reference under randomized monotone updates.
func TestMinTwoTracker(t *testing.T) {
	src := rng.New(3)
	in := randomInstance(src, 12, 12)
	p := NewProblem(in)
	states := make(map[model.TaskID]*objective.TaskState, len(p.In.Tasks))
	for i := range p.In.Tasks {
		tk := p.In.Tasks[i]
		states[tk.ID] = objective.NewTaskState(tk, 0.5)
	}
	tracker := newMinTwoTracker(states)
	for step := 0; step < 200; step++ {
		wantMin, wantSecond := minTwoR(states)
		gotMin, gotSecond := tracker.minTwo()
		if gotMin != wantMin || gotSecond != wantSecond {
			t.Fatalf("step %d: tracker (%v, %v) != scan (%v, %v)",
				step, gotMin, gotSecond, wantMin, wantSecond)
		}
		// Grow a random task's R, as one greedy round would.
		tid := p.In.Tasks[src.Intn(len(p.In.Tasks))].ID
		st := states[tid]
		st.Add(model.WorkerID(1000+step), 0.5+0.4*src.Float64(), 0.1, src.Angle())
		tracker.update(tid, st.R())
	}
}
