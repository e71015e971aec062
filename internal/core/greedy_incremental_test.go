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

// greedyVariants returns the candidate-maintenance variants that must all
// produce the same assignment as the naive baseline with the same Prune
// setting.
func greedyVariants(prune bool) []*Greedy {
	return []*Greedy{
		{Prune: prune, Incremental: true},
		{Prune: prune, Incremental: true, Parallel: true},
	}
}

// TestGreedyIncrementalMatchesNaive is the differential suite of the
// incremental candidate maintenance: across randomized instances, seeds,
// and pruning settings, the incremental path (with and without parallel
// exact-Δ evaluation) must return assignments identical to the per-round
// full-recomputation baseline.
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
					for _, g := range greedyVariants(prune) {
						got := mustSolve(t, g, p, rng.New(seed))
						if key := assignmentKey(got.Assignment); key != wantKey {
							t.Errorf("Greedy{Incremental:%v,Parallel:%v} diverged:\n got %s\nwant %s",
								g.Incremental, g.Parallel, key, wantKey)
						}
						if got.Eval != want.Eval {
							t.Errorf("eval diverged: got %+v want %+v", got.Eval, want.Eval)
						}
						if got.Stats.Rounds != want.Stats.Rounds {
							t.Errorf("rounds diverged: got %d want %d", got.Stats.Rounds, want.Stats.Rounds)
						}
					}
				})
			}
		}
	}
}

// TestGreedyIncrementalMatchesNaiveSeeded repeats the differential check on
// top of seeded states: committed workers from a partial assignment shape
// every Δ-objective, and the variants must still agree pair for pair. The
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
		for _, g := range greedyVariants(true) {
			got := solveFrom(g)
			if key := assignmentKey(got.Assignment); key != wantKey {
				t.Errorf("seed %d: Greedy{Incremental:%v,Parallel:%v} diverged:\n got %s\nwant %s",
					seed, g.Incremental, g.Parallel, key, wantKey)
			}
			if got.Eval != want.Eval {
				t.Errorf("seed %d: eval diverged: got %+v want %+v", seed, got.Eval, want.Eval)
			}
			if got.Stats.Rounds != want.Stats.Rounds {
				t.Errorf("seed %d: rounds diverged: got %d want %d", seed, got.Stats.Rounds, want.Stats.Rounds)
			}
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
// variants agree bit for bit, and the memoised path computes at most a
// fifth of the exact Δs the per-round recomputation does.
func TestGreedyExactDeltaMemo(t *testing.T) {
	p := NewProblem(randomInstance(rng.New(7), 30, 60))
	solve := func(name string) *Result {
		s, err := NewByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return mustSolve(t, s, p, rng.New(1))
	}
	naive, memo := solve("greedy-naive"), solve("greedy")
	wantKey := assignmentKey(naive.Assignment)
	for _, v := range []struct {
		name string
		got  *Result
	}{{"greedy", memo}, {"greedy-parallel", solve("greedy-parallel")}} {
		name, got := v.name, v.got
		if key := assignmentKey(got.Assignment); key != wantKey {
			t.Errorf("%s diverged from greedy-naive:\n got %s\nwant %s", name, key, wantKey)
		}
		if got.Eval != naive.Eval {
			t.Errorf("%s eval %+v, greedy-naive %+v", name, got.Eval, naive.Eval)
		}
		if got.Stats.Rounds != naive.Stats.Rounds {
			t.Errorf("%s rounds %d, greedy-naive %d", name, got.Stats.Rounds, naive.Stats.Rounds)
		}
	}
	ne, me := naive.Stats.PairsEvaluated, memo.Stats.PairsEvaluated
	if me == 0 || 5*me > ne {
		t.Errorf("exact Δs computed: greedy-naive %d, greedy %d (want greedy ≤ 1/5 of greedy-naive and > 0)", ne, me)
	}
	t.Logf("exact Δs computed: greedy-naive=%d greedy=%d (%.1fx)", ne, me, float64(ne)/float64(me))
}

// TestGreedyParallelShards exercises the GOMAXPROCS-sharded exact-Δ
// evaluation on an instance large enough for many concurrent shards; run
// under -race it doubles as the data-race check for the read-only state
// sharing.
func TestGreedyParallelShards(t *testing.T) {
	in := randomInstance(rng.New(11), 20, 80)
	p := NewProblem(in)
	seq := mustSolve(t, &Greedy{Prune: true, Incremental: true}, p, rng.New(1))
	par := mustSolve(t, &Greedy{Prune: true, Incremental: true, Parallel: true}, p, rng.New(1))
	if assignmentKey(seq.Assignment) != assignmentKey(par.Assignment) {
		t.Fatal("parallel exact-Δ evaluation changed the assignment")
	}
	if seq.Stats.PairsEvaluated != par.Stats.PairsEvaluated {
		t.Errorf("pairs evaluated diverged: seq=%d par=%d",
			seq.Stats.PairsEvaluated, par.Stats.PairsEvaluated)
	}
}

// TestGreedyRegistryVariants checks that the three greedy registry entries
// resolve to the intended knob settings.
func TestGreedyRegistryVariants(t *testing.T) {
	cases := []struct {
		name                 string
		incremental, paralll bool
	}{
		{"greedy", true, false},
		{"greedy-naive", false, false},
		{"greedy-parallel", true, true},
	}
	for _, c := range cases {
		s, err := NewByName(c.name)
		if err != nil {
			t.Fatalf("NewByName(%q): %v", c.name, err)
		}
		g, ok := s.(*Greedy)
		if !ok {
			t.Fatalf("NewByName(%q) = %T, want *Greedy", c.name, s)
		}
		if !g.Prune || g.Incremental != c.incremental || g.Parallel != c.paralll {
			t.Errorf("NewByName(%q) = %+v, want Prune=true Incremental=%v Parallel=%v",
				c.name, g, c.incremental, c.paralll)
		}
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
