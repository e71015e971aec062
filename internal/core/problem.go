// Package core implements the paper's primary contribution: the three
// approximation algorithms for the NP-hard RDB-SC assignment problem —
// GREEDY (Section 4, with the Lemma 4.3 bound-based pruning), SAMPLING
// (Section 5, with the (ε,δ) sample-size determination of Section 5.2), and
// the divide-and-conquer D&C (Section 6, with BG_Partition and SA_Merge) —
// plus the exhaustive oracle for tiny instances and the paper's G-TRUTH
// reference configuration (D&C with a 10× sampling budget).
package core

import (
	"context"
	"fmt"

	"rdbsc/internal/model"
	"rdbsc/internal/objective"
	"rdbsc/internal/scratch"
)

// Problem is an RDB-SC instance prepared for solving: the instance plus its
// valid task-worker pairs indexed by worker and by task. Construct with
// NewProblem (brute-force pair enumeration) or NewProblemWithPairs (pairs
// retrieved from the grid index).
type Problem struct {
	In    *model.Instance
	Pairs []model.Pair

	byWorker map[model.WorkerID][]int32 // worker -> indices into Pairs
	byTask   map[model.TaskID][]int32   // task -> indices into Pairs
	workers  map[model.WorkerID]*model.Worker
	tasks    map[model.TaskID]*model.Task
}

// NewProblem prepares the instance, enumerating valid pairs in O(m·n).
func NewProblem(in *model.Instance) *Problem {
	return NewProblemWithPairs(in, in.ValidPairs())
}

// NewProblemWithPairs prepares the instance with externally computed valid
// pairs (for example, retrieved via the RDB-SC-Grid index).
func NewProblemWithPairs(in *model.Instance, pairs []model.Pair) *Problem {
	p := &Problem{
		In:       in,
		Pairs:    pairs,
		byWorker: make(map[model.WorkerID][]int32),
		byTask:   make(map[model.TaskID][]int32),
		workers:  make(map[model.WorkerID]*model.Worker, len(in.Workers)),
		tasks:    make(map[model.TaskID]*model.Task, len(in.Tasks)),
	}
	for i := range in.Workers {
		p.workers[in.Workers[i].ID] = &in.Workers[i]
	}
	for i := range in.Tasks {
		p.tasks[in.Tasks[i].ID] = &in.Tasks[i]
	}
	for i := range pairs {
		pr := pairs[i]
		p.byWorker[pr.Worker] = append(p.byWorker[pr.Worker], int32(i))
		p.byTask[pr.Task] = append(p.byTask[pr.Task], int32(i))
	}
	return p
}

// Degree returns deg(w): the number of tasks worker w can do.
func (p *Problem) Degree(w model.WorkerID) int { return len(p.byWorker[w]) }

// WorkerPairs returns the pair indices for worker w.
func (p *Problem) WorkerPairs(w model.WorkerID) []int32 { return p.byWorker[w] }

// TaskPairs returns the pair indices for task t.
func (p *Problem) TaskPairs(t model.TaskID) []int32 { return p.byTask[t] }

// Worker returns the worker with the given id (nil if absent).
func (p *Problem) Worker(id model.WorkerID) *model.Worker { return p.workers[id] }

// Task returns the task with the given id (nil if absent).
func (p *Problem) Task(id model.TaskID) *model.Task { return p.tasks[id] }

// ConnectedWorkers returns the IDs of workers with at least one valid pair.
// Order follows the instance's worker slice for determinism.
func (p *Problem) ConnectedWorkers() []model.WorkerID {
	out := make([]model.WorkerID, 0, len(p.byWorker))
	for i := range p.In.Workers {
		id := p.In.Workers[i].ID
		if len(p.byWorker[id]) > 0 {
			out = append(out, id)
		}
	}
	return out
}

// Evaluate computes the objective values of an assignment on this problem.
func (p *Problem) Evaluate(a *model.Assignment) objective.Evaluation {
	return objective.Evaluate(p.In, a)
}

// EvaluateBuf is Evaluate with pooled scratch (nil disables pooling); the
// result is bit-identical.
func (p *Problem) EvaluateBuf(bufs *scratch.Buffers, a *model.Assignment) objective.Evaluation {
	return objective.EvaluateBuf(bufs, p.In, a)
}

// NewStates returns a per-task objective state map initialized from an
// existing (possibly partial) assignment restricted to this problem's valid
// pairs. It delegates to objective.BuildStates, which applies workers in a
// deterministic order: per-task diversity is a floating-point sum over the
// insertion order, so the resulting states (and everything solved on top
// of them) are reproducible.
func (p *Problem) NewStates(a *model.Assignment) map[model.TaskID]*objective.TaskState {
	if a == nil {
		return make(map[model.TaskID]*objective.TaskState)
	}
	return objective.BuildStates(p.In, a)
}

// Stats carries per-solve diagnostics.
type Stats struct {
	Rounds          int // greedy rounds or D&C recursion leaves
	PairsEvaluated  int // exact Δ-diversity values computed (greedy memo hits are not counted)
	PairsPruned     int // candidates eliminated by Lemma 4.3 bounds
	BoundsComputed  int // candidate Δ-bound computations (cache misses)
	BoundsReused    int // candidate Δ-bounds served from the incremental cache
	Samples         int // random samples drawn (sampling / leaves)
	MergeGroups     int // DCW groups resolved during SA_Merge
	MergeExhaustive int // DCW groups resolved by 2^k enumeration

	// Decomposition diagnostics (sharded solves and engine.Config.Decompose).
	Components        int // connected components the solve decomposed into
	ComponentsReused  int // components served from the engine's result cache
	MaxComponentPairs int // pair count of the largest component

	// Scratch-memory diagnostics: how many hot-path slice requests hit the
	// allocator vs a pooled free-list (internal/scratch). Reuses/(Allocs+
	// Reuses) is the pool hit rate; steady-state solves should be almost
	// all reuses.
	ScratchAllocs int // scratch requests served by the allocator
	ScratchReused int // scratch requests served from a free-list
}

// Add returns the element-wise accumulation of two stats (MaxComponentPairs
// takes the max). Aggregating layers — SA_Merge, the component merger, the
// serving layer's cumulative /v1/stats counters — fold per-solve stats with
// it.
func (s Stats) Add(o Stats) Stats {
	s.Rounds += o.Rounds
	s.PairsEvaluated += o.PairsEvaluated
	s.PairsPruned += o.PairsPruned
	s.BoundsComputed += o.BoundsComputed
	s.BoundsReused += o.BoundsReused
	s.Samples += o.Samples
	s.MergeGroups += o.MergeGroups
	s.MergeExhaustive += o.MergeExhaustive
	s.Components += o.Components
	s.ComponentsReused += o.ComponentsReused
	if o.MaxComponentPairs > s.MaxComponentPairs {
		s.MaxComponentPairs = o.MaxComponentPairs
	}
	s.ScratchAllocs += o.ScratchAllocs
	s.ScratchReused += o.ScratchReused
	return s
}

// Result is a solver's output: the assignment, its evaluation, and
// diagnostics.
type Result struct {
	Assignment *model.Assignment
	Eval       objective.Evaluation
	Stats      Stats
}

// String implements fmt.Stringer.
func (r *Result) String() string {
	return fmt.Sprintf("%v stats=%+v", r.Eval, r.Stats)
}

// Solver is the common interface of the RDB-SC approximation algorithms
// (the v2 contract). Solve must not mutate the problem; all randomness
// flows from opts (seed or explicit source) so runs are reproducible.
//
// Solvers check ctx at iteration boundaries — greedy rounds, sampling
// draws, D&C subproblem merges, exhaustive enumeration chunks — and on
// cancellation or deadline expiry return their best-so-far partial result
// together with an error wrapping ErrInterrupted. The returned *Result is
// non-nil whenever the solve started (only Exhaustive's population-cap
// rejection returns a nil result). A nil opts is valid and means defaults.
type Solver interface {
	Name() string
	Solve(ctx context.Context, p *Problem, opts *SolveOptions) (*Result, error)
}

// finishResult evaluates and packages an assignment.
func finishResult(p *Problem, a *model.Assignment, st Stats) *Result {
	return &Result{Assignment: a, Eval: p.Evaluate(a), Stats: st}
}
