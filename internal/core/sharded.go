package core

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"sync"

	"rdbsc/internal/decompose"
	"rdbsc/internal/model"
	"rdbsc/internal/objective"
	"rdbsc/internal/rng"
)

// Sharded decomposes the problem into the connected components of its
// task-worker reachability graph and solves each component independently
// with the wrapped solver under a GOMAXPROCS-bounded pool, merging the
// per-component results into one. The RDB-SC objective aggregates per-task
// reliability with a min and per-task diversity with a sum, and no valid
// pair crosses components, so the decomposition is exact: any assignment
// splits losslessly into per-component assignments and the merged
// evaluation is the min/sum combination of the per-component evaluations.
//
// Determinism: per-component random sources are derived from the caller's
// source in component order before any solve starts, and results are merged
// in component order, so the outcome is independent of goroutine scheduling
// — a sequential run (Workers: 1) is bit-identical to a fully parallel one.
// A problem that is already a single component is passed through to the
// inner solver verbatim (same problem, same random source), making
// "sharded-X" bit-identical to "X" there.
//
// On multi-component problems the inner heuristics see each component in
// isolation, which can shift their tie-breaking relative to a monolithic
// run (a monolithic greedy, for example, ranks candidates against the
// global minimum reliability; randomized solvers consume their stream
// per-component): the merged objective is exact for the assignment the
// sharded run produces, and the sharded-vs-monolithic differential suite
// pins exactly which equalities hold.
//
// Cancellation: every component solve runs under its own context derived
// from the caller's; cancelling the caller's context interrupts all of
// them, and the components that already finished (or produced best-so-far
// partials) are still merged, so the returned partial result combines
// everything completed before the interruption. A terminal error from any
// component (e.g. an exhaustive population over its cap) cancels the
// remaining components and is returned with the merged partial result.
type Sharded struct {
	// Inner solves the component subproblems.
	Inner Solver
	// Workers caps the number of concurrently solved components
	// (default GOMAXPROCS).
	Workers int
}

// NewSharded wraps inner in component decomposition.
func NewSharded(inner Solver) *Sharded { return &Sharded{Inner: inner} }

// Name implements Solver.
func (s *Sharded) Name() string { return "SHARDED(" + s.Inner.Name() + ")" }

func (s *Sharded) workers() int {
	if s.Workers > 0 {
		return s.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Solve implements Solver.
func (s *Sharded) Solve(ctx context.Context, p *Problem, opts *SolveOptions) (*Result, error) {
	part := decompose.BuildSized(p.Pairs, len(p.In.Tasks), len(p.In.Workers))
	if part.Len() <= 1 {
		// Zero or one component: the decomposition is the identity, so the
		// inner solver runs on the original problem with the original
		// options — bit-identical to the unwrapped solve.
		res, err := s.Inner.Solve(ctx, p, opts)
		if res != nil {
			res.Stats.Components = part.Len()
			res.Stats.MaxComponentPairs = part.MaxPairs()
		}
		return res, err
	}
	src := opts.source()
	seeds := make([]int64, part.Len())
	for i := range seeds {
		seeds[i] = src.Int63()
	}
	sel := make([]bool, part.Len())
	css := make([]map[model.TaskID]*objective.TaskState, part.Len())
	for i := range sel {
		sel[i] = true
		css[i] = ComponentSeedStates(opts.seedStates(), &part.Components[i])
	}
	var progress func(Stage)
	if opts != nil {
		progress = opts.Progress
	}
	results, errs := SolveComponents(ctx, s.Inner, p, part.Components, sel,
		seeds, css, s.workers(), progress)
	res := MergeComponentResults(p, results)
	res.Stats.Components = part.Len()
	res.Stats.MaxComponentPairs = part.MaxPairs()
	return res, CombineComponentErrors(errs)
}

// ComponentProblem extracts the subproblem induced by one component of p:
// its tasks and workers in ID order and its pairs in the original pair
// order. The instance-wide β and reachability options carry over.
func ComponentProblem(p *Problem, c *decompose.Component) *Problem {
	in := &model.Instance{Beta: p.In.Beta, Opt: p.In.Opt}
	in.Tasks = make([]model.Task, 0, len(c.Tasks))
	for _, tid := range c.Tasks {
		in.Tasks = append(in.Tasks, *p.Task(tid))
	}
	in.Workers = make([]model.Worker, 0, len(c.Workers))
	for _, wid := range c.Workers {
		in.Workers = append(in.Workers, *p.Worker(wid))
	}
	pairs := make([]model.Pair, len(c.Pairs))
	for i, pi := range c.Pairs {
		pairs[i] = p.Pairs[pi]
	}
	return NewProblemWithPairs(in, pairs)
}

// ComponentSeedStates restricts a seeded-state map to the entries that
// concern one component: entries for the component's own tasks, plus
// entries for tasks outside the component (pairless tasks that fell out of
// every component, or tasks whose committed worker no longer reaches them)
// that hold a commitment of one of the component's workers. The latter
// must travel with the component so its solve keeps those workers excluded
// from assignment — exactly as a monolithic solve, which sees every seeded
// task, would. The returned map is nil when nothing applies; states are
// shared, not cloned (solvers honoring seeds clone before mutating).
func ComponentSeedStates(seed map[model.TaskID]*objective.TaskState, c *decompose.Component) map[model.TaskID]*objective.TaskState {
	if len(seed) == 0 {
		return nil
	}
	inTask := make(map[model.TaskID]bool, len(c.Tasks))
	for _, tid := range c.Tasks {
		inTask[tid] = true
	}
	inWorker := make(map[model.WorkerID]bool, len(c.Workers))
	for _, wid := range c.Workers {
		inWorker[wid] = true
	}
	var out map[model.TaskID]*objective.TaskState
	add := func(tid model.TaskID, st *objective.TaskState) {
		if out == nil {
			out = make(map[model.TaskID]*objective.TaskState)
		}
		out[tid] = st
	}
	for tid, st := range seed {
		if st == nil {
			continue
		}
		if inTask[tid] {
			add(tid, st)
			continue
		}
		for _, wid := range st.Workers() {
			if inWorker[wid] {
				add(tid, st)
				break
			}
		}
	}
	return out
}

// componentProblemSeeded is ComponentProblem extended with the tasks of
// foreign seed entries: a seeded task outside the component carries no
// pairs, but it must be present in the subproblem instance so that solvers
// honoring seeds see its state — and keep its committed workers excluded.
func componentProblemSeeded(p *Problem, c *decompose.Component, css map[model.TaskID]*objective.TaskState) *Problem {
	var extra []model.TaskID
	if len(css) > 0 {
		inTask := make(map[model.TaskID]bool, len(c.Tasks))
		for _, tid := range c.Tasks {
			inTask[tid] = true
		}
		for tid := range css {
			if !inTask[tid] && p.Task(tid) != nil {
				extra = append(extra, tid)
			}
		}
	}
	if len(extra) == 0 {
		return ComponentProblem(p, c)
	}
	ids := append(append(make([]model.TaskID, 0, len(c.Tasks)+len(extra)), c.Tasks...), extra...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	in := &model.Instance{Beta: p.In.Beta, Opt: p.In.Opt}
	in.Tasks = make([]model.Task, 0, len(ids))
	for _, tid := range ids {
		in.Tasks = append(in.Tasks, *p.Task(tid))
	}
	in.Workers = make([]model.Worker, 0, len(c.Workers))
	for _, wid := range c.Workers {
		in.Workers = append(in.Workers, *p.Worker(wid))
	}
	pairs := make([]model.Pair, len(c.Pairs))
	for i, pi := range c.Pairs {
		pairs[i] = p.Pairs[pi]
	}
	return NewProblemWithPairs(in, pairs)
}

// SolveComponents runs inner over the selected components of p under a
// bounded worker pool. comps is the full component list; sel[i] selects the
// components to solve (unselected slots yield nil results, letting callers
// splice in cached results); seeds[i] seeds component i's random source;
// css[i] carries component i's pre-filtered seeded states (from
// ComponentSeedStates — callers typically need the filtered maps anyway,
// for fingerprinting, so they are computed once and threaded through; a
// nil css means no seeds at all). Each component solve runs under its own
// context derived from ctx; the first terminal error cancels the remaining
// components. progress, when non-nil, receives the inner solvers' stages
// serialized through a mutex (the Progress contract forbids concurrent
// invocation).
//
// results[i] and errs[i] are the component solves' outputs, positionally;
// the outcome is deterministic for fixed inputs regardless of pool size.
func SolveComponents(ctx context.Context, inner Solver, p *Problem, comps []decompose.Component, sel []bool, seeds []int64, css []map[model.TaskID]*objective.TaskState, workers int, progress func(Stage)) ([]*Result, []error) {
	n := len(comps)
	results := make([]*Result, n)
	errs := make([]error, n)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var progressMu sync.Mutex
	emit := func(st Stage) {
		progressMu.Lock()
		progress(st)
		progressMu.Unlock()
	}

	cancels := make([]context.CancelFunc, n)
	ctxs := make([]context.Context, n)
	for i := range comps {
		ctxs[i], cancels[i] = context.WithCancel(ctx)
	}
	defer func() {
		for _, cancel := range cancels {
			cancel()
		}
	}()
	var terminal sync.Once
	cancelAll := func() {
		for _, cancel := range cancels {
			cancel()
		}
	}

	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := range comps {
		if !sel[i] {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			var compSeeds map[model.TaskID]*objective.TaskState
			if css != nil {
				compSeeds = css[i]
			}
			copts := &SolveOptions{
				Source:     rng.New(seeds[i]),
				SeedStates: compSeeds,
			}
			if progress != nil {
				copts.Progress = emit
			}
			res, err := inner.Solve(ctxs[i], componentProblemSeeded(p, &comps[i], compSeeds), copts)
			results[i] = res
			errs[i] = err
			if err != nil && !errors.Is(err, ErrInterrupted) {
				// Terminal: no point finishing the other components.
				terminal.Do(cancelAll)
			}
		}(i)
	}
	wg.Wait()
	return results, errs
}

// MergeComponentResults combines per-component results into one result for
// the full problem: assignments union (components are worker-disjoint),
// stats accumulate in component order, and the merged assignment is
// re-evaluated against p — identical to what a monolithic solver returning
// the same assignment would report. Nil results (skipped or refused
// components) contribute nothing.
func MergeComponentResults(p *Problem, results []*Result) *Result {
	merged := model.NewAssignment()
	var stats Stats
	for _, r := range results {
		if r == nil {
			continue
		}
		if r.Assignment != nil {
			r.Assignment.Workers(func(w model.WorkerID, t model.TaskID) {
				merged.Assign(w, t)
			})
		}
		stats = stats.Add(r.Stats)
	}
	return finishResult(p, merged, stats)
}

// CombineComponentErrors reduces per-component errors to the solve's error:
// the first terminal error in component order wins; otherwise the first
// interruption is propagated (the merged result still carries every
// completed component); nil when every component completed cleanly.
func CombineComponentErrors(errs []error) error {
	var interruptedErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, ErrInterrupted) {
			if interruptedErr == nil {
				interruptedErr = err
			}
			continue
		}
		return err
	}
	return interruptedErr
}
