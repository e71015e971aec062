// Package engine provides the reusable solving engine of the v2 API: an
// Engine owns a live set of tasks and workers together with the
// RDB-SC-Grid index over them, keeps a prepared core.Problem cached between
// solves, and supports incremental re-solve after task/worker churn — the
// operating mode of both the streaming churn driver (package stream) and
// the platform simulator (package platform), and the natural shape for a
// long-running assignment service.
//
// Mutations (Upsert/Remove) update the grid index incrementally (the
// Section 7.2 maintenance operations) and invalidate the cached problem;
// the next Problem or Solve call re-derives the valid pairs from the index
// without rebuilding it. ApplyBatch applies a group of mutations under a
// single version bump, so version-keyed consumers (the cached problem, the
// decompose fingerprints) see the group as one atomic step.
//
// An Engine is not safe for concurrent use; the serving layer (package
// serve) runs it behind a single-writer apply loop and hands concurrent
// readers immutable Snapshot views instead.
package engine

import (
	"context"
	"fmt"
	"sort"
	"time"

	"rdbsc/internal/core"
	"rdbsc/internal/grid"
	"rdbsc/internal/model"
)

// Config parameterizes an Engine.
type Config struct {
	// Beta is the requester diversity weight β. The zero value means
	// "unset" and defaults to 0.5 unless BetaSet is true; NewFromInstance
	// takes β from the instance verbatim.
	Beta float64
	// BetaSet marks Beta as explicitly chosen, making β=0 (temporal
	// diversity only) expressible through New as well as NewFromInstance.
	// With BetaSet, Beta is honored verbatim and must lie in [0,1]; a value
	// outside the range panics at construction, like a misspelled
	// SolverName.
	BetaSet bool
	// Opt configures reachability semantics for pair enumeration.
	Opt model.Options
	// Solver performs the assignments (default: the divide-and-conquer
	// solver, the paper's best-performing approach).
	Solver core.Solver
	// SolverName selects the solver through the registry when Solver is
	// nil — e.g. "greedy", "dc", "sharded-dc". An
	// unknown name panics at construction: like a duplicate Register, a
	// misspelled solver is a programming error best caught immediately.
	SolverName string
	// DisableIndex switches valid-pair retrieval from the RDB-SC-Grid
	// index to a brute-force scan (mainly for comparison runs; the index
	// is on by default).
	DisableIndex bool
	// Decompose routes every solve through connected-component
	// decomposition: the engine maintains the partition of the task-worker
	// reachability graph incrementally under churn (insertions union their
	// grid-derived edges in; removals trigger a lazy rebuild), solves only
	// the components whose entities, membership, or seeded commitments
	// changed since the previous solve — concurrently, under a
	// GOMAXPROCS-bounded pool — and serves the remaining components from a
	// per-component result cache. Exactness: the min/sum objective
	// decomposes over components, so the merged result evaluates exactly as
	// a monolithic solve of the same assignment; the per-component solves
	// themselves see their component in isolation (see core.Sharded for the
	// precise equivalences).
	Decompose bool
	// Grid configures the index.
	Grid grid.Config
}

func (c Config) withDefaults() Config {
	// Range checks are phrased positively so NaN fails them: an explicit
	// NaN panics instead of poisoning every objective evaluation, and an
	// unset NaN falls back to the default like any other invalid value.
	if c.BetaSet {
		if !(c.Beta >= 0 && c.Beta <= 1) {
			panic(fmt.Sprintf("engine: Beta %v outside [0,1]", c.Beta))
		}
	} else if !(c.Beta > 0 && c.Beta <= 1) {
		c.Beta = 0.5
	}
	if c.Solver == nil && c.SolverName != "" {
		s, err := core.NewByName(c.SolverName)
		if err != nil {
			panic(fmt.Sprintf("engine: %v", err))
		}
		c.Solver = s
	}
	if c.Solver == nil {
		c.Solver = core.NewDC()
	}
	return c
}

// Engine owns a churning task/worker set, its grid index, and a cached
// prepared problem. Construct with New (empty) or NewFromInstance (bulk
// load), mutate with the Upsert/Remove methods, and run solves with Solve.
type Engine struct {
	cfg     Config
	grid    *grid.Grid
	tasks   map[model.TaskID]model.Task
	workers map[model.WorkerID]model.Worker

	// ID-ascending mirrors of the maps, maintained incrementally by each
	// mutation (binary-search insert/replace/delete) so Instance never
	// re-sorts the full population after a one-entity churn step.
	sortedTasks   []model.Task
	sortedWorkers []model.Worker

	version  uint64 // bumped on every mutation (once per ApplyBatch)
	inBatch  bool   // an ApplyBatch is in flight
	batchDid bool   // the in-flight batch already bumped version
	prepared *core.Problem
	prepVer  uint64

	decomp *decompState // non-nil iff cfg.Decompose

	lastRebuilt  bool          // whether the last Problem() call re-derived pairs
	lastRetrieve time.Duration // time that retrieval took (zero on a cache hit)
}

// New returns an empty engine.
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg:     cfg,
		tasks:   make(map[model.TaskID]model.Task),
		workers: make(map[model.WorkerID]model.Worker),
		version: 1,
	}
	if !cfg.DisableIndex {
		e.grid = grid.New(cfg.Grid, cfg.Opt)
	}
	if cfg.Decompose {
		e.decomp = newDecompState()
	}
	return e
}

// NewFromInstance returns an engine pre-loaded with the instance's tasks
// and workers. The instance's β and reachability options take precedence
// over cfg's, and the grid's cell size is derived from the instance's cost
// model (unless cfg.Grid pins it).
func NewFromInstance(in *model.Instance, cfg Config) *Engine {
	cfg.Opt = in.Opt
	cfg = cfg.withDefaults()
	// Applied after withDefaults so the instance's β survives verbatim:
	// β=0 (temporal diversity only) is a valid weight, not an unset one.
	if in.Beta >= 0 && in.Beta <= 1 {
		cfg.Beta = in.Beta
		cfg.BetaSet = true
	}
	e := &Engine{
		cfg:     cfg,
		tasks:   make(map[model.TaskID]model.Task, len(in.Tasks)),
		workers: make(map[model.WorkerID]model.Worker, len(in.Workers)),
		version: 1,
	}
	if !cfg.DisableIndex {
		e.grid = grid.NewFromInstance(cfg.Grid, in)
	}
	if cfg.Decompose {
		// A bulk load has no incremental history; the builder starts stale
		// and the first Partition call derives the components from the
		// prepared problem's pairs.
		e.decomp = newDecompState()
	}
	for _, t := range in.Tasks {
		e.tasks[t.ID] = t
	}
	for _, w := range in.Workers {
		e.workers[w.ID] = w
	}
	// Bulk load: sort once here; every later mutation maintains the order
	// incrementally. Built from the maps so duplicate-ID instances collapse
	// to their last occurrence, matching the map state.
	e.sortedTasks = make([]model.Task, 0, len(e.tasks))
	for _, t := range e.tasks {
		e.sortedTasks = append(e.sortedTasks, t)
	}
	sort.Slice(e.sortedTasks, func(i, j int) bool { return e.sortedTasks[i].ID < e.sortedTasks[j].ID })
	e.sortedWorkers = make([]model.Worker, 0, len(e.workers))
	for _, w := range e.workers {
		e.sortedWorkers = append(e.sortedWorkers, w)
	}
	sort.Slice(e.sortedWorkers, func(i, j int) bool { return e.sortedWorkers[i].ID < e.sortedWorkers[j].ID })
	return e
}

// Solver returns the engine's configured solver.
func (e *Engine) Solver() core.Solver { return e.cfg.Solver }

// SetSolver swaps the assignment algorithm for subsequent solves.
func (e *Engine) SetSolver(s core.Solver) {
	if s != nil {
		e.cfg.Solver = s
	}
}

// Grid exposes the live index (read-only use); nil when the engine was
// configured with DisableIndex.
func (e *Engine) Grid() *grid.Grid { return e.grid }

// Len returns the live task and worker counts.
func (e *Engine) Len() (tasks, workers int) { return len(e.tasks), len(e.workers) }

// Task returns the live task with the given id.
func (e *Engine) Task(id model.TaskID) (model.Task, bool) {
	t, ok := e.tasks[id]
	return t, ok
}

// Worker returns the live worker with the given id.
func (e *Engine) Worker(id model.WorkerID) (model.Worker, bool) {
	w, ok := e.workers[id]
	return w, ok
}

// bump invalidates the cached problem after an effective mutation. Outside
// a batch every mutation gets its own version; inside ApplyBatch the whole
// batch shares one bump, so downstream version consumers (the decompose
// fingerprints, Snapshot.Version) see the batch as a single atomic step.
func (e *Engine) bump() {
	if e.inBatch {
		if !e.batchDid {
			e.version++
			e.batchDid = true
		}
		return
	}
	e.version++
}

// UpsertTask inserts the task, replacing (and re-indexing) any existing
// task with the same ID. It reports whether the engine changed (false for a
// byte-identical re-upsert).
func (e *Engine) UpsertTask(t model.Task) bool {
	old, replaced := e.tasks[t.ID]
	if replaced && old == t {
		return false // byte-identical re-upsert: nothing changed, keep caches warm
	}
	if e.grid != nil {
		if replaced {
			e.grid.RemoveTask(old.ID, old.Loc)
		}
		e.grid.InsertTask(t)
	}
	e.tasks[t.ID] = t
	i := sort.Search(len(e.sortedTasks), func(i int) bool { return e.sortedTasks[i].ID >= t.ID })
	if replaced {
		e.sortedTasks[i] = t
	} else {
		e.sortedTasks = append(e.sortedTasks, model.Task{})
		copy(e.sortedTasks[i+1:], e.sortedTasks[i:])
		e.sortedTasks[i] = t
	}
	e.bump()
	e.noteTaskUpsert(t, replaced)
	return true
}

// RemoveTask deletes the task; it reports whether the task was present.
func (e *Engine) RemoveTask(id model.TaskID) bool {
	old, ok := e.tasks[id]
	if !ok {
		return false
	}
	if e.grid != nil {
		e.grid.RemoveTask(old.ID, old.Loc)
	}
	delete(e.tasks, id)
	i := sort.Search(len(e.sortedTasks), func(i int) bool { return e.sortedTasks[i].ID >= id })
	e.sortedTasks = append(e.sortedTasks[:i], e.sortedTasks[i+1:]...)
	e.bump()
	e.noteTaskRemove(id)
	return true
}

// UpsertWorker inserts the worker, replacing (and re-indexing) any existing
// worker with the same ID. It reports whether the engine changed (false for
// a byte-identical re-upsert).
func (e *Engine) UpsertWorker(w model.Worker) bool {
	old, replaced := e.workers[w.ID]
	if replaced && old == w {
		return false // byte-identical re-upsert: nothing changed, keep caches warm
	}
	if e.grid != nil {
		if replaced {
			e.grid.RemoveWorker(old.ID, old.Loc)
		}
		e.grid.InsertWorker(w)
	}
	e.workers[w.ID] = w
	i := sort.Search(len(e.sortedWorkers), func(i int) bool { return e.sortedWorkers[i].ID >= w.ID })
	if replaced {
		e.sortedWorkers[i] = w
	} else {
		e.sortedWorkers = append(e.sortedWorkers, model.Worker{})
		copy(e.sortedWorkers[i+1:], e.sortedWorkers[i:])
		e.sortedWorkers[i] = w
	}
	e.bump()
	e.noteWorkerUpsert(w, replaced)
	return true
}

// RemoveWorker deletes the worker; it reports whether the worker was
// present.
func (e *Engine) RemoveWorker(id model.WorkerID) bool {
	old, ok := e.workers[id]
	if !ok {
		return false
	}
	if e.grid != nil {
		e.grid.RemoveWorker(old.ID, old.Loc)
	}
	delete(e.workers, id)
	i := sort.Search(len(e.sortedWorkers), func(i int) bool { return e.sortedWorkers[i].ID >= id })
	e.sortedWorkers = append(e.sortedWorkers[:i], e.sortedWorkers[i+1:]...)
	e.bump()
	e.noteWorkerRemove(id)
	return true
}

// Instance snapshots the live tasks and workers as a static instance,
// ordered by ID so downstream consumers see a deterministic view regardless
// of map iteration order. The returned slices are copies of the
// incrementally maintained ID-sorted mirrors: later mutations never reach
// into a previously returned instance (or into any problem prepared from
// one), which is what makes Snapshot hand-offs copy-on-write.
func (e *Engine) Instance() *model.Instance {
	return &model.Instance{
		Beta:    e.cfg.Beta,
		Opt:     e.cfg.Opt,
		Tasks:   append([]model.Task(nil), e.sortedTasks...),
		Workers: append([]model.Worker(nil), e.sortedWorkers...),
	}
}

// Problem returns the prepared problem for the current task/worker set.
// The result is cached: repeated calls between mutations return the same
// problem without re-deriving the valid pairs.
func (e *Engine) Problem() *core.Problem {
	if e.prepared != nil && e.prepVer == e.version {
		e.lastRebuilt = false
		e.lastRetrieve = 0
		return e.prepared
	}
	in := e.Instance()
	var pairs []model.Pair
	start := time.Now()
	if e.grid == nil {
		pairs = in.ValidPairs()
	} else {
		pairs = e.grid.ValidPairs()
	}
	e.lastRetrieve = time.Since(start)
	e.lastRebuilt = true
	e.prepared = core.NewProblemWithPairs(in, pairs)
	e.prepVer = e.version
	return e.prepared
}

// LastPrep reports whether the most recent Problem call re-derived the
// valid pairs, and how long that retrieval (index walk or brute-force
// scan, excluding problem indexing) took; both are zero after a cache hit.
// Cost-accounting callers use this to attribute retrieval time without
// double-charging cached rounds.
func (e *Engine) LastPrep() (rebuilt bool, retrieve time.Duration) {
	return e.lastRebuilt, e.lastRetrieve
}

// Solve runs the configured solver over the current (cached or freshly
// prepared) problem. It returns core.ErrInfeasible — together with the
// evaluated empty result — when no worker can be assigned to any task and
// opts carries no committed seeded workers (with commitments standing, an
// empty new assignment is a valid answer), and propagates solver errors
// (ErrInterrupted partial results included) otherwise.
func (e *Engine) Solve(ctx context.Context, opts *core.SolveOptions) (*core.Result, error) {
	return e.SolveWith(ctx, e.cfg.Solver, opts)
}

// SolveWith is Solve with a one-off solver override.
func (e *Engine) SolveWith(ctx context.Context, s core.Solver, opts *core.SolveOptions) (*core.Result, error) {
	p := e.Problem()
	var res *core.Result
	var err error
	if e.decomp != nil {
		res, err = e.solveDecomposed(ctx, s, p, opts)
	} else {
		res, err = s.Solve(ctx, p, opts)
	}
	if res == nil {
		// Only Exhaustive's population-cap rejection produces a nil result;
		// hand callers an evaluated empty one so the pairing "non-nil
		// result + typed error" holds for every engine solve.
		res = &core.Result{Assignment: model.NewAssignment()}
		res.Eval = p.Evaluate(res.Assignment)
	}
	if err != nil {
		return res, err
	}
	if res.Assignment == nil || res.Assignment.Len() == 0 {
		// With seeded states committing workers, an empty *new* assignment
		// is a valid outcome rather than infeasibility: the standing
		// (seeded) assignment keeps serving its tasks even when no further
		// worker can be dispatched this round. ErrInfeasible is reserved
		// for solves where nothing is committed and nothing is assignable.
		if opts.SeededWorkerCount() > 0 {
			return res, nil
		}
		return res, core.ErrInfeasible
	}
	return res, nil
}
