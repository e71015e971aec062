package cluster

import (
	"context"
	"sort"
	"sync"

	"rdbsc/internal/adaptive"
	"rdbsc/internal/core"
	"rdbsc/internal/decompose"
	"rdbsc/internal/engine"
	"rdbsc/internal/model"
	"rdbsc/internal/objective"
	"rdbsc/internal/serve"
)

// assembled is the coordinator's view of the global problem at one shard
// version vector: the union instance, the canonically ordered global pair
// set, its component partition, and the per-component escalation verdicts.
// It is immutable once built and cached across solves until any shard
// version (or the entity routing) changes.
type assembled struct {
	versions []uint64 // per-shard snapshot versions (cache key)
	routeGen uint64   // registry generation (cache key; bumped on moves)

	problem *core.Problem
	part    *decompose.Partition
	// shape is the adaptive controller's planning input derived from part,
	// built on first use. Memoised here because the assembly is already
	// keyed on exactly the state the shape depends on.
	shapeOnce sync.Once
	shape     *adaptive.Shape
	// escalated[i] is true when component i's entities span more than one
	// shard — its pair edges cross a tile boundary, so a shard-local solve
	// cannot see all of it.
	escalated             []bool
	nEscalated, nInterior int
	crossPairs            int
	staleDuplicates       int // entity IDs seen on >1 shard (move in flight)
}

// assemble builds (or reuses) the global problem from the current shard
// snapshots. Reads are lock-free on the snapshot plane; only the entity
// registry copy takes the routing mutex.
func (c *Cluster) assemble() (*assembled, bool) {
	snaps := make([]*engine.Snapshot, len(c.shards))
	versions := make([]uint64, len(c.shards))
	for i, sh := range c.shards {
		snaps[i] = sh.snap.Load()
		versions[i] = snaps[i].Version
	}
	c.mu.Lock()
	routeGen := c.routeGen
	var taskHome map[model.TaskID]int
	var workerHome map[model.WorkerID]int
	if cached := c.asm.Load(); cached != nil &&
		cached.routeGen == routeGen && versionsEqual(cached.versions, versions) {
		c.mu.Unlock()
		c.assemblyReuses.Add(1)
		return cached, true
	}
	// Copy the registry under the lock: assembly itself must not hold up
	// the mutation path.
	taskHome = make(map[model.TaskID]int, len(c.taskShard))
	for id, s := range c.taskShard {
		taskHome[id] = s
	}
	workerHome = make(map[model.WorkerID]int, len(c.workerShard))
	for id, s := range c.workerShard {
		workerHome[id] = s
	}
	c.mu.Unlock()

	a := &assembled{versions: versions, routeGen: routeGen}

	// Union the shard populations. An entity ID present on several shards
	// is a move whose old-shard removal has not applied yet; the registry
	// names the authoritative copy, and the stale one is dropped from the
	// assembled view (exactly what the monolithic engine would hold after
	// the in-flight removal applies).
	in := &model.Instance{Beta: c.beta, Opt: c.opt}
	perShardTasks := make([][]model.Task, len(c.shards))
	perShardWorkers := make([][]model.Worker, len(c.shards))
	keepTask := func(s int, id model.TaskID) bool {
		home, ok := taskHome[id]
		return !ok || home == s
	}
	keepWorker := func(s int, id model.WorkerID) bool {
		home, ok := workerHome[id]
		return !ok || home == s
	}
	for s, snap := range snaps {
		for _, t := range snap.Problem.In.Tasks {
			if keepTask(s, t.ID) {
				perShardTasks[s] = append(perShardTasks[s], t)
				in.Tasks = append(in.Tasks, t)
			} else {
				a.staleDuplicates++
			}
		}
		for _, w := range snap.Problem.In.Workers {
			if keepWorker(s, w.ID) {
				perShardWorkers[s] = append(perShardWorkers[s], w)
				in.Workers = append(in.Workers, w)
			} else {
				a.staleDuplicates++
			}
		}
	}
	sortEntities(in)

	// Intra-shard pairs come from the shard snapshots verbatim (their
	// engines already enumerated them through their grid indexes); pairs
	// touching a dropped stale copy are skipped.
	pairs := make([]model.Pair, 0, totalPairs(snaps))
	for s, snap := range snaps {
		for _, pr := range snap.Problem.Pairs {
			if keepTask(s, pr.Task) && keepWorker(s, pr.Worker) {
				pairs = append(pairs, pr)
			}
		}
	}

	// Cross-shard pairs: for each worker, bound its reach by the latest
	// task deadline (arrival >= depart + distance/speed, so a pair is only
	// valid within radius speed·(maxEnd−depart)), find the foreign shards
	// whose tiles intersect that disc, and check each candidate pair with
	// the exact model predicate — the same predicate the grid index
	// enumerates from, so the assembled pair set equals the monolithic one.
	maxEnd := 0.0
	for _, t := range in.Tasks {
		if t.End > maxEnd {
			maxEnd = t.End
		}
	}
	for b := range c.shards {
		for _, w := range perShardWorkers[b] {
			r := w.Speed * (maxEnd - w.Depart)
			if r < 0 {
				continue
			}
			reach := c.tiling.ShardsInDisc(w.Loc, r)
			for s := range c.shards {
				if s == b || !reach[s] {
					continue
				}
				for _, t := range perShardTasks[s] {
					if arr, ok := model.Arrival(t, w, c.opt); ok {
						pairs = append(pairs, model.Pair{
							Task: t.ID, Worker: w.ID,
							Arrival: arr, Angle: model.ApproachAngle(t, w),
						})
						a.crossPairs++
					}
				}
			}
		}
	}

	// Canonical order: the monolithic reference and the cluster must hand
	// solvers the identical pair sequence, since solver tie-breaking is
	// pair-order sensitive.
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].Task != pairs[j].Task {
			return pairs[i].Task < pairs[j].Task
		}
		return pairs[i].Worker < pairs[j].Worker
	})

	a.problem = core.NewProblemWithPairs(in, pairs)
	a.part = decompose.BuildSized(pairs, len(in.Tasks), len(in.Workers))

	// Escalation verdicts: a component is interior iff every entity lives
	// on one shard. (Entities connected by an intra-shard pair share a
	// shard, so a component escalates exactly when it contains a
	// cross-shard pair.)
	a.escalated = make([]bool, a.part.Len())
	for i := range a.part.Components {
		comp := &a.part.Components[i]
		home := -1
		for _, tid := range comp.Tasks {
			s := taskHome[tid]
			if home == -1 {
				home = s
			} else if s != home {
				a.escalated[i] = true
				break
			}
		}
		if !a.escalated[i] {
			for _, wid := range comp.Workers {
				if workerHome[wid] != home {
					a.escalated[i] = true
					break
				}
			}
		}
		if a.escalated[i] {
			a.nEscalated++
		} else {
			a.nInterior++
		}
	}

	c.assemblies.Add(1)
	c.asm.Store(a)
	return a, false
}

// Solve runs one cluster-wide solve over the assembled global problem,
// mirroring core.Sharded.Solve exactly: single-component problems pass
// through to the solver verbatim; otherwise per-component seeds are drawn
// from the options' source in component order, components solve
// independently (interior ones shard-local by construction — their
// subproblem is exactly what their shard's engine holds — and escalated
// ones over the assembled boundary sub-instance), and the results merge
// through the exact min/sum merge. The returned result is bit-identical to
// core.NewSharded(solver).Solve over the same population in canonical pair
// order.
func (c *Cluster) Solve(ctx context.Context, solver core.Solver, opts *core.SolveOptions) (*core.Result, *serve.CoordinatorInfo, error) {
	return c.View().Solve(ctx, solver, opts)
}

// view is the cluster's serve.View: one assembly pinned for one request.
// The HTTP layer pins first so it can consult the adaptive plan and the
// solve cache against the exact version vector and routing generation the
// solve would run under, before committing to a solve.
type view struct {
	c      *Cluster
	a      *assembled
	reused bool
}

// View implements serve.Backend.
func (c *Cluster) View() serve.View {
	a, reused := c.assemble()
	return view{c, a, reused}
}

func (v view) State() ([]uint64, uint64) { return v.a.versions, v.a.routeGen }

func (v view) Shape() *adaptive.Shape {
	v.a.shapeOnce.Do(func() { v.a.shape = adaptive.NewShape(v.a.problem, v.a.part) })
	return v.a.shape
}

// PerComponent returns s unchanged: the coordinator itself decomposes the
// assembled problem by connected components and hands each one to the
// solver — which for the adaptive dispatcher means per-component lane
// selection — so no core.Sharded wrapping is ever needed.
func (v view) PerComponent(s core.Solver, required bool) core.Solver { return s }

func (v view) Solve(ctx context.Context, solver core.Solver, opts *core.SolveOptions) (*core.Result, *serve.CoordinatorInfo, error) {
	c, a := v.c, v.a
	info := &serve.CoordinatorInfo{
		EscalatedComponents: a.nEscalated,
		InteriorComponents:  a.nInterior,
		CrossShardPairs:     a.crossPairs,
		AssemblyReused:      v.reused,
	}
	c.escalated.Add(uint64(a.nEscalated))
	c.interior.Add(uint64(a.nInterior))

	res, err := c.solveAssembled(ctx, a, solver, opts)
	if res != nil && c.checkConsistency(a, res) > 0 {
		c.consistencyFailures.Add(1)
	}
	return res, info, err
}

// solveAssembled is the core.Sharded.Solve body over a precomputed
// partition.
func (c *Cluster) solveAssembled(ctx context.Context, a *assembled, solver core.Solver, opts *core.SolveOptions) (*core.Result, error) {
	p, part := a.problem, a.part
	if part.Len() <= 1 {
		res, err := solver.Solve(ctx, p, opts)
		if res != nil {
			res.Stats.Components = part.Len()
			res.Stats.MaxComponentPairs = part.MaxPairs()
		}
		return res, err
	}
	src := opts.Rand()
	seeds := make([]int64, part.Len())
	for i := range seeds {
		seeds[i] = src.Int63()
	}
	var seedStates map[model.TaskID]*objective.TaskState
	var progress func(core.Stage)
	if opts != nil {
		seedStates = opts.SeedStates
		progress = opts.Progress
	}
	sel := make([]bool, part.Len())
	css := make([]map[model.TaskID]*objective.TaskState, part.Len())
	for i := range sel {
		sel[i] = true
		css[i] = core.ComponentSeedStates(seedStates, &part.Components[i])
	}
	results, errs := core.SolveComponents(ctx, solver, p, part.Components, sel,
		seeds, css, 0, progress)
	res := core.MergeComponentResults(p, results)
	res.Stats.Components = part.Len()
	res.Stats.MaxComponentPairs = part.MaxPairs()
	return res, core.CombineComponentErrors(errs)
}

// checkConsistency verifies the solve's cluster-level invariants against
// the assembled problem: every assigned (worker, task) pair must be a
// valid global pair. Returns the number of violations (0 in any correct
// run; surfaced through /v1/stats as consistency_failures, the smoke
// test's tripwire).
func (c *Cluster) checkConsistency(a *assembled, res *core.Result) int {
	if res.Assignment == nil {
		return 0
	}
	bad := 0
	res.Assignment.Workers(func(wid model.WorkerID, tid model.TaskID) {
		for _, pi := range a.problem.WorkerPairs(wid) {
			if a.problem.Pairs[pi].Task == tid {
				return
			}
		}
		bad++
	})
	return bad
}

// Snapshot-plane helpers.

func versionsEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func totalPairs(snaps []*engine.Snapshot) int {
	n := 0
	for _, s := range snaps {
		n += len(s.Problem.Pairs)
	}
	return n
}
