// Package rdbsc is a Go implementation of Reliable Diversity-Based Spatial
// Crowdsourcing (RDB-SC) from "Reliable Diversity-Based Spatial
// Crowdsourcing by Moving Workers" (Cheng et al., PVLDB 8(10), VLDB 2015).
//
// RDB-SC assigns dynamically moving workers to time-constrained spatial
// tasks so that (1) the minimum task reliability — the probability that at
// least one assigned worker completes each task — and (2) the total
// expected spatial/temporal diversity of the collected answers are both
// maximized. The problem is NP-hard; this package exposes the paper's three
// approximation algorithms (greedy, sampling, divide-and-conquer), the
// polynomial expected-diversity computation, the cost-model-based
// RDB-SC-Grid spatial index, workload generators, and a platform simulator
// for incremental (periodic) reassignment.
//
// # Quick start (v2 API)
//
// Solvers are selected by name through the registry, and every solve is
// context-aware — cancel the context or let its deadline expire and the
// solver returns its best partial assignment with ErrInterrupted:
//
//	in := rdbsc.GenerateWorkload(rdbsc.DefaultWorkload().WithScale(100, 200))
//	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
//	defer cancel()
//	res, err := rdbsc.Solve(ctx, in,
//		rdbsc.WithSolverName("dc"), // or WithSolver(rdbsc.NewDC())
//		rdbsc.WithSeed(42),
//		rdbsc.WithProgress(func(st rdbsc.Stage) { log.Println(st.Solver, st.Round) }),
//	)
//	switch {
//	case errors.Is(err, rdbsc.ErrInterrupted):
//		// res holds the best assignment found before the deadline.
//	case errors.Is(err, rdbsc.ErrInfeasible):
//		// no worker can reach any task in time.
//	case err != nil:
//		// invalid instance or unknown solver name.
//	}
//	fmt.Println(res.Eval.MinRel, res.Eval.TotalESTD)
//
// For repeated solves over a churning task/worker set — the shape of a
// long-running assignment service — use an Engine, which owns the prepared
// problem and its grid index and re-derives valid pairs incrementally:
//
//	eng := rdbsc.NewEngineFromInstance(in, rdbsc.EngineConfig{})
//	res, err := eng.Solve(ctx, &rdbsc.SolveOptions{Seed: 42})
//	eng.UpsertWorker(w)      // churn: workers move, tasks open and expire
//	eng.RemoveTask(taskID)
//	res, err = eng.Solve(ctx, nil) // incremental re-solve
//
// # Performance knobs
//
// The greedy solver memoises each pair's Δ-diversity bounds and exact Δ
// across rounds under its task state's version, so only the previously
// assigned task's pairs are recomputed. The memo changes cost only — the
// assignment is bit-identical to the per-round full recomputation:
//
//	rdbsc.NewGreedy()           // incremental (default; registry name "greedy")
//	&rdbsc.Greedy{Prune: true}  // per-round full recompute, the test oracle
//
// Result.Stats reports BoundsComputed/BoundsReused and PairsEvaluated
// (exact Δs computed, memo hits excluded), the before/after of the
// incremental cache.
//
// # Sharded solving (connected-component decomposition)
//
// The objective aggregates per-task reliability with a min and per-task
// diversity with a sum, so the problem decomposes exactly over the
// connected components of the task-worker reachability graph. NewSharded
// (or "sharded-" before any registered name: "sharded-greedy",
// "sharded-dc", …) solves the components concurrently under a
// GOMAXPROCS-bounded pool and merges the per-component results;
// single-component problems pass through to the inner solver
// bit-identically:
//
//	res, _ := rdbsc.Solve(ctx, in, rdbsc.WithSolverName("sharded-greedy"))
//	fmt.Println(res.Stats.Components, res.Stats.MaxComponentPairs)
//
// For churning engines, EngineConfig{Decompose: true} additionally caches
// per-component results across mutations and re-solves only the components
// whose entities, membership, or seeded commitments changed
// (Stats.ComponentsReused counts the cache hits); the stream and platform
// drivers expose the same knob as Config.Decompose. Decomposition is exact
// for min/sum-aggregated objectives only — see MIGRATION.md for the
// precise monolithic-equivalence guarantees (and their limits for
// heuristic tie-breaking on multi-component instances).
//
// β defaults to 0.5 when EngineConfig.Beta is unset; set
// EngineConfig.BetaSet to make an explicit β=0 (temporal diversity only)
// expressible through NewEngine, matching what NewEngineFromInstance
// always honored from its instance.
//
// # The assignment server (rdbsc-server)
//
// An Engine is single-threaded, so cmd/rdbsc-server (package
// internal/serve) wraps it in a concurrent HTTP/JSON service: a
// single-writer apply loop owns the engine and drains a bounded mutation
// queue in batches — coalescing repeated upserts of the same entity and
// applying each batch under one engine version bump — while solve and
// read requests run against immutable snapshots handed off copy-on-write,
// so an in-flight solve never observes a half-applied batch. Endpoints:
// POST/DELETE /v1/tasks and /v1/workers (batched upserts/removals; a full
// queue answers 429), POST /v1/solve (per-request deadline via
// timeout_ms; an expired deadline returns the best partial assignment
// flagged "partial"), GET /v1/assignment (last solve, with staleness
// versions), GET /v1/stats (batching, backpressure, and cumulative solver
// counters), and /healthz. SIGINT/SIGTERM drain the queue before exit.
// See MIGRATION.md for the endpoint reference and batching semantics.
//
// See MIGRATION.md for the v1 → v2 call-site mapping, and the examples/
// directory for runnable scenarios: the landmark photography task of the
// paper's Example 1, the parking-monitoring task of Example 2, and a live
// incremental platform.
package rdbsc

import (
	"context"
	"fmt"

	"rdbsc/internal/aggregate"
	"rdbsc/internal/core"
	"rdbsc/internal/dataset"
	"rdbsc/internal/diversity"
	"rdbsc/internal/engine"
	"rdbsc/internal/gen"
	"rdbsc/internal/geo"
	"rdbsc/internal/grid"
	"rdbsc/internal/model"
	"rdbsc/internal/objective"
	"rdbsc/internal/platform"
	"rdbsc/internal/rng"
)

// Domain model (Section 2 of the paper).
type (
	// Task is a time-constrained spatial task (Definition 1).
	Task = model.Task
	// Worker is a dynamically moving worker (Definition 2).
	Worker = model.Worker
	// TaskID identifies a Task.
	TaskID = model.TaskID
	// WorkerID identifies a Worker.
	WorkerID = model.WorkerID
	// Instance is one RDB-SC problem: tasks, workers, β, options.
	Instance = model.Instance
	// Assignment maps workers to tasks.
	Assignment = model.Assignment
	// Options configures reachability semantics.
	Options = model.Options
	// Pair is a valid task-worker pair with arrival time and ray angle.
	Pair = model.Pair
	// Point is a location in the unit-square data space.
	Point = geo.Point
	// AngInterval is a worker's direction cone [α−, α+].
	AngInterval = geo.AngInterval
)

// Solvers (Sections 4–6).
type (
	// Solver is the common interface of the approximation algorithms: the
	// context-aware v2 contract Solve(ctx, p, opts) (*Result, error).
	Solver = core.Solver
	// SolveOptions configures one Solver.Solve call (seed, progress
	// callback, seeded states).
	SolveOptions = core.SolveOptions
	// Stage is one progress report emitted through SolveOptions.Progress.
	Stage = core.Stage
	// SolverFactory builds a fresh solver for the registry.
	SolverFactory = core.SolverFactory
	// Result bundles an assignment with its evaluation and diagnostics.
	Result = core.Result
	// Problem is a prepared instance (valid pairs indexed).
	Problem = core.Problem
	// Evaluation reports the two objective values of an assignment.
	Evaluation = objective.Evaluation
	// Greedy is the pair-by-pair solver of Section 4.
	Greedy = core.Greedy
	// Sampling is the random-sampling solver of Section 5.
	Sampling = core.Sampling
	// DC is the divide-and-conquer solver of Section 6.
	DC = core.DC
	// Sharded solves each connected component of the reachability graph
	// independently (and concurrently) with its inner solver.
	Sharded = core.Sharded
	// SampleSizeSpec carries the (ε,δ) accuracy target of Section 5.2.
	SampleSizeSpec = core.SampleSizeSpec
)

// Typed errors of the v2 solve contract.
var (
	// ErrInterrupted wraps context cancellation/deadline expiry; the
	// accompanying Result carries the best partial assignment.
	ErrInterrupted = core.ErrInterrupted
	// ErrInfeasible reports that the selected solver produced no feasible
	// assignment (no worker can reach any task in time).
	ErrInfeasible = core.ErrInfeasible
	// ErrPopulationTooLarge reports an exhaustive enumeration over its cap.
	ErrPopulationTooLarge = core.ErrPopulationTooLarge
)

// Register adds a solver factory to the registry under name (plus any
// aliases); names are matched case- and punctuation-insensitively. It
// panics when the name is empty or already taken.
func Register(name string, factory SolverFactory, aliases ...string) {
	core.Register(name, factory, aliases...)
}

// NewSolverByName builds a fresh solver by its registered name ("greedy",
// "sampling", "dc", "gtruth", "exhaustive", or anything added with
// Register), or by "sharded-" followed by one, which wraps it in
// NewSharded. Unknown names return an error listing the registered solvers.
func NewSolverByName(name string) (Solver, error) { return core.NewByName(name) }

// Solvers returns the registered solver names, sorted.
func Solvers() []string { return core.Names() }

// NoTask marks an unassigned worker.
const NoTask = model.NoTask

// NewAssignment returns an empty assignment.
func NewAssignment() *Assignment { return model.NewAssignment() }

// FullCircle is the unconstrained direction cone.
var FullCircle = geo.FullCircle

// Pt constructs a Point.
func Pt(x, y float64) Point { return geo.Pt(x, y) }

// Sector returns the direction cone centered at mid with total width w.
func Sector(mid, w float64) AngInterval { return geo.AngIntervalAround(mid, w) }

// NewGreedy returns the greedy solver with Lemma 4.3 pruning enabled.
func NewGreedy() *Greedy { return core.NewGreedy() }

// NewSampling returns the sampling solver with the paper's default (ε=0.1,
// δ=0.9) sample-size guarantee.
func NewSampling() *Sampling { return core.NewSampling() }

// NewDC returns the divide-and-conquer solver with sampling leaves.
func NewDC() *DC { return core.NewDC() }

// NewSharded wraps a solver in connected-component decomposition: each
// component of the task-worker reachability graph is solved independently
// (concurrently, under a GOMAXPROCS-bounded pool) and the results merge
// exactly — the min/sum objective decomposes over components. Equivalent
// by name: "sharded-greedy", "sharded-sampling", "sharded-dc", ….
func NewSharded(inner Solver) *Sharded { return core.NewSharded(inner) }

// GTruth returns the paper's G-TRUTH reference configuration (D&C with a
// 10× sampling budget).
func GTruth() Solver { return core.GTruth() }

// NewExhaustive returns the exact enumerator for tiny instances.
func NewExhaustive() *core.Exhaustive { return core.NewExhaustive() }

// NewProblem prepares an instance for solving, enumerating valid pairs by
// brute force. Use NewProblemWithIndex to retrieve pairs through the grid.
func NewProblem(in *Instance) *Problem { return core.NewProblem(in) }

// NewProblemWithIndex prepares an instance using the RDB-SC-Grid index for
// valid-pair retrieval.
func NewProblemWithIndex(in *Instance) *Problem {
	g := grid.NewFromInstance(grid.Config{}, in)
	return core.NewProblemWithPairs(in, g.ValidPairs())
}

// solveConfig carries Solve options.
type solveConfig struct {
	solver     Solver
	solverName string
	seed       int64
	useIndex   bool
	progress   func(Stage)
}

// SolveOption customizes Solve.
type SolveOption func(*solveConfig)

// WithSolver selects the algorithm (default: divide-and-conquer).
func WithSolver(s Solver) SolveOption { return func(c *solveConfig) { c.solver = s } }

// WithSolverName selects the algorithm through the solver registry; the
// name is resolved when Solve runs, so an unknown name surfaces as a Solve
// error rather than a construction-time panic.
func WithSolverName(name string) SolveOption {
	return func(c *solveConfig) { c.solverName = name }
}

// WithSeed seeds the solver's randomness (default 1).
func WithSeed(seed int64) SolveOption { return func(c *solveConfig) { c.seed = seed } }

// WithIndex routes valid-pair retrieval through the RDB-SC-Grid index.
func WithIndex() SolveOption { return func(c *solveConfig) { c.useIndex = true } }

// WithProgress streams per-round solver progress to fn (see Stage). fn is
// invoked synchronously from the solving goroutine and must be fast.
func WithProgress(fn func(Stage)) SolveOption {
	return func(c *solveConfig) { c.progress = fn }
}

// Solve validates the instance, prepares it, and runs the selected solver
// under ctx.
//
// On cancellation or deadline expiry the best partial result found so far
// is returned together with an error wrapping ErrInterrupted. When the
// solver completes but assigns no worker, Solve returns the evaluated empty
// result with ErrInfeasible, so the two objective values are still
// readable but the infeasibility cannot be silently ignored.
func Solve(ctx context.Context, in *Instance, opts ...SolveOption) (*Result, error) {
	cfg := solveConfig{seed: 1}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.solver == nil {
		if cfg.solverName != "" {
			s, err := core.NewByName(cfg.solverName)
			if err != nil {
				return nil, fmt.Errorf("rdbsc: %w", err)
			}
			cfg.solver = s
		} else {
			cfg.solver = core.NewDC()
		}
	}
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("rdbsc: %w", err)
	}
	var p *Problem
	if cfg.useIndex {
		p = NewProblemWithIndex(in)
	} else {
		p = core.NewProblem(in)
	}
	// An explicit Source (not Seed) so WithSeed(0) runs the literal seed-0
	// stream, as it did in v1.
	res, err := cfg.solver.Solve(ctx, p, &core.SolveOptions{
		Source:   rng.New(cfg.seed),
		Progress: cfg.progress,
	})
	if err != nil {
		return res, fmt.Errorf("rdbsc: %w", err)
	}
	if res.Assignment.Len() == 0 {
		return res, fmt.Errorf("rdbsc: %w", ErrInfeasible)
	}
	return res, nil
}

// Engine owns a live task/worker set, its RDB-SC-Grid index, and a cached
// prepared problem, supporting repeated solves and incremental re-solve
// after churn. See NewEngine and NewEngineFromInstance.
type Engine = engine.Engine

// EngineConfig parameterizes an Engine (β, reachability options, solver,
// index settings). The zero value means β=0.5, the D&C solver, and
// index-backed pair retrieval.
type EngineConfig = engine.Config

// NewEngine returns an empty engine; feed it with UpsertTask/UpsertWorker.
func NewEngine(cfg EngineConfig) *Engine { return engine.New(cfg) }

// NewEngineFromInstance returns an engine pre-loaded with the instance's
// tasks and workers, with the grid cell size derived from the instance's
// cost model.
func NewEngineFromInstance(in *Instance, cfg EngineConfig) *Engine {
	return engine.NewFromInstance(in, cfg)
}

// Evaluate computes the two objective values of an assignment.
func Evaluate(in *Instance, a *Assignment) Evaluation {
	return objective.Evaluate(in, a)
}

// Reliability returns 1 − Π(1−p) for a set of worker confidences (Eq. 1).
func Reliability(confidences []float64) float64 { return objective.Rel(confidences) }

// ExpectedSTD computes the expected spatial/temporal diversity of one
// task's worker set under possible-worlds semantics (Lemma 3.1): the
// workers' ray angles, arrival times, and confidences are given as parallel
// slices, with the task's valid period [start, end].
func ExpectedSTD(beta float64, angles, arrivals, confidences []float64, start, end float64) float64 {
	return diversity.ExpectedSTD(beta, angles, arrivals, confidences, start, end)
}

// STD computes the realized (deterministic) spatial/temporal diversity of
// answers actually collected (Eqs. 3–5).
func STD(beta float64, angles, times []float64, start, end float64) float64 {
	return diversity.STD(beta, angles, times, start, end)
}

// Workload generation (Section 8.1 / Table 2).
type (
	// WorkloadConfig mirrors Table 2's experimental parameters.
	WorkloadConfig = gen.Config
	// RealWorkloadConfig assembles the real-data-substitute workload.
	RealWorkloadConfig = gen.RealConfig
	// POIConfig parameterizes the Beijing-like POI generator.
	POIConfig = gen.POIConfig
	// TrajectoryConfig parameterizes the T-Drive-like taxi simulator.
	TrajectoryConfig = gen.TrajectoryConfig
)

// Distribution choices for synthetic workloads.
const (
	Uniform = gen.Uniform
	Skewed  = gen.Skewed
)

// DefaultWorkload returns Table 2's defaults at bench scale.
func DefaultWorkload() WorkloadConfig { return gen.Default() }

// GenerateWorkload draws a synthetic instance.
func GenerateWorkload(cfg WorkloadConfig) *Instance { return gen.Generate(cfg) }

// GenerateDenseWorkload draws a synthetic instance with task windows and
// worker check-ins clustered near time zero, keeping small instances well
// connected.
func GenerateDenseWorkload(cfg WorkloadConfig) *Instance { return gen.GenerateDense(cfg) }

// GenerateRealWorkload draws the real-data-substitute instance (clustered
// POIs as tasks, simulated taxi trajectories as workers).
func GenerateRealWorkload(cfg RealWorkloadConfig) *Instance { return gen.GenerateReal(cfg) }

// Spatial index (Section 7).
type (
	// Grid is the cost-model-based RDB-SC-Grid index.
	Grid = grid.Grid
	// GridConfig configures the index.
	GridConfig = grid.Config
)

// NewGrid builds the index for an instance, deriving the cell size from
// the cost model when cfg.Eta is zero.
func NewGrid(cfg GridConfig, in *Instance) *Grid { return grid.NewFromInstance(cfg, in) }

// Workload persistence (CSV, the rdbsc-gen / rdbsc-solve interchange
// format).

// SaveWorkload writes <prefix>_tasks.csv and <prefix>_workers.csv.
func SaveWorkload(prefix string, in *Instance) error {
	return dataset.SaveInstance(prefix, in)
}

// LoadWorkload reads a saved workload, attaching the given β.
func LoadWorkload(prefix string, beta float64) (*Instance, error) {
	return dataset.LoadInstance(prefix, beta)
}

// Answer aggregation (Section 2.3): group near-duplicate answers and keep
// one representative per group.
type (
	// AggregateItem is one answer to aggregate.
	AggregateItem = aggregate.Item
	// AggregateGroup is one cluster of similar answers.
	AggregateGroup = aggregate.Group
	// AggregateConfig tunes the grouping.
	AggregateConfig = aggregate.Config
)

// AggregateAnswers groups answers with similar (angle, time)
// characteristics under the β-weighted mixed metric.
func AggregateAnswers(items []AggregateItem, cfg AggregateConfig) []AggregateGroup {
	return aggregate.Aggregate(items, cfg)
}

// Platform simulation (Section 8.4).
type (
	// PlatformConfig parameterizes the incremental-update simulator.
	PlatformConfig = platform.Config
	// PlatformMetrics aggregates one simulated run.
	PlatformMetrics = platform.Metrics
	// Answer is one completed task answer.
	Answer = platform.Answer
)

// SimulatePlatform runs the gMission-substitute simulation with the
// incremental updating strategy of Figure 10.
func SimulatePlatform(cfg PlatformConfig) PlatformMetrics {
	return platform.New(cfg).Run()
}
