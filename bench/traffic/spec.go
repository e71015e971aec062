// Package traffic turns a seed into everything a benchmark workload sends:
// the population the server is preloaded with, the mutation stream the M
// connection replays, and the solve requests of the S connection. The end
// to end harness and every layer probe under bench/layers call the same
// generators, which is what makes the traced replay the exact request
// stream of the untraced run.
//
// Only internal/workload, internal/rng, internal/model (and the geo types
// model is built from) are imported: the wire encoding below is the
// benchmark's own, so a later change to the server's internal JSON types
// cannot silently change what the benchmark sends.
package traffic

import "time"

// Spec is one workload: which server it runs against, what it preloads,
// and the shape of its two request classes. Every value is a frozen
// constant (calibrated once on the commit that introduced the benchmark,
// see bench/README.md); nothing here is derived at run time.
type Spec struct {
	// Name is the workload's name in BENCHMARK.json, which also holds the
	// one-line reason it exists.
	Name string

	// Scenario, M and N select the internal/workload generator and its
	// scale.
	Scenario string
	M, N     int

	// Shards is the server's -shards (1 = single engine), SLOp99 its
	// -slo-p99 (0 = no adaptive tier), Durable whether it gets a -data-dir.
	// ServerFlags are the rest, passed verbatim; the harness adds -addr,
	// -wait and -beta.
	Shards      int
	SLOp99      time.Duration
	Durable     bool
	ServerFlags []string

	// Solver is named in every /v1/solve body ("" = the server default,
	// which with SLOp99 set means the SLO tier picks the lane).
	Solver string
	// WarmSolver, when set, is named by the set-up phase's three warm
	// solves in place of Solver.
	WarmSolver string
	// ProbeSolvers are the registry names the core probe times on the
	// replayed states: the solver(s) this workload's solves actually run.
	ProbeSolvers []string

	// MutMajor / SolveMajor mark the classes that run closed-loop in the
	// capacity phase; a minor class keeps its paced schedule there.
	MutMajor, SolveMajor bool
	// MutEvery / SolveEvery are the paced (open-loop) intervals. Mutation
	// k is due at (k+½)·MutEvery and solve i at i·SolveEvery, so the two
	// schedules never tie.
	MutEvery, SolveEvery time.Duration

	// Batch is the number of workers per position-update request; 0 means
	// the churn trace is replayed one entity per request.
	Batch int
	// Dt is the simulated time (hours) a worker moves per update: its
	// step is speed·Dt along a heading drawn in its direction cone.
	Dt float64
	// MoveEvery makes only every MoveEvery-th update request move its
	// workers; the others re-report unchanged positions (a heartbeat the
	// engine acks without a version bump). 1 moves on every request.
	MoveEvery int
	// SeedCycle, when positive, makes paced solve i use seed 1+(i mod
	// SeedCycle), so solves repeat a (version, seed) and can hit the
	// solve cache. 0 keeps every solve seed unique.
	SeedCycle int
}

// Specs lists the four workloads in presentation order.
func Specs() []Spec {
	return []Spec{
		{
			Name:     "churn-serve",
			Scenario: "churn", M: 120, N: 240,
			ServerFlags:  []string{"-solver", "greedy"},
			Shards:       1,
			ProbeSolvers: []string{"greedy"},
			MutMajor:     true, SolveMajor: true,
			MutEvery: 8 * time.Millisecond, SolveEvery: 100 * time.Millisecond,
			MoveEvery: 1,
		},
		{
			Name:     "moving-cluster-wal",
			Scenario: "uniform", M: 240, N: 480,
			ServerFlags:  []string{"-fsync", "batch", "-snapshot-every", "256", "-solver", "sampling"},
			Durable:      true,
			Shards:       4,
			ProbeSolvers: []string{"sampling"},
			MutMajor:     true,
			MutEvery:     12 * time.Millisecond, SolveEvery: 125 * time.Millisecond,
			Batch: 16, Dt: 0.08, MoveEvery: 1,
		},
		{
			Name:     "islands-solve",
			Scenario: "islands", M: 100, N: 200,
			ServerFlags:  []string{"-solve-cache", "64"},
			Shards:       1,
			Solver:       "sharded-dc",
			ProbeSolvers: []string{"sharded-dc"},
			SolveMajor:   true,
			MutEvery:     62500 * time.Microsecond, SolveEvery: 125 * time.Millisecond,
			Batch: 4, Dt: 0.05, MoveEvery: 16, SeedCycle: 6,
		},
		{
			Name:     "clique-adaptive",
			Scenario: "clique", M: 60, N: 120,
			Shards: 1,
			SLOp99: 50 * time.Millisecond,
			// A cold SLO controller tries greedy once or twice before it has
			// learned better, and which of the two is a coin toss: set-up
			// through the tier took 0.20 s or 0.27 s, half and half.
			WarmSolver:   "sampling",
			ProbeSolvers: []string{"greedy", "sampling"},
			SolveMajor:   true,
			MutEvery:     50 * time.Millisecond, SolveEvery: 70 * time.Millisecond,
			Batch: 4, Dt: 0.01, MoveEvery: 1,
		},
	}
}

// ByName returns the named workload.
func ByName(name string) (Spec, bool) {
	for _, s := range Specs() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}
