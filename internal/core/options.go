package core

import (
	"context"
	"errors"
	"fmt"

	"rdbsc/internal/model"
	"rdbsc/internal/objective"
	"rdbsc/internal/rng"
)

// ErrInterrupted is returned (wrapped) by every solver when its context is
// cancelled or its deadline expires. The accompanying *Result is never nil:
// it carries the best assignment found before the interruption (possibly
// empty), already evaluated, so callers can use partial answers from
// long-running solves. Use errors.Is(err, ErrInterrupted) to detect it; the
// context's cause (context.Canceled or context.DeadlineExceeded) is also in
// the wrap chain.
var ErrInterrupted = errors.New("solve interrupted")

// ErrInfeasible is returned by the facade layers (rdbsc.Solve, Engine.Solve)
// when the selected solver produces no feasible assignment — no worker can
// reach any task in time. The solver-level contract still returns an empty
// assignment without error, since emptiness is a valid answer for degenerate
// subproblems (D&C leaves, empty churn rounds).
var ErrInfeasible = errors.New("no feasible assignment")

// ErrPopulationTooLarge is returned by Exhaustive.Solve when the assignment
// population exceeds its cap; check Exhaustive.CanSolve first.
var ErrPopulationTooLarge = errors.New("exhaustive population exceeds cap")

// Stage is one progress report from a running solver, emitted through
// SolveOptions.Progress at iteration boundaries — one greedy round, one
// sampling draw, one D&C leaf or merge, one exhaustive enumeration chunk.
type Stage struct {
	// Solver is the reporting solver's Name().
	Solver string
	// Round is the 1-based iteration count: greedy rounds, samples drawn,
	// D&C leaves solved, exhaustive assignments enumerated.
	Round int
	// Total is the number of iterations known in advance (sampling's K,
	// exhaustive's population); 0 when the count is open-ended.
	Total int
	// Assigned is the number of workers assigned so far, where the solver
	// builds its answer incrementally (greedy, D&C merges).
	Assigned int
	// Stats is a snapshot of the cumulative diagnostics.
	Stats Stats
}

// SolveOptions configures one Solve call. The zero value (and a nil pointer)
// are valid: seed 1, no progress reporting, no seeded states.
type SolveOptions struct {
	// Seed seeds the solver's randomness. The zero value means "default"
	// and selects seed 1; to run the literal seed-0 stream, set Source to
	// rng.New(0) instead. Ignored when Source is set.
	Seed int64
	// Source supplies the solver's randomness directly, overriding Seed.
	// Use it to chain solves off one reproducible stream (src.Split()).
	Source *rng.Source
	// Progress, when non-nil, receives a Stage at every iteration boundary.
	// It is invoked synchronously from the solving goroutine and must be
	// fast; it is never invoked concurrently.
	Progress func(Stage)
	// SeedStates carries committed per-task contributions — workers already
	// travelling, answers already received — that must shape the
	// Δ-objective of every new pair (the incremental updating strategy of
	// Figure 10, line 6). Workers appearing in the seeded states are
	// excluded from assignment, and the returned assignment contains only
	// newly assigned workers. Honored by Greedy; the other solvers assign
	// from scratch and ignore it, as in the paper's experiments.
	SeedStates map[model.TaskID]*objective.TaskState
}

// source materializes the options' random source.
func (o *SolveOptions) source() *rng.Source {
	if o == nil {
		return rng.New(1)
	}
	if o.Source != nil {
		return o.Source
	}
	seed := o.Seed
	if seed == 0 {
		seed = 1
	}
	return rng.New(seed)
}

// Rand materializes the options' random source — the same stream a solver
// receiving these options would draw from (Source verbatim when set, else a
// source seeded by Seed with the zero-means-1 default). Wrappers that stand
// in front of a solver (the sharded decomposition, the engine's
// per-component cache) use it to derive sub-streams deterministically.
func (o *SolveOptions) Rand() *rng.Source { return o.source() }

// emit forwards a progress stage when a callback is configured.
func (o *SolveOptions) emit(st Stage) {
	if o != nil && o.Progress != nil {
		o.Progress(st)
	}
}

// seedStates returns the configured seeded states (nil-safe).
func (o *SolveOptions) seedStates() map[model.TaskID]*objective.TaskState {
	if o == nil {
		return nil
	}
	return o.SeedStates
}

// SeededWorkerCount returns the number of committed workers carried by
// SeedStates (0 for nil options or empty seeds). Facade layers use it to
// tell a genuinely infeasible solve from one where every worker was already
// committed, so an empty *new* assignment is the correct answer.
func (o *SolveOptions) SeededWorkerCount() int {
	if o == nil {
		return 0
	}
	n := 0
	for _, st := range o.SeedStates {
		if st != nil {
			n += st.Len()
		}
	}
	return n
}

// interrupted builds the error a solver returns alongside its partial
// result when ctx is done.
func interrupted(ctx context.Context) error {
	return fmt.Errorf("%w: %w", ErrInterrupted, context.Cause(ctx))
}

// IsTerminal reports whether a solve error should stop a driver loop:
// anything other than the benign ErrInfeasible (an empty round) and
// ErrInterrupted (context wind-down, already visible to the loop via its
// own ctx). The periodic-round drivers (stream, platform) use this to
// decide between skipping a round and aborting the run.
func IsTerminal(err error) bool {
	return err != nil && !errors.Is(err, ErrInfeasible) && !errors.Is(err, ErrInterrupted)
}
