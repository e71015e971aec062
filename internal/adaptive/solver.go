package adaptive

import (
	"context"
	"errors"
	"sync"
	"time"

	"rdbsc/internal/core"
	"rdbsc/internal/hardness"
)

// Solver is the lane-dispatching core.Solver: each Solve call scores the
// problem it is handed (hardness.Score), asks the shared Controller for a
// lane, runs the lane's solver, and feeds the observed latency back. Wrap
// it in core.NewSharded to get per-component dispatch — the Sharded
// wrapper calls the inner solver once per connected component, so each
// component is routed to its own lane; a single-component problem reaches
// Solve whole and is routed as one.
//
// A Solver instance is cheap and scoped to one request (it accumulates the
// request's per-lane solve counts for the response); the Controller behind
// it is shared across requests and carries all learned state. Safe for
// concurrent use within the request (component solves run concurrently
// under Sharded's pool).
type Solver struct {
	ctrl *Controller

	mu    sync.Mutex
	lanes [numLanes]int
}

// NewSolver returns a per-request dispatcher over the shared controller.
func NewSolver(ctrl *Controller) *Solver { return &Solver{ctrl: ctrl} }

// Name implements core.Solver.
func (s *Solver) Name() string { return "ADAPTIVE" }

// laneSolver builds the fresh inner solver for one decision. Greedy is the
// registry's "greedy" (per-pair cache of Δ-bounds and exact Δ, keyed on
// the task state's version); sampling runs in parallel mode under the
// decision's round cap — both deterministic for a fixed seed.
func (s *Solver) laneSolver(d Decision) core.Solver {
	switch d.Lane {
	case LaneExhaustive:
		return &core.Exhaustive{MaxAssignments: s.ctrl.ExhaustivePop()}
	case LaneSampling:
		return &core.Sampling{FixedK: d.SampleCap, Parallel: true}
	default:
		return core.NewGreedy()
	}
}

// Solve implements core.Solver: plan, run, observe. An exhaustive-lane
// refusal (core.ErrPopulationTooLarge — the population estimate and the
// enumerator's exact count can disagree on saturation) falls back to the
// greedy lane rather than failing the request; the exhaustive oracle
// consumes no randomness before refusing, so the fallback sees the exact
// random stream the greedy lane would have seen first.
func (s *Solver) Solve(ctx context.Context, p *core.Problem, opts *core.SolveOptions) (*core.Result, error) {
	if len(p.Pairs) == 0 {
		// Nothing to assign; run the greedy lane's trivial no-op so the
		// result shape (empty assignment, zeroed stats) stays uniform.
		return s.laneSolver(Decision{Lane: LaneGreedy}).Solve(ctx, p, opts)
	}
	diff := hardness.Score(p)
	d := s.ctrl.Plan(diff.Pairs, diff.LnPopulation)
	start := time.Now()
	res, err := s.laneSolver(d).Solve(ctx, p, opts)
	if d.Lane == LaneExhaustive && errors.Is(err, core.ErrPopulationTooLarge) {
		s.ctrl.NoteFallback()
		d = Decision{Lane: LaneGreedy}
		res, err = s.laneSolver(d).Solve(ctx, p, opts)
	}
	s.ctrl.Observe(d, diff.Pairs, time.Since(start))
	s.mu.Lock()
	s.lanes[d.Lane]++
	s.mu.Unlock()
	return res, err
}

// LaneCounts returns how many component solves this request ran per lane,
// keyed by lane label — the response's "lanes" field. Lanes with zero
// solves are omitted.
func (s *Solver) LaneCounts() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int, numLanes)
	for l := Lane(0); l < numLanes; l++ {
		if s.lanes[l] > 0 {
			out[l.String()] = s.lanes[l]
		}
	}
	return out
}
