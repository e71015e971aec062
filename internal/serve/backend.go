package serve

import (
	"context"

	"rdbsc/internal/adaptive"
	"rdbsc/internal/applyloop"
	"rdbsc/internal/core"
	"rdbsc/internal/engine"
)

// Backend is the state plane the HTTP layer serves: it owns the engines,
// their single-writer apply loops and their durability, and hands the
// handlers nothing but acknowledgements, immutable views and counters. Two
// implementations exist — *EngineBackend (one engine, the published
// snapshot is the view) and *cluster.Cluster (N spatial shards, the view is
// the coordinator's assembled global problem) — and tests substitute fakes.
type Backend interface {
	// Enqueue hands one mutation to the state plane, failing fast with
	// applyloop.ErrQueueFull (HTTP 429) or applyloop.ErrClosed (503). reply,
	// when non-nil, must be buffered; it receives the mutation's Ack once its
	// batch was logged and applied.
	Enqueue(mut engine.Mutation, reply chan<- applyloop.Ack) error
	// View pins the current state for one solve request. Batches applied
	// afterwards publish new views and never touch a pinned one.
	View() View
	// Stats reports the state-plane counters behind /v1/stats and /healthz.
	Stats() StateStats
	// Shutdown closes intake, applies every accepted mutation and closes the
	// stores. ctx bounds the wait.
	Shutdown(ctx context.Context) error
}

// View is one immutable state of a Backend.
type View interface {
	// State identifies the view exactly: the version of every apply loop
	// behind it, in a fixed order, plus the routing generation (bumped when
	// an entity changes loops without either version showing it; always 0 on
	// a single engine). Equal State means an identical problem, which is what
	// makes the solve cache zero-staleness. The versions sum to the
	// aggregate version clients see.
	State() (versions []uint64, routeGen uint64)
	// Shape is the component histogram the adaptive controller plans
	// against, computed on first use and memoised on the view.
	Shape() *adaptive.Shape
	// PerComponent returns the solver to pass to Solve so that s runs once
	// per connected component when this backend decomposes solves — always
	// when required is true (the adaptive dispatcher picks a lane per
	// component). The result's Name is the one responses and cache keys use.
	PerComponent(s core.Solver, required bool) core.Solver
	// Solve runs solver over the pinned problem. A core.ErrInterrupted
	// error comes with the best partial result. The CoordinatorInfo is nil
	// unless a coordinator assembled the view from several shards.
	Solve(ctx context.Context, solver core.Solver, opts *core.SolveOptions) (*core.Result, *CoordinatorInfo, error)
}

// CoordinatorInfo is the shape of one cross-shard solve. Embedded by
// pointer in SolveResponse, so its fields appear (always, zero or not) in
// sharded answers and not at all in single-engine ones.
type CoordinatorInfo struct {
	EscalatedComponents int  `json:"escalated_components"`
	InteriorComponents  int  `json:"interior_components"`
	CrossShardPairs     int  `json:"cross_shard_pairs"`
	AssemblyReused      bool `json:"assembly_reused"`
}

// StateStats is a Backend's report for /v1/stats: one row per apply loop,
// which the handler sums into the top-level fields.
type StateStats struct {
	Beta float64
	// Pairs is the global valid-pair count. It is not the row sum: rows
	// cannot see the pairs that cross shards.
	Pairs int
	Rows  []StateRow
	// Coordinator is a sharded backend's own block, rendered verbatim as
	// "cluster" next to the per-row "shards" breakdown. nil means a single
	// engine: no breakdown, and retrieve_ms is reported at the top level.
	Coordinator any
}

// StateRow is one apply loop's state-plane counters (one "shards" row).
type StateRow struct {
	Shard             int     `json:"shard"`
	Version           uint64  `json:"version"`
	Tasks             int     `json:"tasks"`
	Workers           int     `json:"workers"`
	Pairs             int     `json:"pairs"`
	QueueLen          int     `json:"queue_len"`
	QueueCap          int     `json:"queue_cap"`
	Enqueued          uint64  `json:"mutations_enqueued"`
	Applied           uint64  `json:"mutations_applied"`
	Coalesced         uint64  `json:"mutations_coalesced"`
	Batches           uint64  `json:"batches"`
	Rebuilds          uint64  `json:"rebuilds"`
	RetrieveMS        float64 `json:"retrieve_ms"`
	RejectedQueueFull uint64  `json:"rejected_queue_full"`

	Durability DurabilityJSON `json:"durability"`
}
