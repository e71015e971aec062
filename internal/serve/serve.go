// Package serve is the repository's one HTTP layer: the /v1 mux, the
// mutation, solve, assignment, stats and healthz handlers, the solve
// cache, the adaptive SLO controller wiring and the listener lifecycle. It
// is written against the small Backend interface (backend.go) and does not
// know how state is held behind it. Two state planes implement Backend:
//
//   - EngineBackend (engine.go), the single-engine plane. An engine is not
//     safe for concurrent use, so a single-writer apply loop
//     (internal/applyloop) owns it. Mutations arrive through a bounded
//     queue, are drained in batches, coalesced (only the last mutation per
//     entity touches the grid index) and applied through Engine.ApplyBatch
//     under one version bump, so the valid pairs are re-derived at most
//     once per batch. After each batch the loop publishes a fresh
//     engine.Snapshot through an atomic pointer, and that snapshot is the
//     view solves pin.
//
//   - cluster.Cluster (internal/cluster), N spatially tiled engines, each
//     behind its own apply loop, whose view is the coordinator's assembled
//     global problem.
//
// Either way solve and read requests never touch an engine: they pin the
// backend's current view and run against its immutable problem. A solve
// that started before a batch keeps its view for its whole run (engines
// replace, never edit, prepared problems), so it can never observe a
// half-applied batch — snapshot isolation by copy-on-write hand-off.
//
// Backpressure is explicit: when a mutation queue is full, enqueues fail
// and the handler answers 429 Too Many Requests. Every solve runs under a
// per-request deadline mapped to its context; when the deadline expires
// the solver's best-so-far partial assignment is returned, flagged as
// partial. Shutdown stops the listener first, then has the backend close
// intake and drain, so every accepted mutation is applied.
//
// See handlers.go for the HTTP/JSON surface (POST/DELETE /v1/tasks and
// /v1/workers, POST /v1/solve, GET /v1/assignment, GET /v1/stats,
// /healthz) and cmd/rdbsc-server for the binary.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rdbsc/internal/adaptive"
	"rdbsc/internal/applyloop"
	"rdbsc/internal/core"
)

// Config parameterizes a Server.
type Config struct {
	// Backend is the state plane the server fronts. Required. The server
	// owns it from here on: Shutdown drains and closes it.
	Backend Backend
	// SolverName selects the default solver for /v1/solve requests that
	// name none, resolved through the core registry per request (solver
	// instances are not shared across concurrent solves). Default "dc".
	SolverName string
	// SolveTimeout is both the default and the upper bound for per-request
	// solve deadlines (requests may ask for less via timeout_ms, never
	// more). Default 30s.
	SolveTimeout time.Duration
	// SolveCache is the capacity of the cross-request solve cache: completed
	// solves are cached under (view state, solver, seed) and replayed
	// verbatim while the backend's state has not moved. Versions only move
	// forward, so a cached answer is always bit-identical to re-solving.
	// Default 0 (disabled).
	SolveCache int
	// Adaptive enables the latency-SLO solve tier (internal/adaptive):
	// /v1/solve requests that name no explicit solver are routed per
	// connected component to a lane picked to fit SLOp99, and over-budget
	// load degrades to the cached last assignment (stamped "stale_ms")
	// before shedding with 429. Off by default — the solve path is then
	// byte-identical to the fixed-solver server. Requests naming a solver
	// always bypass the adaptive tier.
	Adaptive bool
	// SLOp99 is the solve-latency p99 budget the adaptive controller plans
	// against. Only meaningful with Adaptive; default 50ms.
	SLOp99 time.Duration
	// MaxStale bounds how old a degraded (stale-served) assignment may be;
	// past it the request is shed with 429 instead. Only meaningful with
	// Adaptive; default 5s.
	MaxStale time.Duration
}

func (c Config) withDefaults() Config {
	if c.SolverName == "" {
		c.SolverName = "dc"
	}
	if c.SolveTimeout <= 0 {
		c.SolveTimeout = 30 * time.Second
	}
	if c.Adaptive {
		if c.SLOp99 <= 0 {
			c.SLOp99 = 50 * time.Millisecond
		}
		if c.MaxStale <= 0 {
			c.MaxStale = 5 * time.Second
		}
	}
	return c
}

// Server is the assignment service's HTTP front end. Construct with New,
// expose Handler under a custom http.Server or call Serve, and stop with
// Shutdown.
type Server struct {
	cfg     Config
	backend Backend
	mux     *http.ServeMux

	mu      sync.Mutex // guards closing and http against Shutdown races
	closing bool
	http    *http.Server

	lastRes atomic.Pointer[SolveResponse] // most recent completed solve
	cache   *SolveCache                   // nil when Config.SolveCache == 0
	adapt   *adaptive.Controller          // nil when Config.Adaptive is off
	probing atomic.Bool                   // an over-budget adaptive request is solving as the probe

	started time.Time
	counters
}

// counters are the solve-plane diagnostics behind /v1/stats (the state
// plane's counters come from Backend.Stats). The core.Stats aggregate
// needs a mutex (it is a struct fold, not a counter).
type counters struct {
	solves      atomic.Uint64 // /v1/solve requests that ran a solver
	solveErrors atomic.Uint64 // solves that ended in a terminal error
	partials    atomic.Uint64 // solves interrupted by their deadline

	statsMu    sync.Mutex
	solveStats core.Stats // cumulative per-solve diagnostics

	// solveLatMS is a ring of recent solve latencies (completed and partial
	// solves), summarized into /v1/stats' solve_latency_ms quantiles as
	// timed by the server, from solver start to solver return.
	solveLatMS [1024]float64
	latN       int // total recorded (ring index = latN % len)
}

// recordSolve folds one answered solve into the cumulative solver stats
// and the latency ring.
func (c *counters) recordSolve(st core.Stats, ms float64) {
	c.statsMu.Lock()
	c.solveStats = c.solveStats.Add(st)
	c.solveLatMS[c.latN%len(c.solveLatMS)] = ms
	c.latN++
	c.statsMu.Unlock()
}

// solveSample copies the cumulative solver stats and the recorded
// latencies out.
func (c *counters) solveSample() (core.Stats, []float64) {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	n := min(c.latN, len(c.solveLatMS))
	return c.solveStats, append([]float64(nil), c.solveLatMS[:n]...)
}

// quantiles summarizes a latency sample in milliseconds.
type quantiles struct {
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
}

// summarize computes nearest-rank quantiles over the sample (which it does
// not modify). A nil or empty sample yields the zero quantiles.
func summarize(ms []float64) quantiles {
	if len(ms) == 0 {
		return quantiles{}
	}
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	rank := func(q float64) float64 {
		return s[max(int(math.Ceil(q*float64(len(s))))-1, 0)]
	}
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return quantiles{
		P50:  rank(0.50),
		P95:  rank(0.95),
		P99:  rank(0.99),
		Mean: sum / float64(len(s)),
		Max:  s[len(s)-1],
	}
}

// New validates the configuration and returns the server over cfg.Backend.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Backend == nil {
		return nil, errors.New("serve: Config.Backend is required")
	}
	if _, err := core.NewByName(cfg.SolverName); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	s := &Server{
		cfg:     cfg,
		backend: cfg.Backend,
		cache:   NewSolveCache(cfg.SolveCache),
		started: time.Now(),
	}
	if cfg.Adaptive {
		s.adapt = adaptive.New(adaptive.Config{Budget: cfg.SLOp99, MaxStale: cfg.MaxStale})
	}
	s.mux = s.routes()
	return s, nil
}

// Handler returns the server's HTTP handler, for mounting under a custom
// http.Server or a test server.
func (s *Server) Handler() http.Handler { return s.mux }

// Serve serves the handler on an already-bound listener (so callers know
// the resolved address, e.g. -addr :0, before serving starts) until
// Shutdown, which returns http.ErrServerClosed here, or a listener error.
func (s *Server) Serve(ln net.Listener) error {
	hs := &http.Server{Handler: s.mux, ReadHeaderTimeout: 10 * time.Second}
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return applyloop.ErrClosed
	}
	s.http = hs
	s.mu.Unlock()
	return hs.Serve(ln)
}

// Shutdown stops the server gracefully: the embedded HTTP server (if Serve
// was used) stops accepting and waits for in-flight handlers — including
// those blocked on their batch's application — and then the backend
// rejects new mutations (503), applies every queued one and closes its
// stores. ctx bounds the wait.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closing = true
	hs := s.http
	s.mu.Unlock()

	var err error
	if hs != nil {
		err = hs.Shutdown(ctx)
	}
	return errors.Join(err, s.backend.Shutdown(ctx))
}
