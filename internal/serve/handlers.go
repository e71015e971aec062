package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sort"
	"strconv"
	"time"

	"rdbsc/internal/adaptive"
	"rdbsc/internal/applyloop"
	"rdbsc/internal/core"
	"rdbsc/internal/engine"
	"rdbsc/internal/geo"
	"rdbsc/internal/model"
	"rdbsc/internal/store"
)

// routes wires the HTTP/JSON API.
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/tasks", s.handleUpsertTasks)
	mux.HandleFunc("DELETE /v1/tasks/{id}", s.handleRemoveTask)
	mux.HandleFunc("POST /v1/workers", s.handleUpsertWorkers)
	mux.HandleFunc("DELETE /v1/workers/{id}", s.handleRemoveWorker)
	mux.HandleFunc("POST /v1/solve", s.handleSolve)
	mux.HandleFunc("GET /v1/assignment", s.handleAssignment)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// TaskJSON is the wire form of a task, mirroring the dataset CSV columns
// (id,x,y,start,end). It is exported so Go code that speaks the wire form
// (cmd/rdbsc-server's crash harness, bench/'s serve-layer probe) shares
// the schema with the server at compile time instead of duplicating JSON
// tags.
type TaskJSON struct {
	ID    model.TaskID `json:"id"`
	X     float64      `json:"x"`
	Y     float64      `json:"y"`
	Start float64      `json:"start"`
	End   float64      `json:"end"`
}

// NewTaskJSON converts a task to its wire form.
func NewTaskJSON(t model.Task) TaskJSON {
	return TaskJSON{ID: t.ID, X: t.Loc.X, Y: t.Loc.Y, Start: t.Start, End: t.End}
}

// ToModel converts the wire form back to a task.
func (t TaskJSON) ToModel() model.Task {
	return model.Task{ID: t.ID, Loc: geo.Pt(t.X, t.Y), Start: t.Start, End: t.End}
}

// WorkerJSON is the wire form of a worker, mirroring the dataset CSV
// columns (id,x,y,speed,dir_lo,dir_width,confidence,depart); omitting
// dir_width leaves the worker's direction cone unconstrained.
type WorkerJSON struct {
	ID         model.WorkerID `json:"id"`
	X          float64        `json:"x"`
	Y          float64        `json:"y"`
	Speed      float64        `json:"speed"`
	DirLo      float64        `json:"dir_lo"`
	DirWidth   *float64       `json:"dir_width,omitempty"`
	Confidence float64        `json:"confidence"`
	Depart     float64        `json:"depart"`
}

// NewWorkerJSON converts a worker to its wire form (the direction cone is
// always spelled out, even when it is the full circle).
func NewWorkerJSON(w model.Worker) WorkerJSON {
	width := w.Dir.Width
	return WorkerJSON{
		ID: w.ID, X: w.Loc.X, Y: w.Loc.Y, Speed: w.Speed,
		DirLo: w.Dir.Lo, DirWidth: &width,
		Confidence: w.Confidence, Depart: w.Depart,
	}
}

// ToModel converts the wire form back to a worker.
func (w WorkerJSON) ToModel() model.Worker {
	dir := geo.FullCircle
	if w.DirWidth != nil {
		dir = geo.AngInterval{Lo: geo.NormalizeAngle(w.DirLo), Width: *w.DirWidth}
	}
	return model.Worker{
		ID: w.ID, Loc: geo.Pt(w.X, w.Y), Speed: w.Speed,
		Dir: dir, Confidence: w.Confidence, Depart: w.Depart,
	}
}

// DecodeBody reads the request body as either a single T or a JSON array
// of T, capped at 8 MiB.
func DecodeBody[T any](r *http.Request) ([]T, error) {
	body, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, 8<<20))
	if err != nil {
		return nil, err
	}
	body = bytes.TrimSpace(body)
	if len(body) == 0 {
		return nil, errors.New("empty request body")
	}
	if body[0] == '[' {
		var list []T
		if err := json.Unmarshal(body, &list); err != nil {
			return nil, err
		}
		return list, nil
	}
	var one T
	if err := json.Unmarshal(body, &one); err != nil {
		return nil, err
	}
	return []T{one}, nil
}

// enqueueStatus maps an enqueue failure to its status: 503 once the
// backend is shutting down, 429 for a full queue.
func enqueueStatus(err error) int {
	if errors.Is(err, applyloop.ErrClosed) {
		return http.StatusServiceUnavailable
	}
	return http.StatusTooManyRequests
}

// enqueueAndWait queues the mutations and blocks until their batch (or
// batches — a large request may straddle several) applied, reporting the
// aggregate. Backpressure surfaces as 429 with the count already accepted
// (those still apply); a request context that ends first gets 202, since
// the accepted mutations remain queued and will apply.
func (s *Server) enqueueAndWait(w http.ResponseWriter, r *http.Request, muts []engine.Mutation) {
	reply := make(chan applyloop.Ack, len(muts))
	for i, m := range muts {
		if err := s.backend.Enqueue(m, reply); err != nil {
			writeJSON(w, enqueueStatus(err), map[string]any{"error": err.Error(), "enqueued": i})
			return
		}
	}
	var changed, coalesced int
	var version uint64
	var ackErr error
	for n := 0; n < len(muts); n++ {
		select {
		case ack := <-reply:
			if ack.Err != nil {
				ackErr = ack.Err
			}
			if ack.Changed {
				changed++
			}
			if ack.Coalesced {
				coalesced++
			}
			if ack.Version > version {
				version = ack.Version
			}
		case <-r.Context().Done():
			writeJSON(w, http.StatusAccepted, map[string]any{
				"queued": len(muts),
				"note":   "request ended before the batch applied; the mutations remain queued",
			})
			return
		}
	}
	if ackErr != nil {
		// The durability append failed, so the batch was dropped before
		// reaching the engine: report the loss loudly (503), never silently.
		writeError(w, http.StatusServiceUnavailable, ackErr)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"accepted":  len(muts),
		"applied":   len(muts) - coalesced, // what actually reached the engine
		"changed":   changed,
		"coalesced": coalesced,
		"version":   version,
	})
}

func (s *Server) handleUpsertTasks(w http.ResponseWriter, r *http.Request) {
	tasks, err := DecodeBody[TaskJSON](r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	muts := make([]engine.Mutation, 0, len(tasks))
	for _, tj := range tasks {
		t := tj.ToModel()
		if err := t.Valid(); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		muts = append(muts, engine.TaskUpsert(t))
	}
	s.enqueueAndWait(w, r, muts)
}

func (s *Server) handleUpsertWorkers(w http.ResponseWriter, r *http.Request) {
	workers, err := DecodeBody[WorkerJSON](r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	muts := make([]engine.Mutation, 0, len(workers))
	for _, wj := range workers {
		wk := wj.ToModel()
		if err := wk.Valid(); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		muts = append(muts, engine.WorkerUpsert(wk))
	}
	s.enqueueAndWait(w, r, muts)
}

// handleRemove queues a single removal and reports whether the entity was
// present ("removed"). A removal superseded within its batch by a later
// mutation of the same entity reports "coalesced" instead.
func (s *Server) handleRemove(w http.ResponseWriter, r *http.Request, mut engine.Mutation) {
	reply := make(chan applyloop.Ack, 1)
	if err := s.backend.Enqueue(mut, reply); err != nil {
		writeError(w, enqueueStatus(err), err)
		return
	}
	select {
	case ack := <-reply:
		if ack.Err != nil {
			writeError(w, http.StatusServiceUnavailable, ack.Err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"removed": ack.Changed, "coalesced": ack.Coalesced, "version": ack.Version,
		})
	case <-r.Context().Done():
		writeJSON(w, http.StatusAccepted, map[string]any{"queued": 1})
	}
}

func (s *Server) handleRemoveTask(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 32)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.handleRemove(w, r, engine.TaskRemoval(model.TaskID(id)))
}

func (s *Server) handleRemoveWorker(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 32)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.handleRemove(w, r, engine.WorkerRemoval(model.WorkerID(id)))
}

// SolveRequest configures one /v1/solve call. All fields are optional.
type SolveRequest struct {
	// Solver overrides the server's default solver by registry name.
	Solver string `json:"solver,omitempty"`
	// Seed seeds the solve (0 means the solver default).
	Seed int64 `json:"seed,omitempty"`
	// TimeoutMS bounds the solve; it is clamped to the server's
	// SolveTimeout. On expiry the best partial assignment is returned with
	// "partial": true.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// AssignedPair is one (worker, task) edge of a returned assignment.
type AssignedPair struct {
	Worker model.WorkerID `json:"worker"`
	Task   model.TaskID   `json:"task"`
}

// SolveResponse is the /v1/solve answer, also stored as the current
// assignment for GET /v1/assignment.
type SolveResponse struct {
	Version        uint64 `json:"version"`
	CurrentVersion uint64 `json:"current_version,omitempty"`
	Solver         string `json:"solver"`
	Seed           int64  `json:"seed"`
	Partial        bool   `json:"partial"`
	Feasible       bool   `json:"feasible"`
	// Cached is true when the response was replayed from the solve cache
	// (bit-identical to re-solving; ElapsedMS and At are the original
	// solve's).
	Cached bool `json:"cached,omitempty"`
	// Degraded marks a graceful-degradation answer from the adaptive tier:
	// the predicted solve time exceeded the SLO budget, so this is the
	// cached last assignment rather than a fresh solve. StaleMS is its
	// explicit staleness bound — wall milliseconds since the served
	// assignment was computed, never more than the server's -max-stale.
	Degraded bool    `json:"degraded,omitempty"`
	StaleMS  float64 `json:"stale_ms,omitempty"`
	// Lanes breaks an adaptive solve down by lane: how many component
	// solves ran on each (absent outside adaptive mode).
	Lanes           map[string]int `json:"lanes,omitempty"`
	ElapsedMS       float64        `json:"elapsed_ms"`
	AssignedWorkers int            `json:"assigned_workers"`
	AssignedTasks   int            `json:"assigned_tasks"`
	MinReliability  float64        `json:"min_reliability"`
	TotalDiversity  float64        `json:"total_diversity"`
	Assignment      []AssignedPair `json:"assignment"`
	Stats           core.Stats     `json:"stats"`
	At              time.Time      `json:"at"`
	// The coordinator fields are inlined after the rest when the backend is
	// sharded and absent when it is not.
	*CoordinatorInfo
}

func sumVersions(versions []uint64) uint64 {
	var sum uint64
	for _, v := range versions {
		sum += v
	}
	return sum
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req SolveRequest
	body, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(bytes.TrimSpace(body)) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	// The view is pinned for the whole request: batches applied while the
	// solver runs publish new views but never touch this one, and the
	// adaptive plan, the cache probe and the solve all see the same state.
	view := s.backend.View()
	versions, routeGen := view.State()
	version := sumVersions(versions)

	// The adaptive tier handles only requests that name no solver: an
	// explicit solver is a contract (the client asked for that algorithm's
	// exact answer) the controller must not override.
	var solver core.Solver
	var dispatcher *adaptive.Solver
	adaptiveActive := s.adapt != nil && req.Solver == ""
	if adaptiveActive {
		if s.adapt.PlanRequest(view.Shape()).OverBudget {
			// Even the minimum-effort plan is predicted over budget. One
			// request at a time still solves, as the probe: its latency is
			// the only observation that can bring the learned cost back
			// down, so without it over-budget would be a state the server
			// never leaves. Every other request is served the last
			// assignment within the staleness bound, or shed with 429 when
			// none exists — admission control as final backstop.
			if !s.probing.CompareAndSwap(false, true) {
				if resp, ok := s.degradeResponse(version); ok {
					s.adapt.NoteDegraded(true)
					writeJSON(w, http.StatusOK, resp)
					return
				}
				s.adapt.NoteDegraded(false)
				w.Header().Set("Retry-After", "1")
				writeError(w, http.StatusTooManyRequests,
					errors.New("predicted solve time exceeds the SLO budget and no assignment within the staleness bound exists"))
				return
			}
			defer s.probing.Store(false)
		}
		dispatcher = adaptive.NewSolver(s.adapt)
		solver = dispatcher
	} else {
		name := req.Solver
		if name == "" {
			name = s.cfg.SolverName
		}
		// A fresh solver instance per request: registry factories are cheap
		// and nothing is shared across concurrent solves.
		if solver, err = core.NewByName(name); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	// The dispatcher picks a lane per connected component, so it has to be
	// run per component; a named solver is only when the backend decomposes.
	solver = view.PerComponent(solver, adaptiveActive)

	timeout := s.cfg.SolveTimeout
	if req.TimeoutMS > 0 {
		if d := time.Duration(req.TimeoutMS) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	key := SolveCacheKey{Fingerprint: stateFingerprint(versions, routeGen), Solver: solver.Name(), Seed: req.Seed}
	if v, ok := s.cache.Get(key, versions, routeGen); ok {
		resp := *v.(*SolveResponse) // shallow copy; the cached value is never mutated
		resp.Cached = true
		s.lastRes.Store(&resp)
		writeJSON(w, http.StatusOK, &resp)
		return
	}
	start := time.Now()
	res, coord, err := view.Solve(ctx, solver, &core.SolveOptions{Seed: req.Seed})
	elapsed := time.Since(start)

	s.solves.Add(1)
	partial := errors.Is(err, core.ErrInterrupted)
	if partial {
		s.partials.Add(1)
	}
	if err != nil && !partial {
		if errors.Is(err, core.ErrPopulationTooLarge) {
			// A request-shaped refusal, like an unknown solver name: the
			// client picked exhaustive on an instance over its cap.
			writeError(w, http.StatusUnprocessableEntity, err)
			return
		}
		s.solveErrors.Add(1)
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	elapsedMS := float64(elapsed) / float64(time.Millisecond)
	s.recordSolve(res.Stats, elapsedMS)

	pairs := make([]AssignedPair, 0, res.Assignment.Len())
	res.Assignment.Workers(func(wid model.WorkerID, tid model.TaskID) {
		pairs = append(pairs, AssignedPair{Worker: wid, Task: tid})
	})
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].Worker < pairs[j].Worker })

	resp := &SolveResponse{
		Version:         version,
		Solver:          solver.Name(),
		Seed:            req.Seed,
		Partial:         partial,
		Feasible:        len(pairs) > 0,
		ElapsedMS:       elapsedMS,
		AssignedWorkers: res.Eval.AssignedWorkers,
		AssignedTasks:   res.Eval.AssignedTasks,
		MinReliability:  res.Eval.MinRel,
		TotalDiversity:  res.Eval.TotalESTD,
		Assignment:      pairs,
		Stats:           res.Stats,
		At:              time.Now().UTC(),
		CoordinatorInfo: coord,
	}
	if adaptiveActive {
		// Close the headroom loop on the observed request latency (the
		// per-lane coefficients were fed per component by the dispatcher).
		// Only a solve that produced an answer counts: one that ended in a
		// terminal error above says nothing about how long solving takes.
		s.adapt.ObserveRequest(elapsed)
		resp.Lanes = dispatcher.LaneCounts()
	}
	s.lastRes.Store(resp)
	if err == nil {
		// Only clean, complete solves are cached; a partial depends on how
		// far the deadline let the solver run, which is not a state key.
		s.cache.Put(key, versions, routeGen, resp)
	}
	writeJSON(w, http.StatusOK, resp)
}

// degradeResponse renders the graceful-degradation answer from the most
// recent completed solve: the cached last assignment, stamped with its
// explicit staleness ("stale_ms", wall time since it was computed) and the
// degraded marker, plus the current version so clients can see how far
// behind the assignment is. ok is false when no previous solve exists or
// the last one is older than the staleness bound — the caller must then
// shed (429).
func (s *Server) degradeResponse(currentVersion uint64) (*SolveResponse, bool) {
	last := s.lastRes.Load()
	if last == nil {
		return nil, false
	}
	stale := max(time.Since(last.At), 0)
	if stale > s.adapt.MaxStale() {
		return nil, false
	}
	resp := *last // shallow copy; the stored value is never mutated
	resp.Degraded = true
	resp.StaleMS = float64(stale) / float64(time.Millisecond)
	resp.CurrentVersion = currentVersion
	return &resp, true
}

// handleAssignment serves the most recently computed assignment, stamped
// with the version it was solved at and the current version (equal when no
// batch applied since).
func (s *Server) handleAssignment(w http.ResponseWriter, r *http.Request) {
	last := s.lastRes.Load()
	if last == nil {
		writeError(w, http.StatusNotFound, errors.New("no solve has completed yet"))
		return
	}
	resp := *last // shallow copy; the stored value is never mutated
	resp.CurrentVersion = s.backend.Stats().version()
	writeJSON(w, http.StatusOK, &resp)
}

// version is the aggregate version: the sum over the apply loops.
func (st StateStats) version() uint64 {
	var sum uint64
	for i := range st.Rows {
		sum += st.Rows[i].Version
	}
	return sum
}

// statsResponse is the /v1/stats view: the state plane's shape and
// batching counters summed over its apply loops, the solve plane's
// cumulative counters, and — from a sharded backend only — the per-shard
// rows and the coordinator block.
type statsResponse struct {
	Version uint64  `json:"version"`
	Tasks   int     `json:"tasks"`
	Workers int     `json:"workers"`
	Pairs   int     `json:"pairs"`
	Beta    float64 `json:"beta"`

	QueueLen  int    `json:"queue_len"`
	QueueCap  int    `json:"queue_cap"`
	Enqueued  uint64 `json:"mutations_enqueued"`
	Applied   uint64 `json:"mutations_applied"`
	Coalesced uint64 `json:"mutations_coalesced"`
	Batches   uint64 `json:"batches"`
	Rebuilds  uint64 `json:"rebuilds"`
	// RetrieveMS is top-level on a single engine only; a sharded backend
	// reports it per row, and clients add the two.
	RetrieveMS        *float64 `json:"retrieve_ms,omitempty"`
	RejectedQueueFull uint64   `json:"rejected_queue_full"`

	Shards  []StateRow `json:"shards,omitempty"`
	Cluster any        `json:"cluster,omitempty"`

	Solves      uint64     `json:"solves"`
	SolveErrors uint64     `json:"solve_errors"`
	Partials    uint64     `json:"partial_solves"`
	SolverStats core.Stats `json:"solver_stats"`

	// Solve-cache counters (all zero when the cache is disabled). A hit is
	// a /v1/solve request answered without running a solver.
	SolveCacheHits      uint64 `json:"solve_cache_hits"`
	SolveCacheMisses    uint64 `json:"solve_cache_misses"`
	SolveCacheEvictions uint64 `json:"solve_cache_evictions"`
	// SolveLatencyMS summarizes the most recent solves (up to the latency
	// ring's capacity), completed and partial alike.
	SolveLatencyMS quantiles `json:"solve_latency_ms"`

	// Adaptive is the latency-SLO tier's controller state (per-lane
	// counters and learned costs, thresholds, degrade/shed accounting);
	// absent when -adaptive is off.
	Adaptive *adaptive.Stats `json:"adaptive,omitempty"`

	// Durability sums the rows' blocks; backend is row 0's label (the
	// stores are configured uniformly).
	Durability DurabilityJSON `json:"durability"`

	UptimeMS float64 `json:"uptime_ms"`
}

// DurabilityJSON is the stats view of one store, or of all of them summed.
type DurabilityJSON struct {
	Backend           string `json:"backend"`
	WALAppends        uint64 `json:"wal_appends"`
	WALSyncs          uint64 `json:"wal_syncs"`
	WALAppendFailures uint64 `json:"wal_append_failures"`
	Snapshots         uint64 `json:"snapshots"`
	SnapshotErrors    uint64 `json:"snapshot_errors"`
	RecoveredBatches  uint64 `json:"recovered_batches"`
}

// NewDurabilityJSON assembles the stats view for one store: the backend
// label and WAL counters come from the store itself (via the optional
// Backend/Stats interfaces the built-in backends implement), the failure
// and recovery counters from the state plane that wraps it.
func NewDurabilityJSON(st store.Store, appendFailures, snapshotErrors, recoveredBatches uint64) DurabilityJSON {
	d := DurabilityJSON{
		Backend:           "custom",
		WALAppendFailures: appendFailures,
		SnapshotErrors:    snapshotErrors,
		RecoveredBatches:  recoveredBatches,
	}
	if b, ok := st.(interface{ Backend() string }); ok {
		d.Backend = b.Backend()
	}
	if s, ok := st.(interface{ Stats() store.FileStats }); ok {
		fs := s.Stats()
		d.WALAppends = fs.Appends
		d.WALSyncs = fs.Syncs
		d.Snapshots = fs.Snapshots
	}
	return d
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.backend.Stats()
	solverStats, latencies := s.solveSample()
	cacheStats := s.cache.Stats()
	resp := &statsResponse{
		Pairs: st.Pairs,
		Beta:  st.Beta,

		Solves:         s.solves.Load(),
		SolveErrors:    s.solveErrors.Load(),
		Partials:       s.partials.Load(),
		SolverStats:    solverStats,
		SolveLatencyMS: summarize(latencies),

		SolveCacheHits:      cacheStats.Hits,
		SolveCacheMisses:    cacheStats.Misses,
		SolveCacheEvictions: cacheStats.Evictions,

		UptimeMS: float64(time.Since(s.started)) / float64(time.Millisecond),
	}
	var retrieveMS float64
	for i := range st.Rows {
		row := &st.Rows[i]
		if i == 0 {
			resp.Durability.Backend = row.Durability.Backend
		}
		resp.Durability.WALAppends += row.Durability.WALAppends
		resp.Durability.WALSyncs += row.Durability.WALSyncs
		resp.Durability.WALAppendFailures += row.Durability.WALAppendFailures
		resp.Durability.Snapshots += row.Durability.Snapshots
		resp.Durability.SnapshotErrors += row.Durability.SnapshotErrors
		resp.Durability.RecoveredBatches += row.Durability.RecoveredBatches
		resp.Version += row.Version
		resp.Tasks += row.Tasks
		resp.Workers += row.Workers
		resp.QueueLen += row.QueueLen
		resp.QueueCap += row.QueueCap
		resp.Enqueued += row.Enqueued
		resp.Applied += row.Applied
		resp.Coalesced += row.Coalesced
		resp.Batches += row.Batches
		resp.Rebuilds += row.Rebuilds
		resp.RejectedQueueFull += row.RejectedQueueFull
		retrieveMS += row.RetrieveMS
	}
	if st.Coordinator != nil {
		resp.Shards, resp.Cluster = st.Rows, st.Coordinator
	} else {
		resp.RetrieveMS = &retrieveMS
	}
	if s.adapt != nil {
		ad := s.adapt.StatsSnapshot()
		resp.Adaptive = &ad
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.backend.Stats()
	out := map[string]any{"ok": true, "version": st.version()}
	if st.Coordinator != nil {
		out["shards"] = len(st.Rows)
	}
	writeJSON(w, http.StatusOK, out)
}
