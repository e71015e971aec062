// Package platform simulates a live spatial-crowdsourcing deployment — the
// substitute for the paper's customized gMission platform (Section 8.4).
// It implements the incremental updating strategy of Figure 10: every
// t_interval the platform gathers the available workers and the open tasks,
// runs an RDB-SC solver over them while keeping the existing commitments,
// and dispatches the new assignments. Workers travel to their tasks, finish
// successfully with probability p_j (producing an answer whose accuracy
// follows the paper's Accuracy_ij = β·Δθ/π + (1−β)·Δt/(e−s) model), and
// return to the available pool.
//
// The simulator reports the paper's two quality measures aggregated over
// the whole run, plus the angular-coverage proxy that stands in for the 3D
// reconstruction showcase of Figures 19–20.
package platform

import (
	"context"
	"math"
	"sort"

	"rdbsc/internal/core"
	"rdbsc/internal/diversity"
	"rdbsc/internal/engine"
	"rdbsc/internal/geo"
	"rdbsc/internal/model"
	"rdbsc/internal/objective"
	"rdbsc/internal/rng"
)

// Config parameterizes a simulation run.
type Config struct {
	// Sites are the task locations (the paper used 5 nearby sites). When
	// empty, five default sites in the unit square's center are used.
	Sites []geo.Point
	// NumWorkers is the size of the worker pool (paper: 10 active users).
	NumWorkers int
	// TaskOpen is each task's open duration in hours (paper: 15 minutes).
	TaskOpen float64
	// TInterval is the incremental update period in hours (paper: 1–4 min).
	TInterval float64
	// Horizon is the total simulated time in hours.
	Horizon float64
	// Beta is the requester diversity weight β.
	Beta float64
	// Solver performs each round's assignment (default: greedy, with
	// incremental candidate maintenance). SolverName selects one through
	// the registry instead when Solver is nil — e.g. "dc", or
	// "sharded-greedy" to solve each connected component separately.
	Solver     core.Solver
	SolverName string
	// Decompose enables the engine's connected-component path (see
	// engine.Config.Decompose). In this driver the benefit is the
	// concurrent per-component solving: each round re-stamps every idle
	// worker's departure time to "now", which genuinely changes arrival
	// times, so components are almost always dirty and the result cache
	// rarely hits — unlike the stream driver, where workers keep their
	// check-in time and untouched islands skip re-solving entirely.
	Decompose bool
	// WorkerSpeedMin/Max bound worker speeds (default 0.4/0.8 — the paper's
	// sites are walkable within ~2 minutes).
	WorkerSpeedMin, WorkerSpeedMax float64
	// ConfMin/Max bound worker confidences (default 0.8/1.0, the
	// peer-rating substitute).
	ConfMin, ConfMax float64
	// AngleTolerance is the angular half-window one answer covers in the
	// coverage proxy (default π/8).
	AngleTolerance float64
	// Seed drives all randomness.
	Seed int64
}

func (c Config) withDefaults() Config {
	if len(c.Sites) == 0 {
		c.Sites = []geo.Point{
			geo.Pt(0.45, 0.45), geo.Pt(0.55, 0.45), geo.Pt(0.5, 0.55),
			geo.Pt(0.42, 0.55), geo.Pt(0.58, 0.55),
		}
	}
	if c.NumWorkers <= 0 {
		c.NumWorkers = 10
	}
	if c.TaskOpen <= 0 {
		c.TaskOpen = 0.25
	}
	if c.TInterval <= 0 {
		c.TInterval = 1.0 / 60
	}
	if c.Horizon <= 0 {
		c.Horizon = 1
	}
	if c.Beta <= 0 || c.Beta > 1 {
		c.Beta = 0.5
	}
	if c.Solver == nil && c.SolverName == "" {
		c.Solver = core.NewGreedy()
	}
	if c.WorkerSpeedMin <= 0 {
		c.WorkerSpeedMin = 0.4
	}
	if c.WorkerSpeedMax < c.WorkerSpeedMin {
		c.WorkerSpeedMax = c.WorkerSpeedMin + 0.4
	}
	if c.ConfMin <= 0 {
		c.ConfMin = 0.8
	}
	if c.ConfMax < c.ConfMin || c.ConfMax > 1 {
		c.ConfMax = 1
	}
	if c.AngleTolerance <= 0 {
		c.AngleTolerance = math.Pi / 8
	}
	return c
}

// Answer is one completed task answer (a "photo").
type Answer struct {
	Task     model.TaskID
	Worker   model.WorkerID
	Time     float64 // completion time
	Angle    float64 // approach ray angle at the task
	Accuracy float64 // paper's Accuracy_ij in [0,1], 1 is perfect
}

// Metrics aggregates a run.
type Metrics struct {
	// MinRel is the minimum, over tasks that received assignments, of the
	// assigned reliability.
	MinRel float64
	// TotalSTD is the summed expected diversity over all tasks, computed
	// from assigned workers (Figure 18's total_STD).
	TotalSTD float64
	// Answers and TasksIssued/TasksServed count raw activity.
	Answers     int
	TasksIssued int
	TasksServed int
	// Rounds is the number of incremental update rounds executed.
	Rounds int
	// MeanAccuracy averages the paper's per-answer accuracy.
	MeanAccuracy float64
	// Coverage is the mean angular coverage (fraction of the 2π view circle
	// within AngleTolerance of some answer) over served tasks — the
	// 3D-reconstruction showcase proxy.
	Coverage float64
}

// liveTask is a task instance during simulation.
type liveTask struct {
	task    model.Task
	site    int
	workers []model.WorkerID // committed workers (travelling)
	state   *objective.TaskState
	answers []Answer
}

// liveWorker is a worker during simulation.
type liveWorker struct {
	worker   model.Worker
	busyTill float64
	target   model.TaskID // NoTask when idle
}

// Simulator runs the incremental platform loop. Each round synchronizes
// the engine with the live state — available workers (with their current
// departure time) and open tasks — and re-solves through it, so the grid
// index and the prepared problem are maintained incrementally instead of
// being rebuilt from scratch every tick.
type Simulator struct {
	cfg Config
	src *rng.Source
	eng *engine.Engine

	workers  []*liveWorker
	open     map[model.TaskID]*liveTask
	done     []*liveTask
	nextID   model.TaskID
	solveErr error
}

// Err returns the terminal solver error that stopped the run early (nil
// for a clean run). Infeasible and interrupted rounds are not errors.
func (s *Simulator) Err() error { return s.solveErr }

// New prepares a simulator.
func New(cfg Config) *Simulator {
	cfg = cfg.withDefaults()
	s := &Simulator{
		cfg: cfg,
		src: rng.New(cfg.Seed),
		eng: engine.New(engine.Config{
			Beta:       cfg.Beta,
			Opt:        model.Options{WaitAllowed: true},
			Solver:     cfg.Solver,
			SolverName: cfg.SolverName,
			Decompose:  cfg.Decompose,
		}),
		open: make(map[model.TaskID]*liveTask),
	}
	for j := 0; j < cfg.NumWorkers; j++ {
		s.workers = append(s.workers, &liveWorker{
			worker: model.Worker{
				ID:         model.WorkerID(j),
				Loc:        s.src.GaussianPointIn(geo.Pt(0.5, 0.5), 0.1, geo.UnitSquare),
				Speed:      s.src.Uniform(cfg.WorkerSpeedMin, cfg.WorkerSpeedMax),
				Dir:        geo.FullCircle,
				Confidence: s.src.Uniform(cfg.ConfMin, cfg.ConfMax),
			},
			target: model.NoTask,
		})
	}
	return s
}

// Answers returns every collected answer, ordered by task then completion
// time. Valid after Run; the platform's answer-aggregation step (package
// aggregate) consumes this.
func (s *Simulator) Answers() []Answer {
	all := append(append([]*liveTask(nil), s.done...), s.openSlice()...)
	sort.Slice(all, func(i, j int) bool { return all[i].task.ID < all[j].task.ID })
	var out []Answer
	for _, lt := range all {
		out = append(out, lt.answers...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Task != out[j].Task {
			return out[i].Task < out[j].Task
		}
		return out[i].Time < out[j].Time
	})
	return out
}

// Run executes the simulation and returns the aggregated metrics.
func (s *Simulator) Run() Metrics { return s.RunContext(context.Background()) }

// RunContext executes the simulation until the horizon or until ctx is
// done, whichever comes first, and returns the metrics accumulated so far.
func (s *Simulator) RunContext(ctx context.Context) Metrics {
	var m Metrics
	for now := 0.0; now < s.cfg.Horizon && ctx.Err() == nil && s.solveErr == nil; now += s.cfg.TInterval {
		s.issueTasks(now, &m)
		s.completeArrivals(now, &m)
		s.expireTasks(now)
		s.assignRound(ctx, now, &m)
		m.Rounds++
	}
	s.completeArrivals(s.cfg.Horizon+1, &m) // flush in-flight workers
	s.expireTasks(math.Inf(1))
	return s.finalize(m)
}

// issueTasks keeps one open task per site (a new one opens when the
// previous expires), as in the paper's five-site deployment.
func (s *Simulator) issueTasks(now float64, m *Metrics) {
	active := make(map[int]bool)
	for _, lt := range s.open {
		active[lt.site] = true
	}
	for i, site := range s.cfg.Sites {
		if active[i] {
			continue
		}
		t := model.Task{
			ID:    s.nextID,
			Loc:   site,
			Start: now,
			End:   now + s.cfg.TaskOpen,
		}
		s.nextID++
		s.open[t.ID] = &liveTask{
			task:  t,
			site:  i,
			state: objective.NewTaskState(t, s.cfg.Beta),
		}
		s.eng.UpsertTask(t)
		m.TasksIssued++
	}
}

// completeArrivals resolves workers whose travel finished by now: with
// probability p they produce an answer; either way they become available at
// their arrival location.
func (s *Simulator) completeArrivals(now float64, m *Metrics) {
	for _, lw := range s.workers {
		if lw.target == model.NoTask || lw.busyTill > now {
			continue
		}
		lt := s.open[lw.target]
		if lt != nil && s.src.Bernoulli(lw.worker.Confidence) {
			ans := s.makeAnswer(lt, lw)
			lt.answers = append(lt.answers, ans)
			m.Answers++
		}
		if lt != nil {
			lw.worker.Loc = lt.task.Loc
		}
		lw.target = model.NoTask
	}
}

// makeAnswer synthesizes an answer with the paper's accuracy model: the
// angular error Δθ and timing error Δt are the deviations of the actual
// photo from the ideal (we draw a small angular deviation; the timing error
// is the arrival offset from the period start).
func (s *Simulator) makeAnswer(lt *liveTask, lw *liveWorker) Answer {
	angle := model.ApproachAngle(lt.task, lw.worker)
	dTheta := math.Abs(s.src.Normal(0, math.Pi/16))
	if dTheta > math.Pi {
		dTheta = math.Pi
	}
	dT := math.Max(0, math.Min(lw.busyTill-lt.task.Start, lt.task.Duration()))
	acc := 1 - (s.cfg.Beta*dTheta/math.Pi + (1-s.cfg.Beta)*dT/lt.task.Duration())
	return Answer{
		Task:     lt.task.ID,
		Worker:   lw.worker.ID,
		Time:     lw.busyTill,
		Angle:    geo.NormalizeAngle(angle + dTheta),
		Accuracy: acc,
	}
}

// expireTasks retires tasks whose period ended.
func (s *Simulator) expireTasks(now float64) {
	for id, lt := range s.open {
		if lt.task.End <= now {
			s.done = append(s.done, lt)
			delete(s.open, id)
			s.eng.RemoveTask(id)
		}
	}
}

// assignRound is line 6 of Figure 10: assign the available workers to the
// opening tasks, considering current commitments (each task's objective
// state already contains its committed workers, so the solver's incremental
// additions compound correctly). The engine carries the open tasks between
// rounds; only worker availability (and departure time) is churned here.
func (s *Simulator) assignRound(ctx context.Context, now float64, m *Metrics) {
	avail := 0
	for _, lw := range s.workers {
		if lw.target == model.NoTask {
			w := lw.worker
			w.Depart = now
			s.eng.UpsertWorker(w)
			avail++
		} else {
			s.eng.RemoveWorker(lw.worker.ID)
		}
	}
	if avail == 0 || len(s.open) == 0 {
		return
	}

	// The live per-task states seed the solve so new pairs are chosen
	// "considering A and S_c" (Figure 10, line 6): committed workers and
	// received answers shape every Δ-objective. Greedy honors the seeds;
	// the other solvers assign from scratch over the available workers,
	// which the paper's experiments also did for SAMPLING/D&C.
	seed := make(map[model.TaskID]*objective.TaskState, len(s.open))
	for id, lt := range s.open {
		if lt.state.Len() > 0 {
			seed[id] = lt.state
		}
	}
	res, err := s.eng.Solve(ctx, &core.SolveOptions{
		Source:     s.src.Split(),
		SeedStates: seed,
	})
	if err != nil {
		// Benign: infeasible rounds (no reachable pairs this tick),
		// interrupted rounds (the run winds down via ctx). Terminal errors
		// — a misconfigured solver, e.g. exhaustive over its population
		// cap — stop the run and surface through Err.
		if core.IsTerminal(err) {
			s.solveErr = err
		}
		return
	}
	// Apply the new pairs in worker-ID order: diversity updates are
	// floating-point sums, so application order must be deterministic.
	type wt struct {
		w model.WorkerID
		t model.TaskID
	}
	var pairs []wt
	res.Assignment.Workers(func(wid model.WorkerID, tid model.TaskID) {
		pairs = append(pairs, wt{wid, tid})
	})
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].w < pairs[j].w })
	for _, pr := range pairs {
		wid, tid := pr.w, pr.t
		lw := s.workerByID(wid)
		lt := s.open[tid]
		if lw == nil || lt == nil {
			continue
		}
		w := lw.worker
		w.Depart = now
		arr, ok := model.Arrival(lt.task, w, model.Options{WaitAllowed: true})
		if !ok {
			continue
		}
		lw.target = tid
		lw.busyTill = arr
		lt.workers = append(lt.workers, wid)
		lt.state.Add(wid, w.Confidence, arr, model.ApproachAngle(lt.task, w))
	}
}

func (s *Simulator) workerByID(id model.WorkerID) *liveWorker {
	for _, lw := range s.workers {
		if lw.worker.ID == id {
			return lw
		}
	}
	return nil
}

// finalize aggregates metrics over all retired and still-open tasks, in
// task-ID order so floating-point totals are reproducible (expiration
// handling drains a map, which would otherwise randomize summation order).
func (s *Simulator) finalize(m Metrics) Metrics {
	all := append(append([]*liveTask(nil), s.done...), s.openSlice()...)
	sort.Slice(all, func(i, j int) bool { return all[i].task.ID < all[j].task.ID })
	minR := math.Inf(1)
	var accSum float64
	var covSum float64
	for _, lt := range all {
		if lt.state.Len() == 0 {
			continue
		}
		m.TasksServed++
		m.TotalSTD += lt.state.ESTD()
		if r := lt.state.R(); r < minR {
			minR = r
		}
		covSum += coverage(lt.answers, s.cfg.AngleTolerance)
	}
	for _, lt := range all {
		for _, a := range lt.answers {
			accSum += a.Accuracy
		}
	}
	if m.TasksServed > 0 {
		m.MinRel = objective.RelFromR(minR)
		m.Coverage = covSum / float64(m.TasksServed)
	}
	if m.Answers > 0 {
		m.MeanAccuracy = accSum / float64(m.Answers)
	}
	return m
}

func (s *Simulator) openSlice() []*liveTask {
	ids := make([]model.TaskID, 0, len(s.open))
	for id := range s.open {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]*liveTask, 0, len(ids))
	for _, id := range ids {
		out = append(out, s.open[id])
	}
	return out
}

// coverage returns the fraction of the 2π view circle within tol of some
// answer's angle — the 3D-reconstruction proxy. It merges the per-answer
// arcs and measures their union.
func coverage(answers []Answer, tol float64) float64 {
	if len(answers) == 0 {
		return 0
	}
	type arc struct{ lo, hi float64 } // hi may exceed 2π for wrapping arcs
	arcs := make([]arc, 0, len(answers))
	for _, a := range answers {
		lo := geo.NormalizeAngle(a.Angle - tol)
		arcs = append(arcs, arc{lo, lo + 2*tol})
	}
	sort.Slice(arcs, func(i, j int) bool { return arcs[i].lo < arcs[j].lo })
	var covered float64
	curLo, curHi := arcs[0].lo, arcs[0].hi
	for _, a := range arcs[1:] {
		if a.lo <= curHi {
			if a.hi > curHi {
				curHi = a.hi
			}
			continue
		}
		covered += curHi - curLo
		curLo, curHi = a.lo, a.hi
	}
	covered += curHi - curLo
	// Wrapping arcs double-count the seam; clamp.
	if covered > geo.TwoPi {
		covered = geo.TwoPi
	}
	return covered / geo.TwoPi
}

// DiversityOfAnswers computes the realized STD of a task's answers — the
// quality actually delivered (distinct from the expected STD used during
// assignment). Exposed for reports and the landmark example.
func DiversityOfAnswers(task model.Task, beta float64, answers []Answer) float64 {
	angles := make([]float64, len(answers))
	times := make([]float64, len(answers))
	for i, a := range answers {
		angles[i] = a.Angle
		times[i] = a.Time
	}
	return diversity.STD(beta, angles, times, task.Start, task.End)
}
