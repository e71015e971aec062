package traffic

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"

	"rdbsc/internal/geo"
	"rdbsc/internal/model"
	"rdbsc/internal/rng"
	"rdbsc/internal/workload"
)

// Kind discriminates mutation requests. One request carries one kind, the
// way the /v1 surface does: an array of upserts or a single removal.
type Kind uint8

const (
	UpsertTasks Kind = iota
	UpsertWorkers
	RemoveTask
	RemoveWorker
)

// Request is one mutation request of the M class.
type Request struct {
	// ID is the request's position in its stream, and its request id in
	// the traced replay.
	ID       int
	Kind     Kind
	Tasks    []model.Task
	Workers  []model.Worker
	TaskID   model.TaskID
	WorkerID model.WorkerID
}

// Entities returns how many mutations the request carries.
func (r Request) Entities() int {
	switch r.Kind {
	case UpsertTasks:
		return len(r.Tasks)
	case UpsertWorkers:
		return len(r.Workers)
	default:
		return 1
	}
}

// taskJSON and workerJSON are the benchmark's own copy of the /v1 wire
// forms. Float64 fields marshal to the shortest string that parses back to
// the same bits, so the server's state equals the harness's model exactly.
type taskJSON struct {
	ID    int32   `json:"id"`
	X     float64 `json:"x"`
	Y     float64 `json:"y"`
	Start float64 `json:"start"`
	End   float64 `json:"end"`
}

type workerJSON struct {
	ID         int32   `json:"id"`
	X          float64 `json:"x"`
	Y          float64 `json:"y"`
	Speed      float64 `json:"speed"`
	DirLo      float64 `json:"dir_lo"`
	DirWidth   float64 `json:"dir_width"`
	Confidence float64 `json:"confidence"`
	Depart     float64 `json:"depart"`
}

// HTTP renders the request as the server sees it. A single upsert is sent
// as a bare object and several as an array, like any /v1 client would.
func (r Request) HTTP() (method, path string, body []byte) {
	switch r.Kind {
	case UpsertTasks:
		list := make([]taskJSON, len(r.Tasks))
		for i, t := range r.Tasks {
			list[i] = taskJSON{ID: int32(t.ID), X: t.Loc.X, Y: t.Loc.Y, Start: t.Start, End: t.End}
		}
		return "POST", "/v1/tasks", marshalOneOrMany(list)
	case UpsertWorkers:
		list := make([]workerJSON, len(r.Workers))
		for i, w := range r.Workers {
			list[i] = workerJSON{
				ID: int32(w.ID), X: w.Loc.X, Y: w.Loc.Y, Speed: w.Speed,
				DirLo: w.Dir.Lo, DirWidth: w.Dir.Width,
				Confidence: w.Confidence, Depart: w.Depart,
			}
		}
		return "POST", "/v1/workers", marshalOneOrMany(list)
	case RemoveTask:
		return "DELETE", "/v1/tasks/" + strconv.Itoa(int(r.TaskID)), nil
	default:
		return "DELETE", "/v1/workers/" + strconv.Itoa(int(r.WorkerID)), nil
	}
}

func marshalOneOrMany[T any](list []T) []byte {
	var v any = list
	if len(list) == 1 {
		v = list[0]
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain finite floats and ints: cannot fail
	}
	return b
}

// Solve is one request of the S class.
type Solve struct {
	Solver string
	Seed   int64
}

// SolveTimeoutMS is the server-side bound sent with every solve: the
// client's own 20 s timeout, so a solve is never cut short into a partial
// answer before the client would have given up on it anyway.
const SolveTimeoutMS = 20000

// Body renders the /v1/solve request body.
func (s Solve) Body() []byte {
	b, err := json.Marshal(struct {
		Solver    string `json:"solver,omitempty"`
		Seed      int64  `json:"seed"`
		TimeoutMS int64  `json:"timeout_ms"`
	}{s.Solver, s.Seed, SolveTimeoutMS})
	if err != nil {
		panic(err)
	}
	return b
}

// Solves numbers the S class's requests. Seeds are never 0 (the server
// reads 0 as "solver default").
type Solves struct {
	spec Spec
	base int64
	next int
}

// NewSolves returns the solve sequence of a workload.
func NewSolves(spec Spec, seed int64) *Solves {
	return &Solves{spec: spec, base: 1000 + seed*1_000_003}
}

// Unique returns the next solve with a seed no other solve of the run
// uses, so it can never be answered from the solve cache.
func (s *Solves) Unique() Solve {
	seed := s.base + int64(s.next)
	s.next++
	return Solve{Solver: s.spec.Solver, Seed: seed}
}

// Paced returns paced solve i: unique unless the workload cycles seeds.
func (s *Solves) Paced(i int) Solve {
	next := s.Unique()
	if s.spec.SeedCycle > 0 {
		next.Seed = 1 + int64(i%s.spec.SeedCycle)
	}
	return next
}

// State is a population: the server's expected content, kept by the
// harness as its own model and by the probes as the replayed state.
type State struct {
	Tasks   map[model.TaskID]model.Task
	Workers map[model.WorkerID]model.Worker
	Beta    float64
	Opt     model.Options
}

// Apply folds one acknowledged mutation request into the state.
func (s *State) Apply(r Request) {
	switch r.Kind {
	case UpsertTasks:
		for _, t := range r.Tasks {
			s.Tasks[t.ID] = t
		}
	case UpsertWorkers:
		for _, w := range r.Workers {
			s.Workers[w.ID] = w
		}
	case RemoveTask:
		delete(s.Tasks, r.TaskID)
	case RemoveWorker:
		delete(s.Workers, r.WorkerID)
	}
}

// Instance returns the state as an ID-ordered instance.
func (s *State) Instance() *model.Instance {
	in := &model.Instance{Beta: s.Beta, Opt: s.Opt}
	for _, t := range s.Tasks {
		in.Tasks = append(in.Tasks, t)
	}
	for _, w := range s.Workers {
		in.Workers = append(in.Workers, w)
	}
	sort.Slice(in.Tasks, func(i, j int) bool { return in.Tasks[i].ID < in.Tasks[j].ID })
	sort.Slice(in.Workers, func(i, j int) bool { return in.Workers[i].ID < in.Workers[j].ID })
	return in
}

// PreloadChunk is the array size of the set-up phase's preload POSTs.
const PreloadChunk = 64

// Preload returns the requests that load the state into an empty server:
// tasks then workers, in ID order, PreloadChunk entities per request.
func (s *State) Preload() []Request {
	in := s.Instance()
	var out []Request
	for i := 0; i < len(in.Tasks); i += PreloadChunk {
		out = append(out, Request{ID: len(out), Kind: UpsertTasks, Tasks: in.Tasks[i:min(i+PreloadChunk, len(in.Tasks))]})
	}
	for i := 0; i < len(in.Workers); i += PreloadChunk {
		out = append(out, Request{ID: len(out), Kind: UpsertWorkers, Workers: in.Workers[i:min(i+PreloadChunk, len(in.Workers))]})
	}
	return out
}

// Stream is a workload's mutation stream. Next returns false when a finite
// stream (the churn trace) is used up; position streams never end.
type Stream interface {
	Next() (Request, bool)
}

// PopulationSeed generates every workload's population. The population is
// part of a workload's definition, like a database benchmark's data set:
// holding it fixed is what lets two runs, and two commits, be compared at
// all (populations drawn from different seeds differ by 10-20 % in valid
// pairs, more than any bound in BENCHMARK.json). The run's -seed draws the
// traffic sent to it: movement order and headings, the interleaving of
// churn events, solve seeds.
const PopulationSeed = 1

// churnCut is the trace time (hours) at which the churn population is
// photographed; the stream is everything after it. One hour is two task
// and two and a half worker lifetimes, so the photo is of the steady
// state, not of the ramp-up.
const churnCut = 1.0

// churnHorizon bounds the churn trace. At the frozen scale an hour holds
// about 1 600 events; eleven hours outlast both phases even on a machine
// several times faster than the calibration box.
const churnHorizon = 12.0

// churnJitter is the block size within which the seed shuffles the order
// of churn events: arrivals and expiries a few events apart swap places,
// as they would with jittered clocks, while the process keeps its
// intensity and the population its size.
const churnJitter = 8

// Generate builds the workload's population and mutation stream. The same
// (spec, seed) always yields the same bytes.
func Generate(spec Spec, seed int64) (*State, Stream, error) {
	sc, err := workload.ByName(spec.Scenario)
	if err != nil {
		return nil, nil, err
	}
	p := workload.Params{M: spec.M, N: spec.N, Seed: PopulationSeed, Horizon: churnHorizon}
	if spec.Batch == 0 {
		tr := sc.Trace(p)
		st := &State{
			Tasks: map[model.TaskID]model.Task{}, Workers: map[model.WorkerID]model.Worker{},
			Beta: tr.Beta, Opt: tr.Opt,
		}
		cut := 0
		for cut < len(tr.Events) && tr.Events[cut].At <= churnCut {
			st.Apply(eventRequest(tr.Events[cut], 0))
			cut++
		}
		events := append([]workload.Event(nil), tr.Events[cut:]...)
		jitter(events, rng.New(seed))
		return st, &churnStream{events: events}, nil
	}
	in := sc.Instance(p)
	if err := in.Validate(); err != nil {
		return nil, nil, fmt.Errorf("traffic: %s instance: %w", spec.Scenario, err)
	}
	st := &State{
		Tasks: make(map[model.TaskID]model.Task, len(in.Tasks)), Workers: make(map[model.WorkerID]model.Worker, len(in.Workers)),
		Beta: in.Beta, Opt: in.Opt,
	}
	for _, t := range in.Tasks {
		st.Tasks[t.ID] = t
	}
	for _, w := range in.Workers {
		st.Workers[w.ID] = w
	}
	return st, newMover(spec, seed, in), nil
}

// jitter shuffles the events within consecutive blocks of churnJitter,
// then puts back in order any entity whose expiry landed before its own
// arrival (an entity has exactly those two events).
func jitter(events []workload.Event, src *rng.Source) {
	for lo := 0; lo < len(events); lo += churnJitter {
		block := events[lo:min(lo+churnJitter, len(events))]
		src.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for i := range block {
			for j := i + 1; j < len(block); j++ {
				a, b := block[i], block[j]
				if (a.Kind == workload.TaskExpire && b.Kind == workload.TaskArrive && a.TaskID == b.Task.ID) ||
					(a.Kind == workload.WorkerLeave && b.Kind == workload.WorkerArrive && a.WorkerID == b.Worker.ID) {
					block[i], block[j] = b, a
				}
			}
		}
	}
}

func eventRequest(ev workload.Event, id int) Request {
	switch ev.Kind {
	case workload.TaskArrive:
		return Request{ID: id, Kind: UpsertTasks, Tasks: []model.Task{ev.Task}}
	case workload.TaskExpire:
		return Request{ID: id, Kind: RemoveTask, TaskID: ev.TaskID}
	case workload.WorkerArrive:
		return Request{ID: id, Kind: UpsertWorkers, Workers: []model.Worker{ev.Worker}}
	default:
		return Request{ID: id, Kind: RemoveWorker, WorkerID: ev.WorkerID}
	}
}

type churnStream struct {
	events []workload.Event
	next   int
}

func (c *churnStream) Next() (Request, bool) {
	if c.next >= len(c.events) {
		return Request{}, false
	}
	r := eventRequest(c.events[c.next], c.next)
	c.next++
	return r, true
}

// mover generates position updates: request k re-reports spec.Batch
// existing workers, taken round-robin from a seed-shuffled order, and on
// every spec.MoveEvery-th request moves each of them speed·Dt along a
// heading drawn uniformly in its direction cone, bouncing off the
// worker's bounds like a billiard ball (which keeps a uniform population
// uniform however long the run is).
type mover struct {
	spec    Spec
	src     *rng.Source
	workers []model.Worker // current positions, in instance order
	bounds  []geo.Rect     // index-aligned with workers
	order   []int
	pos     int
	next    int
}

func newMover(spec Spec, seed int64, in *model.Instance) *mover {
	src := rng.New(seed)
	m := &mover{
		spec:    spec,
		src:     src,
		workers: append([]model.Worker(nil), in.Workers...),
		bounds:  workerBounds(spec, in),
		order:   src.Perm(len(in.Workers)),
	}
	return m
}

// workerBounds returns the rectangle each worker bounces around in. On
// islands it is the bounding box of the worker's own island, so movement
// can never bridge the uncrossable gap that keeps the components apart;
// on the clique it is the box the generator scattered the workers over;
// elsewhere it is the unit square.
func workerBounds(spec Spec, in *model.Instance) []geo.Rect {
	out := make([]geo.Rect, len(in.Workers))
	switch spec.Scenario {
	case "islands":
		// The generator lays four islands on a 2×2 grid of half-unit tiles.
		quadrant := func(p geo.Point) int {
			q := 0
			if p.X >= 0.5 {
				q |= 1
			}
			if p.Y >= 0.5 {
				q |= 2
			}
			return q
		}
		var boxes [4]geo.Rect
		var seen [4]bool
		grow := func(p geo.Point) {
			q := quadrant(p)
			if !seen[q] {
				boxes[q], seen[q] = geo.Rect{Min: p, Max: p}, true
				return
			}
			b := &boxes[q]
			b.Min = geo.Pt(math.Min(b.Min.X, p.X), math.Min(b.Min.Y, p.Y))
			b.Max = geo.Pt(math.Max(b.Max.X, p.X), math.Max(b.Max.Y, p.Y))
		}
		for _, t := range in.Tasks {
			grow(t.Loc)
		}
		for _, w := range in.Workers {
			grow(w.Loc)
		}
		for i, w := range in.Workers {
			out[i] = boxes[quadrant(w.Loc)]
		}
	case "clique":
		box := geo.Rect{Min: geo.Pt(0.3, 0.3), Max: geo.Pt(0.7, 0.7)}
		for i := range out {
			out[i] = box
		}
	default:
		for i := range out {
			out[i] = geo.UnitSquare
		}
	}
	return out
}

func (m *mover) Next() (Request, bool) {
	move := (m.next+1)%m.spec.MoveEvery == 0
	r := Request{ID: m.next, Kind: UpsertWorkers, Workers: make([]model.Worker, m.spec.Batch)}
	m.next++
	for i := range r.Workers {
		idx := m.order[m.pos]
		m.pos = (m.pos + 1) % len(m.order)
		if move {
			w := &m.workers[idx]
			heading := w.Dir.Lo + m.src.Float64()*w.Dir.Width
			step := w.Speed * m.spec.Dt
			b := m.bounds[idx]
			x, flipX := reflect(w.Loc.X+step*math.Cos(heading), b.Min.X, b.Max.X)
			y, flipY := reflect(w.Loc.Y+step*math.Sin(heading), b.Min.Y, b.Max.Y)
			w.Loc = geo.Pt(x, y)
			// A worker that bounces off a wall turns around with it: its
			// cone is mirrored like its heading. Without this every
			// narrow-cone worker ends up pinned against the wall it faces
			// and the population's valid pairs drain away.
			if !w.Dir.IsFull() {
				if flipX {
					w.Dir.Lo = geo.NormalizeAngle(math.Pi - w.Dir.Lo - w.Dir.Width)
				}
				if flipY {
					w.Dir.Lo = geo.NormalizeAngle(-w.Dir.Lo - w.Dir.Width)
				}
			}
		}
		r.Workers[i] = m.workers[idx]
	}
	return r, true
}

// reflect folds v back into [lo, hi] as a ball bouncing off both walls,
// and reports whether it bounced an odd number of times (its direction
// along this axis is reversed).
func reflect(v, lo, hi float64) (folded float64, flipped bool) {
	if hi <= lo {
		return lo, false
	}
	for v < lo || v > hi {
		if v < lo {
			v = 2*lo - v
		} else {
			v = 2*hi - v
		}
		flipped = !flipped
	}
	return v, flipped
}
