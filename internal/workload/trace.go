package workload

import (
	"encoding/json"
	"fmt"
	"sort"

	"rdbsc/internal/engine"
	"rdbsc/internal/model"
)

// EventKind discriminates trace events.
type EventKind uint8

const (
	// TaskArrive inserts Event.Task at Event.At.
	TaskArrive EventKind = iota + 1
	// TaskExpire removes the task Event.TaskID.
	TaskExpire
	// WorkerArrive inserts Event.Worker.
	WorkerArrive
	// WorkerLeave removes the worker Event.WorkerID.
	WorkerLeave
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case TaskArrive:
		return "task-arrive"
	case TaskExpire:
		return "task-expire"
	case WorkerArrive:
		return "worker-arrive"
	case WorkerLeave:
		return "worker-leave"
	default:
		return "unknown"
	}
}

// Event is one timed churn step. Exactly one payload field is meaningful,
// selected by Kind.
type Event struct {
	// At is the event time in simulated hours from the trace start.
	At   float64   `json:"at"`
	Kind EventKind `json:"kind"`

	Task     model.Task     `json:"task"`
	Worker   model.Worker   `json:"worker"`
	TaskID   model.TaskID   `json:"task_id"`
	WorkerID model.WorkerID `json:"worker_id"`
}

// Trace is a named, seed-deterministic churn workload: an event sequence
// sorted by time (ties broken by generation order), plus the instance-level
// context (β, reachability options) every consumer needs. Traces are
// self-contained — arrivals carry full entities and departures are explicit
// events, so replaying one requires no generator state.
type Trace struct {
	// Scenario and Seed identify how the trace was generated.
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`
	// Beta and Opt configure the objective and reachability semantics of
	// every solve run over the churning population.
	Beta float64       `json:"beta"`
	Opt  model.Options `json:"opt"`
	// Horizon is the trace span in hours; events beyond it are not emitted.
	Horizon float64 `json:"horizon"`
	// Events is sorted ascending by At.
	Events []Event `json:"events"`
}

// Encode renders the trace as canonical JSON. Struct field order is fixed
// and float formatting is deterministic, so two traces are byte-identical
// exactly when they are semantically identical — the seed-determinism
// contract tests (and golden files) compare these bytes.
func (t *Trace) Encode() []byte {
	b, err := json.Marshal(t)
	if err != nil {
		// All fields are plain data; marshal cannot fail.
		panic(err)
	}
	return b
}

// Mutation converts the event to the engine's batch-mutation form, for
// consumers that apply trace spans through Engine.ApplyBatch. It panics on
// an unknown kind (a corrupted or future trace encoding) rather than
// guessing a mutation.
func (e Event) Mutation() engine.Mutation {
	switch e.Kind {
	case TaskArrive:
		return engine.TaskUpsert(e.Task)
	case TaskExpire:
		return engine.TaskRemoval(e.TaskID)
	case WorkerArrive:
		return engine.WorkerUpsert(e.Worker)
	case WorkerLeave:
		return engine.WorkerRemoval(e.WorkerID)
	default:
		panic(fmt.Sprintf("workload: unknown event kind %d", e.Kind))
	}
}

// traceBuilder accumulates events and finalizes them into time order.
type traceBuilder struct {
	t Trace
}

func (b *traceBuilder) add(ev Event) {
	if ev.At <= b.t.Horizon {
		b.t.Events = append(b.t.Events, ev)
	}
}

func (b *traceBuilder) addTask(at float64, t model.Task) {
	b.add(Event{At: at, Kind: TaskArrive, Task: t})
	b.add(Event{At: t.End, Kind: TaskExpire, TaskID: t.ID})
}

func (b *traceBuilder) addWorker(at, leave float64, w model.Worker) {
	b.add(Event{At: at, Kind: WorkerArrive, Worker: w})
	b.add(Event{At: leave, Kind: WorkerLeave, WorkerID: w.ID})
}

// finish sorts events by time, preserving generation order on ties, and
// returns the trace.
func (b *traceBuilder) finish() *Trace {
	sort.SliceStable(b.t.Events, func(i, j int) bool {
		return b.t.Events[i].At < b.t.Events[j].At
	})
	return &b.t
}

// TraceFromInstance derives a churn trace from a one-shot instance's own
// timestamps: every task arrives at max(Start, 0) and expires at End, every
// worker arrives at its check-in time Depart and leaves at the horizon. The
// horizon is the latest task expiry (so nothing is cut off), capped at
// maxHorizon when positive — instance-first scenarios pass Params.Horizon
// through, so a trace's span stays bounded even for instances spanning a
// full day. Entities whose arrival misses the horizon are
// omitted entirely (arrival and departure both), keeping the trace
// well-formed: no departure ever references an entity that never arrived.
func TraceFromInstance(in *model.Instance, scenario string, seed int64, maxHorizon float64) *Trace {
	horizon := 0.0
	for _, t := range in.Tasks {
		if t.End > horizon {
			horizon = t.End
		}
	}
	if maxHorizon > 0 && maxHorizon < horizon {
		horizon = maxHorizon
	}
	b := &traceBuilder{t: Trace{
		Scenario: scenario,
		Seed:     seed,
		Beta:     in.Beta,
		Opt:      in.Opt,
		Horizon:  horizon,
	}}
	for _, t := range in.Tasks {
		at := t.Start
		if at < 0 {
			at = 0
		}
		if at > horizon {
			continue
		}
		b.addTask(at, t)
	}
	for _, w := range in.Workers {
		at := w.Depart
		if at < 0 {
			at = 0
		}
		if at > horizon {
			continue
		}
		b.addWorker(at, horizon, w)
	}
	return b.finish()
}

// Counts tallies the trace's event kinds.
func (t *Trace) Counts() (taskArrive, taskExpire, workerArrive, workerLeave int) {
	for _, e := range t.Events {
		switch e.Kind {
		case TaskArrive:
			taskArrive++
		case TaskExpire:
			taskExpire++
		case WorkerArrive:
			workerArrive++
		case WorkerLeave:
			workerLeave++
		}
	}
	return
}
