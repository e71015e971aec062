package workload

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"testing"

	"rdbsc/internal/core"
	"rdbsc/internal/decompose"
	"rdbsc/internal/engine"
	"rdbsc/internal/model"
)

func params() Params { return Params{M: 80, N: 160, Seed: 1, Horizon: 4} }

// TestRegistry pins the scenario vocabulary: the benchmark's workloads
// (bench/traffic) and the differential tests name scenarios by these keys.
func TestRegistry(t *testing.T) {
	want := []string{"uniform", "dense", "islands", "zipf", "rush-hour", "hotspot", "churn", "clique"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for _, name := range want {
		s, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if s.Instance == nil || s.Trace == nil {
			t.Fatalf("scenario %q must provide both Instance and Trace", name)
		}
	}
	if _, err := ByName("no-such"); err == nil {
		t.Fatal("ByName(no-such) should fail")
	}
}

// TestSeedDeterminism is the reproducibility contract: the same seed yields
// a byte-identical trace encoding and a deeply equal instance; a different
// seed yields different bytes.
func TestSeedDeterminism(t *testing.T) {
	for _, s := range Registry() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			p := params()
			a, b := s.Trace(p).Encode(), s.Trace(p).Encode()
			if !bytes.Equal(a, b) {
				t.Errorf("same seed produced different trace bytes")
			}
			other := p
			other.Seed = 999
			if bytes.Equal(a, s.Trace(other).Encode()) {
				t.Errorf("different seeds produced identical traces")
			}
			in1, in2 := s.Instance(p), s.Instance(p)
			if !reflect.DeepEqual(in1, in2) {
				t.Errorf("same seed produced different instances")
			}
		})
	}
}

// TestTraceWellFormed checks structural trace invariants: sorted events,
// horizon respected, and departures only for entities that arrived.
func TestTraceWellFormed(t *testing.T) {
	for _, s := range Registry() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			tr := s.Trace(params())
			if len(tr.Events) == 0 {
				t.Fatal("empty trace")
			}
			if tr.Scenario != s.Name {
				t.Errorf("trace scenario %q, want %q", tr.Scenario, s.Name)
			}
			tasks := map[model.TaskID]bool{}
			workers := map[model.WorkerID]bool{}
			last := 0.0
			for i, e := range tr.Events {
				if e.At < last {
					t.Fatalf("event %d out of order: %v after %v", i, e.At, last)
				}
				last = e.At
				if e.At < 0 || e.At > tr.Horizon {
					t.Fatalf("event %d at %v outside [0, %v]", i, e.At, tr.Horizon)
				}
				switch e.Kind {
				case TaskArrive:
					tasks[e.Task.ID] = true
				case TaskExpire:
					if !tasks[e.TaskID] {
						t.Fatalf("task %d expires before arriving", e.TaskID)
					}
				case WorkerArrive:
					workers[e.Worker.ID] = true
				case WorkerLeave:
					if !workers[e.WorkerID] {
						t.Fatalf("worker %d leaves before arriving", e.WorkerID)
					}
				}
			}
		})
	}
}

// TestInstancesSolvable checks every scenario's one-shot instance is
// well-formed, has valid pairs, and admits a feasible greedy assignment —
// a scenario that cannot be solved cannot be benchmarked.
func TestInstancesSolvable(t *testing.T) {
	for _, s := range Registry() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			in := s.Instance(params())
			if err := in.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			p := core.NewProblem(in)
			if len(p.Pairs) == 0 {
				t.Fatal("no valid pairs")
			}
			res, err := core.NewGreedy().Solve(context.Background(), p, nil)
			if err != nil {
				t.Fatalf("greedy: %v", err)
			}
			if res.Assignment.Len() == 0 {
				t.Fatal("greedy assigned nothing: scenario is infeasible")
			}
			if err := in.CheckAssignment(res.Assignment); err != nil {
				t.Fatalf("invalid assignment: %v", err)
			}
		})
	}
}

// TestIslandsDisconnected verifies the multi-city scenario really is
// disconnected per internal/decompose: at least islandCount components and
// no component spanning two islands' ID ranges.
func TestIslandsDisconnected(t *testing.T) {
	p := params()
	in := islandsInstance(p)
	part := decompose.Build(in.ValidPairs())
	if part.Len() < islandCount {
		t.Fatalf("islands decomposed into %d components, want >= %d", part.Len(), islandCount)
	}
	perM := p.M / islandCount
	for _, c := range part.Components {
		island := int(c.Tasks[0]) / perM
		for _, id := range c.Tasks {
			if int(id)/perM != island {
				t.Fatalf("component %v spans islands %d and %d", c.Key, island, int(id)/perM)
			}
		}
	}
}

// TestCliqueIsOneGiantComponent verifies the adversarial scenario's shape:
// a single component covering nearly all of m×n.
func TestCliqueIsOneGiantComponent(t *testing.T) {
	in := cliqueInstance(params())
	pairs := in.ValidPairs()
	if got, want := len(pairs), int(0.8*80*160); got < want {
		t.Fatalf("clique has %d valid pairs, want >= %d (near-clique)", got, want)
	}
	if n := decompose.Build(pairs).Len(); n != 1 {
		t.Fatalf("clique decomposed into %d components, want 1", n)
	}
}

// TestZipfConcentration verifies popularity skew: the busiest 0.1×0.1 cell
// holds far more than the uniform share of tasks.
func TestZipfConcentration(t *testing.T) {
	in := zipfInstance(params())
	bins := map[[2]int]int{}
	for _, task := range in.Tasks {
		bins[[2]int{int(task.Loc.X * 10), int(task.Loc.Y * 10)}]++
	}
	best := 0
	for _, c := range bins {
		if c > best {
			best = c
		}
	}
	if frac := float64(best) / float64(len(in.Tasks)); frac < 0.10 {
		t.Fatalf("busiest cell holds %.0f%% of tasks; want >= 10%% (Zipf skew)", 100*frac)
	}
}

// TestRushHourBursty verifies temporal concentration around the two bursts.
func TestRushHourBursty(t *testing.T) {
	p := params()
	in := rushHourInstance(p)
	inBurst := 0
	for _, task := range in.Tasks {
		d1 := math.Abs(task.Start - rushBurst1Frac*p.Horizon)
		d2 := math.Abs(task.Start - rushBurst2Frac*p.Horizon)
		if math.Min(d1, d2) < 0.15*p.Horizon {
			inBurst++
		}
	}
	if frac := float64(inBurst) / float64(len(in.Tasks)); frac < 0.75 {
		t.Fatalf("only %.0f%% of task starts near a burst; want >= 75%%", 100*frac)
	}
}

// TestHotspotDrifts verifies the hotspot actually moves: late demand sits
// far from early demand.
func TestHotspotDrifts(t *testing.T) {
	p := params()
	in := hotspotInstance(p)
	var earlyX, lateX float64
	var earlyN, lateN int
	for _, task := range in.Tasks {
		switch {
		case task.Start < p.Horizon/4:
			earlyX += task.Loc.X
			earlyN++
		case task.Start > 3*p.Horizon/4:
			lateX += task.Loc.X
			lateN++
		}
	}
	if earlyN == 0 || lateN == 0 {
		t.Fatal("no early or late tasks")
	}
	if drift := lateX/float64(lateN) - earlyX/float64(earlyN); drift < 0.3 {
		t.Fatalf("hotspot drifted only %.2f in X; want >= 0.3", drift)
	}
}

// TestChurnSteadyState verifies the churn scenario's rates produce a
// mid-horizon alive population near the target scale, and that the trace
// is dominated by worker churn.
func TestChurnSteadyState(t *testing.T) {
	p := params()
	in := churnInstance(p)
	if got := len(in.Tasks); got < p.M/2 || got > 2*p.M {
		t.Fatalf("alive tasks %d far from target %d", got, p.M)
	}
	if got := len(in.Workers); got < p.N/2 || got > 2*p.N {
		t.Fatalf("alive workers %d far from target %d", got, p.N)
	}
	_, _, wa, wl := churnTrace(p).Counts()
	if wa < 2*p.N {
		t.Fatalf("worker arrivals %d; want heavy churn (>= %d)", wa, 2*p.N)
	}
	if wl == 0 {
		t.Fatal("no worker departures in a churn trace")
	}
}

// TestTraceFromInstanceDropsLateWorkers is the regression test for a
// confirmed bug: a worker checking in after the trace horizon used to keep
// its WorkerLeave event (scheduled exactly at the horizon) while its
// arrival was dropped, producing a departure for an entity that never
// arrived.
func TestTraceFromInstanceDropsLateWorkers(t *testing.T) {
	in := denseInstance(params())
	in.Tasks = in.Tasks[:4]
	late := in.Workers[0]
	late.ID = 9999
	late.Depart = 1e6 // far beyond any task expiry
	in.Workers = append(in.Workers, late)
	tr := TraceFromInstance(in, "dense", 1, 0)
	_, _, wa, wl := tr.Counts()
	if wa != wl {
		t.Fatalf("worker arrivals %d != departures %d", wa, wl)
	}
	for _, e := range tr.Events {
		if e.Kind == WorkerLeave && e.WorkerID == late.ID {
			t.Fatal("late worker has a departure without an arrival")
		}
	}
}

// TestTraceHorizonCap: Params.Horizon bounds instance-first traces; a cap
// above the instance extent is a no-op.
func TestTraceHorizonCap(t *testing.T) {
	sc, _ := ByName("uniform")
	p := params()
	p.Horizon = 2
	tr := sc.Trace(p)
	if tr.Horizon > 2 {
		t.Fatalf("horizon %v, want <= 2", tr.Horizon)
	}
	for _, e := range tr.Events {
		if e.At > 2 {
			t.Fatalf("event at %v beyond the capped horizon", e.At)
		}
	}
	p.Horizon = 1e6
	if got := sc.Trace(p).Horizon; got > 30 {
		t.Fatalf("uncapped horizon %v should be the instance extent (~24h)", got)
	}
}

// TestEventMutationBatch applies a trace through Event.Mutation and
// Engine.ApplyBatch in chunks and checks unknown kinds panic instead of
// becoming a removal.
func TestEventMutationBatch(t *testing.T) {
	sc, _ := ByName("dense")
	trace := sc.Trace(params())
	eng := engine.New(engine.Config{Beta: trace.Beta, Opt: trace.Opt})
	for i := 0; i < len(trace.Events); i += 16 {
		end := min(i+16, len(trace.Events))
		batch := make([]engine.Mutation, 0, 16)
		for _, e := range trace.Events[i:end] {
			batch = append(batch, e.Mutation())
		}
		eng.ApplyBatch(batch)
	}
	if gotT, gotW := eng.Len(); gotT != 0 || gotW != 0 {
		t.Fatalf("batch replay left %d tasks, %d workers", gotT, gotW)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Mutation() on an unknown kind should panic")
		}
	}()
	_ = Event{Kind: EventKind(99)}.Mutation()
}

// TestApplyTrace replays a full trace into an engine event by event, each
// as a one-mutation batch: after every arrival and departure has applied,
// the engine must be empty again (instance-derived traces expire every task
// and retire every worker by the horizon), and mid-replay the engine must
// hold exactly the alive set.
func TestApplyTrace(t *testing.T) {
	tr, _ := ByName("dense")
	trace := tr.Trace(params())
	eng := engine.New(engine.Config{Beta: trace.Beta, Opt: trace.Opt})
	aliveTasks, aliveWorkers := 0, 0
	for i, e := range trace.Events {
		if !eng.ApplyBatch([]engine.Mutation{e.Mutation()})[0] {
			t.Fatalf("event %d (%v at %v) did not change the engine", i, e.Kind, e.At)
		}
		switch e.Kind {
		case TaskArrive:
			aliveTasks++
		case TaskExpire:
			aliveTasks--
		case WorkerArrive:
			aliveWorkers++
		case WorkerLeave:
			aliveWorkers--
		}
		gotT, gotW := eng.Len()
		if gotT != aliveTasks || gotW != aliveWorkers {
			t.Fatalf("after event %d: engine %d/%d, trace alive %d/%d", i, gotT, gotW, aliveTasks, aliveWorkers)
		}
	}
	if aliveTasks != 0 || aliveWorkers != 0 {
		t.Fatalf("trace left %d tasks, %d workers alive at horizon", aliveTasks, aliveWorkers)
	}
}
