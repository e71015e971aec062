// Command cluster is the replay probe of internal/cluster: the stream
// through Cluster.Mutate (routing, shard apply loops, per-shard WAL, the
// cross-shard move protocol) and, on evenly spaced states, Cluster.Solve
// with a timing solver inside, so that what remains of the wall time is
// the coordinator's own work: assemble, partition, merge, consistency
// check.
package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"rdbsc/bench/probe"
	"rdbsc/bench/probe/mut"
	"rdbsc/internal/cluster"
	"rdbsc/internal/core"
	"rdbsc/internal/store"
)

// timedSolver measures the interval during which the wrapped solver runs:
// from the first Solve entered to the last one returned. The coordinator
// solves components concurrently, so the union, not the sum, is what the
// wall time contains.
type timedSolver struct {
	core.Solver
	mu          sync.Mutex
	first, last time.Time
}

func (t *timedSolver) Solve(ctx context.Context, p *core.Problem, opts *core.SolveOptions) (*core.Result, error) {
	start := time.Now()
	res, err := t.Solver.Solve(ctx, p, opts)
	end := time.Now()
	t.mu.Lock()
	if t.first.IsZero() || start.Before(t.first) {
		t.first = start
	}
	if end.After(t.last) {
		t.last = end
	}
	t.mu.Unlock()
	return res, err
}

func main() {
	a := probe.ParseArgs()
	rp := probe.Load(a)
	rec := probe.NewRecorder()
	res := probe.NewResult()
	ctx := context.Background()

	cfg := cluster.Config{
		Shards: a.Spec.Shards, Beta: rp.State.Beta, BetaSet: true, Opt: rp.State.Opt,
		SolverName: a.Spec.ProbeSolvers[0],
	}
	if a.Spec.Durable {
		for i := 0; i < a.Spec.Shards; i++ {
			fs, err := store.Open(filepath.Join(a.Dir, fmt.Sprintf("shard-%d", i)), store.FileOptions{Fsync: store.FsyncBatch})
			if err != nil {
				probe.Fatal(err)
			}
			cfg.Stores = append(cfg.Stores, fs)
		}
		cfg.SnapshotEvery = 256
	}
	cl, err := cluster.New(cfg, nil)
	if err != nil {
		probe.Fatal(err)
	}
	for _, r := range rp.Preload {
		if _, err := cl.Mutate(ctx, mut.Of(r)...); err != nil {
			probe.Fatal(err)
		}
	}
	var overheadMS []float64
	for i, r := range rp.Requests {
		muts := mut.Of(r)
		rec.Time("cluster.mutate", r.ID, func() {
			if _, err := cl.Mutate(ctx, muts...); err != nil {
				probe.Fatal(err)
			}
		})
		id, ok := a.Sample(i)
		if !ok {
			continue
		}
		inner, err := core.NewByName(a.Spec.ProbeSolvers[0])
		if err != nil {
			probe.Fatal(err)
		}
		ts := &timedSolver{Solver: inner}
		span := rec.Begin("cluster.solve", -1, id)
		if _, _, err := cl.Solve(ctx, ts, &core.SolveOptions{Seed: int64(id + 1)}); err != nil {
			probe.Fatal(err)
		}
		rec.End(span)
		wall := time.Duration(rec.Spans[span].End - rec.Spans[span].Start)
		overheadMS = append(overheadMS, float64(wall-ts.last.Sub(ts.first))/float64(time.Millisecond))
	}
	shutCtx, cancel := context.WithTimeout(ctx, 15*time.Second)
	defer cancel()
	if err := cl.Shutdown(shutCtx); err != nil {
		probe.Fatal(err)
	}

	res.Timed(rec, "cluster.mutate", "cluster.mutate_us", "us")
	res.Metrics["cluster.solve_overhead_ms"] = probe.Metric{Value: probe.Median(overheadMS), Unit: "ms", Count: len(overheadMS)}
	if a.Spec.MutMajor {
		res.AddChain(rec, "cluster.mutate")
	}
	res.Write(rec, a.Out)
}
