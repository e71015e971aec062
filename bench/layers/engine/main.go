// Command engine is the replay probe of internal/engine: every request of
// the stream applied as one batch and followed by the snapshot the apply
// loop publishes after it, exactly the two calls the serving planes make.
package main

import (
	"rdbsc/bench/probe"
	"rdbsc/bench/probe/mut"
	"rdbsc/internal/engine"
)

func main() {
	a := probe.ParseArgs()
	rp := probe.Load(a)
	rec := probe.NewRecorder()
	res := probe.NewResult()

	// Like the server: start empty, then take the preload as array batches
	// (the grid's cell size depends on how the engine was born).
	eng := engine.New(engine.Config{Beta: rp.State.Beta, BetaSet: true, Opt: rp.State.Opt})
	for _, r := range rp.Preload {
		eng.ApplyBatch(mut.Of(r))
		eng.Snapshot()
	}
	for _, r := range rp.Requests {
		muts := mut.Of(r)
		root := rec.Begin("engine.request", -1, r.ID)
		span := rec.Begin("engine.apply", root, r.ID)
		eng.ApplyBatch(muts)
		rec.End(span)
		span = rec.Begin("engine.snapshot", root, r.ID)
		snap := eng.Snapshot()
		rec.End(span)
		rec.End(root)
		if !snap.Rebuilt {
			// Nothing changed (a re-report): the cached problem came back.
			rec.Spans[span].Name = "engine.snapshot_cached"
		} else {
			// The instance copy is one of the things a rebuild does; time
			// it on its own, on the same state.
			rec.Time("engine.instance_copy", r.ID, func() { eng.Instance() })
		}
	}

	res.Timed(rec, "engine.apply", "engine.apply_us", "us")
	res.Timed(rec, "engine.snapshot", "engine.snapshot_ms", "ms")
	res.Timed(rec, "engine.instance_copy", "engine.instance_copy_us", "us")
	tasks, workers := eng.Len()
	snapshotNS := res.Metrics["engine.snapshot_ms"].Value * 1e6
	res.Metrics["engine.snapshot_ns_per_entity"] = probe.Metric{Value: snapshotNS / float64(max(tasks+workers, 1)), Unit: "ns", Count: tasks + workers}
	if a.Spec.MutMajor && a.Spec.Shards == 1 {
		res.AddChain(rec, "engine.request")
	}
	res.Write(rec, a.Out)
}
