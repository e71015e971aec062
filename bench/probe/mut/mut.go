// Package mut converts the benchmark's requests into engine mutations. It
// is apart from package probe so that only the probes that drive an
// engine-typed API (applyloop, store, engine, cluster) depend on
// internal/engine.
package mut

import (
	"rdbsc/bench/traffic"
	"rdbsc/internal/engine"
)

// Of returns the mutations one request carries, in order.
func Of(r traffic.Request) []engine.Mutation {
	switch r.Kind {
	case traffic.UpsertTasks:
		out := make([]engine.Mutation, len(r.Tasks))
		for i, t := range r.Tasks {
			out[i] = engine.TaskUpsert(t)
		}
		return out
	case traffic.UpsertWorkers:
		out := make([]engine.Mutation, len(r.Workers))
		for i, w := range r.Workers {
			out[i] = engine.WorkerUpsert(w)
		}
		return out
	case traffic.RemoveTask:
		return []engine.Mutation{engine.TaskRemoval(r.TaskID)}
	default:
		return []engine.Mutation{engine.WorkerRemoval(r.WorkerID)}
	}
}
