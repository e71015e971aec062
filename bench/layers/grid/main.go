// Command grid is the replay probe of internal/grid: the index updates a
// request causes, the full valid-pair walk a snapshot rebuild does after
// it, and the per-entity candidate query an incremental design would do
// instead.
package main

import (
	"rdbsc/bench/probe"
	"rdbsc/bench/traffic"
	"rdbsc/internal/grid"
	"rdbsc/internal/model"
)

func main() {
	a := probe.ParseArgs()
	rp := probe.Load(a)
	rec := probe.NewRecorder()
	res := probe.NewResult()

	// The server's engine starts empty, so its grid is grid.New with the
	// default cell size, filled by the preload. cur mirrors what the grid
	// holds: removals need the entity's indexed location.
	g := grid.New(grid.Config{}, rp.State.Opt)
	cur := &traffic.State{Tasks: map[model.TaskID]model.Task{}, Workers: map[model.WorkerID]model.Worker{}}
	for _, r := range rp.Preload {
		update(g, cur, r)
	}
	for _, r := range rp.Requests {
		span := rec.Begin("grid.update", -1, r.ID)
		changed := update(g, cur, r)
		rec.End(span)
		if !changed {
			// An unchanged re-report touches no cell and bumps no version:
			// no rebuild follows it.
			rec.Spans[span].Name = "grid.update_noop"
		} else {
			rec.Time("grid.valid_pairs", r.ID, func() { g.ValidPairs() })
		}
		for _, t := range r.Tasks {
			rec.Time("grid.candidate_query", r.ID, func() { g.CandidateWorkers(t) })
		}
		for _, w := range r.Workers {
			rec.Time("grid.candidate_query", r.ID, func() { g.CandidateTasks(w) })
		}
	}

	res.Timed(rec, "grid.update", "grid.update_us", "us")
	res.Timed(rec, "grid.valid_pairs", "grid.valid_pairs_ms", "ms")
	res.Timed(rec, "grid.candidate_query", "grid.candidate_query_us", "us")
	res.Write(rec, a.Out)
}

// update applies one request to the grid the way engine.Upsert*/Remove*
// do — remove the old copy, insert the new, skip a byte-identical
// re-upsert — and reports whether anything changed.
func update(g *grid.Grid, cur *traffic.State, r traffic.Request) (changed bool) {
	switch r.Kind {
	case traffic.UpsertTasks:
		for _, t := range r.Tasks {
			old, had := cur.Tasks[t.ID]
			if had && old == t {
				continue
			}
			if had {
				g.RemoveTask(old.ID, old.Loc)
			}
			g.InsertTask(t)
			changed = true
		}
	case traffic.UpsertWorkers:
		for _, w := range r.Workers {
			old, had := cur.Workers[w.ID]
			if had && old == w {
				continue
			}
			if had {
				g.RemoveWorker(old.ID, old.Loc)
			}
			g.InsertWorker(w)
			changed = true
		}
	case traffic.RemoveTask:
		if old, had := cur.Tasks[r.TaskID]; had {
			changed = g.RemoveTask(old.ID, old.Loc)
		}
	case traffic.RemoveWorker:
		if old, had := cur.Workers[r.WorkerID]; had {
			changed = g.RemoveWorker(old.ID, old.Loc)
		}
	}
	cur.Apply(r)
	return changed
}
