package main

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"time"

	"rdbsc/bench/traffic"
	"rdbsc/internal/core"
	"rdbsc/internal/model"
)

// finalChecks is the correctness gate at the quiesced end of a run. Every
// failure is recorded; a run with any failure reports correct=false and
// the command exits non-zero.
func (w *workloadRun) finalChecks() {
	if w.cfg.corruptModel != nil {
		w.cfg.corruptModel(w.model)
	}
	res := w.res
	st := w.checkPopulation("the final quiesce")
	if st == nil {
		return
	}
	if st.Cluster != nil {
		if n := st.Cluster.ConsistencyFailures; n != 0 {
			res.failf("cluster consistency_failures = %d", n)
		}
		if n := st.Cluster.MoveRetireFailures; n != 0 {
			res.failf("cluster move_retire_failures = %d", n)
		}
	}

	// The same seed twice must give the same bytes (a fixed solver and
	// seed fix the answer). The adaptive tier picks its lane from learned
	// costs, so there the rule does not apply.
	seedOne := traffic.Solve{Solver: w.cfg.spec.Solver, Seed: 1}
	first, ok1 := w.solve(seedOne)
	second, ok2 := w.solve(seedOne)
	if !ok1 || !ok2 {
		res.failf("seed-1 solve of the final state failed")
		return
	}
	if w.cfg.spec.SLOp99 == 0 && !bytes.Equal(first.Assignment, second.Assignment) {
		res.failf("seed-1 solve issued twice returned different assignments")
	}
	in := w.model.Instance()
	problem := core.NewProblem(in)
	w.verifyAnswer("seed-1 solve", first, problem)

	if w.cfg.spec.SLOp99 > 0 {
		// What the SLO tier gave up: its answer over an explicit greedy
		// solve of the same state, which bypasses the tier.
		if ref, ok := w.solve(traffic.Solve{Solver: "greedy", Seed: 1}); ok {
			w.verifyAnswer("explicit greedy solve", ref, problem)
			res.layer["adaptive.quality_ratio_min_reliability"] = metric{Value: ratio(first.MinReliability, ref.MinReliability), Unit: "ratio"}
			res.layer["adaptive.quality_ratio_total_diversity"] = metric{Value: ratio(first.TotalDiversity, ref.TotalDiversity), Unit: "ratio"}
		} else {
			res.failf("explicit greedy solve of the final state failed")
		}
	}

	if w.cfg.spec.Durable {
		w.crashRestart(st, first)
	}
}

// verifyAnswer checks one solve response against the harness's own model
// of the state it was solved on: every assigned pair is a valid pair of
// the model, no worker is assigned twice, and the reported objectives are
// what the model evaluates the assignment to.
func (w *workloadRun) verifyAnswer(what string, resp *solveWire, problem *core.Problem) {
	var pairs []assignedPair
	if err := json.Unmarshal(resp.Assignment, &pairs); err != nil {
		w.res.failf("%s: assignment: %v", what, err)
		return
	}
	type edge struct {
		t model.TaskID
		w model.WorkerID
	}
	valid := make(map[edge]bool, len(problem.Pairs))
	for _, p := range problem.Pairs {
		valid[edge{p.Task, p.Worker}] = true
	}
	a := model.NewAssignment()
	for _, p := range pairs {
		e := edge{model.TaskID(p.Task), model.WorkerID(p.Worker)}
		if !valid[e] {
			w.res.failf("%s: assigned pair (worker %d, task %d) is not a valid pair of the model", what, p.Worker, p.Task)
			return
		}
		if a.Assigned(e.w) {
			w.res.failf("%s: worker %d is assigned twice", what, p.Worker)
			return
		}
		a.Assign(e.w, e.t)
	}
	eval := problem.Evaluate(a)
	if math.Abs(eval.MinRel-resp.MinReliability) > 1e-9 {
		w.res.failf("%s: min_reliability %v, the model evaluates %v", what, resp.MinReliability, eval.MinRel)
	}
	if math.Abs(eval.TotalESTD-resp.TotalDiversity) > 1e-9 {
		w.res.failf("%s: total_diversity %v, the model evaluates %v", what, resp.TotalDiversity, eval.TotalESTD)
	}
}

// crashRestart kills the server with SIGKILL, restarts it on the same data
// directory, and requires the population, the version vector and the
// seed-1 solve to be what they were before the kill: every acknowledged
// write survived and recovery is solve-identical. The time from exec to
// /healthz is store.recover_ms.
func (w *workloadRun) crashRestart(before *statsWire, solveBefore *solveWire) {
	res := w.res
	w.closeConns()
	w.srv.kill()
	w.srv = nil
	srv, err := startServer(w.cfg.serverBin, w.args)
	if err != nil {
		res.failf("restart after kill -9: %v", err)
		return
	}
	res.layer["store.recover_ms"] = metric{Value: float64(time.Since(srv.started)) / float64(time.Millisecond), Unit: "ms"}
	w.srv = srv
	w.m, w.s = newConn(srv.url), newConn(srv.url)
	after := w.checkPopulation("kill -9 and restart")
	if after == nil {
		return
	}
	if !slices.Equal(before.versionVector(), after.versionVector()) {
		res.failf("version vector %v before kill -9, %v after recovery", before.versionVector(), after.versionVector())
	}
	solveAfter, ok := w.solve(traffic.Solve{Solver: w.cfg.spec.Solver, Seed: 1})
	if !ok {
		res.failf("seed-1 solve after recovery failed")
		return
	}
	if !bytes.Equal(solveBefore.Assignment, solveAfter.Assignment) ||
		solveBefore.MinReliability != solveAfter.MinReliability ||
		solveBefore.TotalDiversity != solveAfter.TotalDiversity {
		res.failf("seed-1 solve after recovery differs from the one before kill -9")
	}
}
