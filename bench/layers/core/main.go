// Command core is the replay probe of internal/core: on evenly spaced
// states of the replayed stream it times problem indexing, the solver(s)
// the workload's solves run, and the pieces of a sharded solve
// (component sub-problem, merge, evaluate).
package main

import (
	"context"
	"strings"

	"rdbsc/bench/probe"
	"rdbsc/internal/core"
	"rdbsc/internal/decompose"
	"rdbsc/internal/model"
	"rdbsc/internal/objective"
)

// solveMetric names the metric a registry name's solve time is reported
// under: one per solver family the paper has.
func solveMetric(name string) string {
	switch strings.TrimPrefix(name, "sharded-") {
	case "greedy":
		return "core.greedy_solve_ms"
	case "sampling":
		return "core.sampling_solve_ms"
	default:
		return "core.dc_solve_ms"
	}
}

func main() {
	a := probe.ParseArgs()
	rp := probe.Load(a)
	rec := probe.NewRecorder()
	res := probe.NewResult()
	ctx := context.Background()

	for _, m := range []string{"core.greedy_solve_ms", "core.sampling_solve_ms", "core.dc_solve_ms"} {
		res.Metrics[m] = probe.Metric{Unit: "ms"} // 0: not a solver of this workload
	}
	for i, r := range rp.Requests {
		rp.State.Apply(r)
		id, ok := a.Sample(i)
		if !ok {
			continue
		}
		in := rp.State.Instance()
		pairs := in.ValidPairs()
		var p *core.Problem
		rec.Time("core.index", id, func() { p = core.NewProblemWithPairs(in, pairs) })

		var last *core.Result
		for _, name := range a.Spec.ProbeSolvers {
			solver, err := core.NewByName(name)
			if err != nil {
				probe.Fatal(err)
			}
			rec.Time("core.solve."+name, id, func() {
				if last, err = solver.Solve(ctx, p, &core.SolveOptions{Seed: int64(id + 1)}); err != nil {
					probe.Fatal(err)
				}
			})
		}
		rec.Time("core.evaluate", id, func() { p.Evaluate(last.Assignment) })

		// The pieces core.Sharded is made of, on the same state.
		part := decompose.BuildSized(pairs, len(in.Tasks), len(in.Workers))
		for c := range part.Components {
			rec.Time("core.component_problem", id, func() { core.ComponentProblem(p, &part.Components[c]) })
		}
		inner, err := core.NewByName(strings.TrimPrefix(a.Spec.ProbeSolvers[0], "sharded-"))
		if err != nil {
			probe.Fatal(err)
		}
		sel := make([]bool, part.Len())
		seeds := make([]int64, part.Len())
		for c := range sel {
			sel[c], seeds[c] = true, int64(c+1)
		}
		results, errs := core.SolveComponents(ctx, inner, p, part.Components, sel, seeds,
			make([]map[model.TaskID]*objective.TaskState, part.Len()), 0, nil)
		if err := core.CombineComponentErrors(errs); err != nil {
			probe.Fatal(err)
		}
		rec.Time("core.merge", id, func() { core.MergeComponentResults(p, results) })
	}

	res.Timed(rec, "core.index", "core.index_us", "us")
	for _, name := range a.Spec.ProbeSolvers {
		res.Timed(rec, "core.solve."+name, solveMetric(name), "ms")
	}
	res.Timed(rec, "core.component_problem", "core.component_problem_us", "us")
	res.Timed(rec, "core.merge", "core.merge_us", "us")
	res.Timed(rec, "core.evaluate", "core.evaluate_us", "us")
	if !a.Spec.MutMajor && a.Spec.SLOp99 == 0 {
		res.AddChain(rec, "core.solve."+a.Spec.ProbeSolvers[0])
	}
	res.Write(rec, a.Out)
}
