// Command adaptive is the replay probe of internal/adaptive: on evenly
// spaced states of the replayed stream, the admission plan the SLO tier
// computes for a request, and the solve through its lane dispatcher as
// the serve plane wires it.
package main

import (
	"context"
	"time"

	"rdbsc/bench/probe"
	"rdbsc/internal/adaptive"
	"rdbsc/internal/core"
	"rdbsc/internal/decompose"
)

func main() {
	a := probe.ParseArgs()
	rp := probe.Load(a)
	rec := probe.NewRecorder()
	res := probe.NewResult()
	ctx := context.Background()

	ctrl := adaptive.New(adaptive.Config{Budget: a.Spec.SLOp99})
	for i, r := range rp.Requests {
		rp.State.Apply(r)
		id, ok := a.Sample(i)
		if !ok {
			continue
		}
		in := rp.State.Instance()
		pairs := in.ValidPairs()
		p := core.NewProblemWithPairs(in, pairs)
		shape := adaptive.NewShape(p, decompose.BuildSized(pairs, len(in.Tasks), len(in.Workers)))
		root := rec.Begin("adaptive.request", -1, id)
		span := rec.Begin("adaptive.plan", root, id)
		plan := ctrl.PlanRequest(shape)
		rec.End(span)
		if !plan.OverBudget {
			span = rec.Begin("adaptive.solve", root, id)
			if _, err := core.NewSharded(adaptive.NewSolver(ctrl)).Solve(ctx, p, &core.SolveOptions{Seed: int64(id + 1)}); err != nil {
				probe.Fatal(err)
			}
			rec.End(span)
			ctrl.ObserveRequest(time.Duration(rec.Spans[span].End - rec.Spans[span].Start))
		}
		rec.End(root)
	}

	res.Timed(rec, "adaptive.plan", "adaptive.plan_us", "us")
	res.Timed(rec, "adaptive.solve", "adaptive.solve_ms", "ms")
	res.AddChain(rec, "adaptive.request")
	res.Write(rec, a.Out)
}
