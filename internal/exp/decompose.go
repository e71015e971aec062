package exp

import (
	"context"
	"fmt"

	"rdbsc/internal/core"
	"rdbsc/internal/engine"
	"rdbsc/internal/gen"
	"rdbsc/internal/geo"
	"rdbsc/internal/model"
	"rdbsc/internal/rng"
)

// ablationDecompose measures the connected-component decomposition on a
// multi-island workload, in both execution modes:
//
//   - one-shot: the monolithic solver vs the sharded wrapper on the same
//     instance (the wrapper solves the islands concurrently under a
//     GOMAXPROCS-bounded pool);
//   - churn: an engine re-solving after single-island churn with and
//     without Config.Decompose (the decomposed engine re-solves only the
//     dirty component and serves the rest from its result cache).
//
// The quality panels report the merged objective of each variant; the
// extras carry wall time, component counts, and cache reuse. Quality may
// differ slightly between monolithic and sharded runs of heuristic solvers
// (cross-component tie-breaking; see the core.Sharded docs) — the
// decomposition's exactness claims are pinned by the differential suite,
// and this ablation is about cost.
func ablationDecompose() Experiment {
	return Experiment{
		ID:         "ablation-decompose",
		Title:      "Connected-component decomposition: monolithic vs sharded vs cached churn rounds",
		XLabel:     "variant",
		PaperShape: "(ablation; islands solve concurrently and churn rounds re-solve only dirty components)",
		Run: func(ctx context.Context, sc Scale) []Row {
			sc = sc.withDefaults()
			const islands = 8
			perM, perN := sc.M/islands, sc.N/islands
			if perM < 2 {
				perM = 2
			}
			if perN < 4 {
				perN = 4
			}
			var rows []Row
			for s := int64(0); s < int64(sc.Seeds) && ctx.Err() == nil; s++ {
				seed := sc.Seed + s*1000
				in := gen.GenerateIslands(gen.Default().WithScale(perM, perN).WithSeed(seed), islands)
				oneShotRows(ctx, sc, in, seed, &rows)
				churnRows(ctx, sc, in, seed, &rows)
			}
			return mergeRowsByX(rows)
		},
	}
}

// oneShotRows times one monolithic and one sharded solve of the instance.
func oneShotRows(ctx context.Context, sc Scale, in *model.Instance, seed int64, rows *[]Row) {
	p := core.NewProblem(in)
	for _, variant := range []struct {
		x    string
		wrap bool
	}{
		{"monolithic", false},
		{"sharded", true},
	} {
		var solver core.Solver = core.NewGreedy()
		if variant.wrap {
			solver = core.NewSharded(solver)
		}
		var res *core.Result
		var solveErr error
		secs := timed(func() {
			res, solveErr = solver.Solve(ctx, p, &core.SolveOptions{Source: rng.New(seed)})
		})
		if solveErr != nil {
			continue // interrupted partial solves would skew the ablation
		}
		row := newRow(variant.x)
		row.MinRel["GREEDY"] = res.Eval.MinRel
		row.TotalSTD["GREEDY"] = res.Eval.TotalESTD
		row.Extra["time_s"] = secs
		if variant.wrap {
			row.Extra["components"] = float64(res.Stats.Components)
			row.Extra["max_comp_pairs"] = float64(res.Stats.MaxComponentPairs)
		}
		*rows = append(*rows, row)
	}
}

// churnRows runs R churn rounds — one fresh worker lands on one island's
// task, then a re-solve — through an engine with and without Decompose.
func churnRows(ctx context.Context, sc Scale, in *model.Instance, seed int64, rows *[]Row) {
	const rounds = 6
	for _, variant := range []struct {
		x         string
		decompose bool
	}{
		{"engine", false},
		{"engine+decompose", true},
	} {
		eng := engine.NewFromInstance(in, engine.Config{
			SolverName: "greedy",
			Decompose:  variant.decompose,
		})
		src := rng.New(seed + 7)
		var res *core.Result
		var solveErr error
		var reused int
		secs := timed(func() {
			for r := 0; r < rounds && ctx.Err() == nil; r++ {
				target := in.Tasks[r%len(in.Tasks)]
				eng.UpsertWorker(model.Worker{
					ID:         model.WorkerID(100000 + r),
					Loc:        target.Loc,
					Speed:      0.001,
					Dir:        geo.FullCircle,
					Confidence: 0.9,
					Depart:     target.Start,
				})
				res, solveErr = eng.Solve(ctx, &core.SolveOptions{Source: src.Split()})
				if solveErr != nil {
					return
				}
				reused += res.Stats.ComponentsReused
			}
		})
		if solveErr != nil || res == nil {
			continue
		}
		row := newRow(variant.x)
		row.MinRel["GREEDY"] = res.Eval.MinRel
		row.TotalSTD["GREEDY"] = res.Eval.TotalESTD
		row.Extra[fmt.Sprintf("time_%dr_s", rounds)] = secs
		if variant.decompose {
			row.Extra["comp_reused"] = float64(reused)
		}
		*rows = append(*rows, row)
	}
}

// mergeRowsByX averages rows sharing an X label across seeds, preserving
// first-appearance order.
func mergeRowsByX(rows []Row) []Row {
	var order []string
	sums := make(map[string]Row)
	counts := make(map[string]int)
	for _, r := range rows {
		agg, ok := sums[r.X]
		if !ok {
			order = append(order, r.X)
			agg = newRow(r.X)
		}
		for k, v := range r.MinRel {
			agg.MinRel[k] += v
		}
		for k, v := range r.TotalSTD {
			agg.TotalSTD[k] += v
		}
		for k, v := range r.Seconds {
			agg.Seconds[k] += v
		}
		for k, v := range r.Extra {
			agg.Extra[k] += v
		}
		sums[r.X] = agg
		counts[r.X]++
	}
	out := make([]Row, 0, len(order))
	for _, x := range order {
		agg := sums[x]
		n := float64(counts[x])
		for k := range agg.MinRel {
			agg.MinRel[k] /= n
		}
		for k := range agg.TotalSTD {
			agg.TotalSTD[k] /= n
		}
		for k := range agg.Seconds {
			agg.Seconds[k] /= n
		}
		for k := range agg.Extra {
			agg.Extra[k] /= n
		}
		out = append(out, agg)
	}
	return out
}
