package exp

import (
	"context"

	"rdbsc/internal/decompose"
	"rdbsc/internal/model"
	"rdbsc/internal/workload"
)

// scenarioSweep sweeps the named workload-scenario suite (package workload)
// as the x-axis: every scenario's one-shot instance through the four
// approaches. This goes beyond the paper's Table 2 settings — it is the
// quality/timing panel for the scenario vocabulary the differential tests
// and the repository benchmark draw their workloads from.
func scenarioSweep() Experiment {
	return Experiment{
		ID:     "scenarios",
		Title:  "Named workload scenarios (Zipf popularity, rush hour, moving hotspot, churn, islands, clique) × four approaches",
		XLabel: "scenario",
		PaperShape: "(beyond the paper: heuristic gaps widen on skewed/adversarial " +
			"workloads; decomposable islands solve fastest)",
		Run: func(ctx context.Context, sc Scale) []Row {
			sc = sc.withDefaults()
			var rows []Row
			for _, s := range workload.Registry() {
				if ctx.Err() != nil {
					break
				}
				scenario := s
				// Memoize per-seed instances: the component count below
				// reuses sweepPoint's first build instead of regenerating
				// (the churn scenario replays a whole trace per build).
				cache := map[int64]*model.Instance{}
				mk := func(seed int64) *model.Instance {
					if in, ok := cache[seed]; ok {
						return in
					}
					in := scenario.Instance(workload.Params{M: sc.M, N: sc.N, Seed: seed})
					cache[seed] = in
					return in
				}
				row := sweepPoint(ctx, scenario.Name, sc, true, mk)
				// The component count contextualizes the timing column:
				// islands shards, clique cannot.
				row.Extra["components"] = float64(decompose.Build(mk(sc.Seed).ValidPairs()).Len())
				rows = append(rows, row)
			}
			return rows
		},
	}
}
