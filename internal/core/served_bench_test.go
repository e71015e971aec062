package core_test

import (
	"context"
	"testing"

	"rdbsc/internal/core"
	"rdbsc/internal/workload"
)

// BenchmarkGreedyServedScale runs the default greedy on the one-shot
// instances of the scenarios the repository benchmark serves, at its
// scales: churn 120/240 (churn-serve, one connected component) and clique
// 60/120 (clique-adaptive's greedy lane). It is an external test package so
// it can import internal/workload, which depends on core through engine.
func BenchmarkGreedyServedScale(b *testing.B) {
	for _, sc := range []struct {
		name string
		m, n int
	}{{"churn", 120, 240}, {"clique", 60, 120}} {
		b.Run(sc.name, func(b *testing.B) {
			s, err := workload.ByName(sc.name)
			if err != nil {
				b.Fatal(err)
			}
			p := core.NewProblem(s.Instance(workload.Params{M: sc.m, N: sc.n, Seed: 1}))
			g := core.NewGreedy()
			b.ReportAllocs()
			b.ResetTimer()
			var last *core.Result
			for i := 0; i < b.N; i++ {
				if last, err = g.Solve(context.Background(), p, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(last.Stats.PairsEvaluated), "pairsEvaluated")
		})
	}
}
