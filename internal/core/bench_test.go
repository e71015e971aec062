package core

import (
	"context"
	"testing"

	"rdbsc/internal/gen"
	"rdbsc/internal/rng"
)

func benchProblem(b *testing.B, m, n int) *Problem {
	b.Helper()
	in := randomInstance(rng.New(7), m, n)
	return NewProblem(in)
}

// benchGreedy runs one greedy configuration and reports its
// bound-computation profile, the before/after of the incremental candidate
// maintenance.
func benchGreedy(b *testing.B, g *Greedy) {
	p := benchProblem(b, 40, 80)
	b.ReportAllocs()
	b.ResetTimer()
	var last *Result
	for i := 0; i < b.N; i++ {
		last, _ = g.Solve(context.Background(), p, nil)
	}
	b.ReportMetric(float64(last.Stats.BoundsComputed), "boundsComputed")
	b.ReportMetric(float64(last.Stats.BoundsReused), "boundsReused")
}

func BenchmarkGreedySolve(b *testing.B) { benchGreedy(b, NewGreedy()) }

func BenchmarkGreedySolveNaive(b *testing.B) { benchGreedy(b, &Greedy{Prune: true}) }

func BenchmarkGreedySolveNoPrune(b *testing.B) {
	p := benchProblem(b, 40, 80)
	g := &Greedy{Prune: false}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Solve(context.Background(), p, nil)
	}
}

func BenchmarkSamplingSolve(b *testing.B) {
	p := benchProblem(b, 40, 80)
	s := &Sampling{FixedK: 64}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Solve(context.Background(), p, &SolveOptions{Source: rng.New(int64(i))})
	}
}

func BenchmarkSamplingSolveParallel(b *testing.B) {
	p := benchProblem(b, 40, 80)
	s := &Sampling{FixedK: 64, Parallel: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Solve(context.Background(), p, &SolveOptions{Source: rng.New(int64(i))})
	}
}

func BenchmarkDCSolve(b *testing.B) {
	p := benchProblem(b, 60, 120)
	dc := NewDC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dc.Solve(context.Background(), p, &SolveOptions{Source: rng.New(int64(i))})
	}
}

func BenchmarkNewProblem(b *testing.B) {
	in := randomInstance(rng.New(7), 100, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewProblem(in)
	}
}

func BenchmarkSampleSize(b *testing.B) {
	spec := SampleSizeSpec{Epsilon: 0.1, Delta: 0.9}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SampleSize(500, spec)
	}
}

// benchIslands prepares the multi-island decomposition workload: 8 islands
// of 10 tasks × 20 workers each.
func benchIslands(b *testing.B) *Problem {
	b.Helper()
	in := gen.GenerateIslands(gen.Default().WithScale(10, 20).WithSeed(7), 8)
	return NewProblem(in)
}

// BenchmarkGreedyMonolithicIslands / BenchmarkShardedGreedyIslands compare
// one joint greedy solve against the connected-component decomposition on
// the same multi-island instance (components solve concurrently).
func BenchmarkGreedyMonolithicIslands(b *testing.B) {
	p := benchIslands(b)
	g := NewGreedy()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Solve(context.Background(), p, nil)
	}
}

func BenchmarkShardedGreedyIslands(b *testing.B) {
	p := benchIslands(b)
	s := NewSharded(NewGreedy())
	b.ReportAllocs()
	b.ResetTimer()
	var last *Result
	for i := 0; i < b.N; i++ {
		last, _ = s.Solve(context.Background(), p, nil)
	}
	b.ReportMetric(float64(last.Stats.Components), "components")
	b.ReportMetric(float64(last.Stats.MaxComponentPairs), "maxCompPairs")
}
