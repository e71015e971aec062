// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section 8 and Appendix J), one testing.B benchmark per figure, plus the
// ablation benches for the design choices called out in DESIGN.md.
//
// Each figure bench runs its full parameter sweep per iteration at bench
// scale and reports the headline metrics of the figure's default point via
// b.ReportMetric, so `go test -bench=. -benchmem` reproduces both the
// numbers and their costs. cmd/rdbsc-bench prints the full per-point tables.
package rdbsc

import (
	"context"
	"fmt"
	"testing"

	"rdbsc/internal/diversity"
	"rdbsc/internal/exp"
	"rdbsc/internal/rng"
)

// benchScale keeps every sweep fast enough for -bench=. runs.
func benchScale() exp.Scale { return exp.Scale{M: 24, N: 48, Seeds: 1, Seed: 1} }

// runFigure executes one registered experiment per iteration and reports
// the mid-sweep row's GREEDY/G-TRUTH quality metrics.
func runFigure(b *testing.B, id string) {
	e, ok := exp.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	var rows []exp.Row
	for i := 0; i < b.N; i++ {
		rows = e.Run(context.Background(), benchScale())
	}
	if len(rows) == 0 {
		b.Fatal("no rows produced")
	}
	mid := rows[len(rows)/2]
	for _, a := range exp.Approaches {
		if v, ok := mid.MinRel[a]; ok {
			b.ReportMetric(v, fmt.Sprintf("minRel_%s", sanitize(a)))
		}
		if v, ok := mid.TotalSTD[a]; ok {
			b.ReportMetric(v, fmt.Sprintf("STD_%s", sanitize(a)))
		}
	}
	for k, v := range mid.Extra {
		b.ReportMetric(v, k)
	}
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch r {
		case '&':
			out = append(out, 'n')
		case '-':
			out = append(out, '_')
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

// --- Section 8.2: real-data-substitute figures -----------------------------

func BenchmarkFig11ExpirationTime(b *testing.B)    { runFigure(b, "fig11") }
func BenchmarkFig12WorkerReliability(b *testing.B) { runFigure(b, "fig12") }
func BenchmarkFig22Beta(b *testing.B)              { runFigure(b, "fig22") }

// --- Section 8.3: synthetic figures ----------------------------------------

func BenchmarkFig13TasksUniform(b *testing.B)    { runFigure(b, "fig13") }
func BenchmarkFig14WorkersUniform(b *testing.B)  { runFigure(b, "fig14") }
func BenchmarkFig15AnglesUniform(b *testing.B)   { runFigure(b, "fig15") }
func BenchmarkFig16RunningTime(b *testing.B)     { runFigure(b, "fig16") }
func BenchmarkFig23TasksSkewed(b *testing.B)     { runFigure(b, "fig23") }
func BenchmarkFig24WorkersSkewed(b *testing.B)   { runFigure(b, "fig24") }
func BenchmarkFig25VelocityUniform(b *testing.B) { runFigure(b, "fig25") }
func BenchmarkFig26VelocitySkewed(b *testing.B)  { runFigure(b, "fig26") }
func BenchmarkFig27AnglesSkewed(b *testing.B)    { runFigure(b, "fig27") }

// --- Section 8.3: grid index (Figure 17) -----------------------------------

// fig17Workload is the sparse full-day workload of the index experiment:
// task windows spread over 24 hours and narrow direction cones leave most
// task-worker pairs invalid, which is where cell-level pruning pays off.
func fig17Workload() *Instance {
	return GenerateWorkload(DefaultWorkload().WithScale(1000, 2000))
}

func BenchmarkFig17aIndexConstruction(b *testing.B) {
	in := fig17Workload()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewGrid(GridConfig{}, in)
	}
}

func BenchmarkFig17bPairRetrievalWithIndex(b *testing.B) {
	in := fig17Workload()
	g := NewGrid(GridConfig{}, in)
	g.ValidPairs() // warm the tcell lists; construction is Fig 17(a)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ValidPairs()
	}
}

func BenchmarkFig17bPairRetrievalScan(b *testing.B) {
	in := fig17Workload()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.ValidPairs()
	}
}

// --- Section 8.4: platform (Figure 18) -------------------------------------

func BenchmarkFig18Platform(b *testing.B) { runFigure(b, "fig18") }

// --- Per-solver single-shot benches (Figure 16's ingredients) --------------

func benchSolver(b *testing.B, s Solver) {
	in := GenerateDenseWorkload(DefaultWorkload().WithScale(60, 120))
	p := NewProblem(in)
	b.ResetTimer()
	var last *Result
	for i := 0; i < b.N; i++ {
		var err error
		last, err = s.Solve(context.Background(), p, &SolveOptions{Source: rngNew(int64(i))})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(last.Eval.MinRel, "minRel")
	b.ReportMetric(last.Eval.TotalESTD, "totalSTD")
	if st := last.Stats; st.BoundsComputed > 0 {
		// The incremental-greedy before/after: the naive variant recomputes
		// every candidate bound every round, the incremental one only the
		// assigned task's.
		b.ReportMetric(float64(st.BoundsComputed), "boundsComputed")
		b.ReportMetric(float64(st.BoundsReused), "boundsReused")
	}
}

func BenchmarkSolverGreedy(b *testing.B)      { benchSolver(b, NewGreedy()) }
func BenchmarkSolverGreedyNaive(b *testing.B) { benchSolver(b, &Greedy{Prune: true}) }
func BenchmarkSolverSampling(b *testing.B)    { benchSolver(b, NewSampling()) }
func BenchmarkSolverDC(b *testing.B)          { benchSolver(b, NewDC()) }
func BenchmarkSolverGTruth(b *testing.B)      { benchSolver(b, GTruth()) }

// --- Ablations --------------------------------------------------------------

func BenchmarkAblationDiversityQuadraticVsCubic(b *testing.B) {
	src := rng.New(1)
	const r = 64
	angles := make([]float64, r)
	arrivals := make([]float64, r)
	probs := make([]float64, r)
	for i := 0; i < r; i++ {
		angles[i] = src.Angle()
		arrivals[i] = src.Float64()
		probs[i] = src.Float64()
	}
	b.Run("quadratic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			diversity.ExpectedSTD(0.5, angles, arrivals, probs, 0, 1)
		}
	})
	b.Run("cubic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = 0.5*diversity.ExpectedSDCubic(angles, probs) +
				0.5*diversity.ExpectedTDCubic(arrivals, probs, 0, 1)
		}
	})
}

func BenchmarkAblationGreedyPruning(b *testing.B) {
	in := GenerateDenseWorkload(DefaultWorkload().WithScale(40, 80))
	p := NewProblem(in)
	b.Run("prune=on", func(b *testing.B) {
		g := &Greedy{Prune: true}
		for i := 0; i < b.N; i++ {
			g.Solve(context.Background(), p, nil)
		}
	})
	b.Run("prune=off", func(b *testing.B) {
		g := &Greedy{Prune: false}
		for i := 0; i < b.N; i++ {
			g.Solve(context.Background(), p, nil)
		}
	})
}

func BenchmarkAblationGridEta(b *testing.B) { runFigure(b, "ablation-eta") }

func BenchmarkAblationMergeExhaustiveVsGreedy(b *testing.B) {
	runFigure(b, "ablation-merge")
}

func rngNew(seed int64) *rng.Source { return rng.New(seed) }

// --- Dynamic maintenance (Section 7.2) --------------------------------------

func BenchmarkChurnDynamicMaintenance(b *testing.B) { runFigure(b, "churn") }
