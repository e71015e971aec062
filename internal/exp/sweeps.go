package exp

import (
	"context"
	"fmt"
	"math"

	"rdbsc/internal/core"
	"rdbsc/internal/diversity"
	"rdbsc/internal/gen"
	"rdbsc/internal/grid"
	"rdbsc/internal/model"
	"rdbsc/internal/platform"
	"rdbsc/internal/rng"
	"rdbsc/internal/stream"
)

// approachNames maps the paper's presentation names to registry names.
var approachNames = map[string]string{
	"GREEDY":   "greedy",
	"SAMPLING": "sampling",
	"D&C":      "dc",
	"G-TRUTH":  "gtruth",
}

// solverSet returns fresh instances of the four approaches, resolved
// through the solver registry.
func solverSet(sc Scale) map[string]core.Solver {
	out := make(map[string]core.Solver, len(approachNames))
	for display, name := range approachNames {
		s, err := core.NewByName(name)
		if err != nil {
			panic(err) // the built-in solvers are always registered
		}
		if sc.Sharded {
			s = core.NewSharded(s)
		}
		out[display] = s
	}
	return out
}

// sweepPoint runs every approach over sc.Seeds workloads drawn by mk and
// averages the two quality measures (and wall time when timing is set).
// Once ctx is done the remaining solves are skipped, and interrupted
// partial solves are excluded from the averages — a row only ever carries
// fully measured values, so a deadline truncates the table instead of
// diluting it with zeros.
func sweepPoint(ctx context.Context, x string, sc Scale, timing bool, mk func(seed int64) *model.Instance) Row {
	row := newRow(x)
	counts := make(map[string]int)
	for s := 0; s < sc.Seeds && ctx.Err() == nil; s++ {
		seed := sc.Seed + int64(s)*1000
		in := mk(seed)
		p := core.NewProblem(in)
		for name, solver := range solverSet(sc) {
			if ctx.Err() != nil {
				break
			}
			var res *core.Result
			var err error
			secs := timed(func() {
				res, err = solver.Solve(ctx, p, &core.SolveOptions{Source: rng.New(seed + 99)})
			})
			if err != nil || res == nil {
				continue
			}
			row.MinRel[name] += res.Eval.MinRel
			row.TotalSTD[name] += res.Eval.TotalESTD
			if timing {
				row.Seconds[name] += secs
			}
			counts[name]++
		}
	}
	for name, c := range counts {
		row.MinRel[name] /= float64(c)
		row.TotalSTD[name] /= float64(c)
		if timing {
			row.Seconds[name] /= float64(c)
		} else {
			delete(row.Seconds, name)
		}
	}
	if !timing {
		row.Seconds = map[string]float64{}
	}
	return row
}

// synthetic builds the dense bench-scale synthetic workload with the given
// tweaks applied to the Table 2 defaults.
func synthetic(sc Scale, dist gen.Dist, mut func(*gen.Config)) func(int64) *model.Instance {
	return func(seed int64) *model.Instance {
		cfg := gen.Default().WithScale(sc.M, sc.N).WithSeed(seed)
		cfg.Distribution = dist
		if mut != nil {
			mut(&cfg)
		}
		return gen.GenerateDense(cfg)
	}
}

// realSub builds the real-data-substitute workload (POI tasks, trajectory
// workers) with the given tweaks to the synthetic parameter ranges.
func realSub(sc Scale, mut func(*gen.Config)) func(int64) *model.Instance {
	return func(seed int64) *model.Instance {
		syn := gen.Default().WithSeed(seed)
		if mut != nil {
			mut(&syn)
		}
		return gen.GenerateReal(gen.RealConfig{
			POI:        gen.POIConfig{NumPOIs: sc.M * 4, Seed: seed},
			Trajectory: gen.TrajectoryConfig{NumTaxis: sc.N, Seed: seed + 1},
			Tasks:      sc.M,
			Synthetic:  syn,
		})
	}
}

// --- Figures 11–12, 22: real-data-substitute sweeps -----------------------

func fig11() Experiment {
	type rt struct{ lo, hi float64 }
	sweep := []rt{{0.25, 0.5}, {0.5, 1}, {1, 2}, {2, 3}}
	return Experiment{
		ID:     "fig11",
		Title:  "Effect of tasks' expiration time range rt (real-substitute data)",
		XLabel: "rt",
		PaperShape: "min reliability stable; total_STD grows with rt; " +
			"SAMPLING/D&C above GREEDY, close to G-TRUTH",
		Run: func(ctx context.Context, sc Scale) []Row {
			sc = sc.withDefaults()
			var rows []Row
			for _, r := range sweep {
				if ctx.Err() != nil {
					break
				}
				r := r
				rows = append(rows, sweepPoint(ctx,
					fmt.Sprintf("[%g,%g]", r.lo, r.hi), sc, false,
					realSub(sc, func(c *gen.Config) { c.RtMin, c.RtMax = r.lo, r.hi })))
			}
			return rows
		},
	}
}

func fig12() Experiment {
	sweep := []float64{0.8, 0.85, 0.9, 0.95}
	return Experiment{
		ID:     "fig12",
		Title:  "Effect of workers' reliability range [p_min, p_max] (real-substitute data)",
		XLabel: "[pmin,1]",
		PaperShape: "min reliability rises with p_min; total_STD increases slightly; " +
			"SAMPLING/D&C ≈ G-TRUTH > GREEDY",
		Run: func(ctx context.Context, sc Scale) []Row {
			sc = sc.withDefaults()
			var rows []Row
			for _, pmin := range sweep {
				if ctx.Err() != nil {
					break
				}
				pmin := pmin
				rows = append(rows, sweepPoint(ctx,
					fmt.Sprintf("(%.2f,1)", pmin), sc, false,
					realSub(sc, func(c *gen.Config) { c.PMin, c.PMax = pmin, 1 })))
			}
			return rows
		},
	}
}

func fig22() Experiment {
	sweep := [][2]float64{{0, 0.2}, {0.2, 0.4}, {0.4, 0.6}, {0.6, 0.8}, {0.8, 1}}
	return Experiment{
		ID:         "fig22",
		Title:      "Effect of the requester-specified weight β (real-substitute data)",
		XLabel:     "β range",
		PaperShape: "both measures robust to β across all ranges",
		Run: func(ctx context.Context, sc Scale) []Row {
			sc = sc.withDefaults()
			var rows []Row
			for _, b := range sweep {
				if ctx.Err() != nil {
					break
				}
				b := b
				rows = append(rows, sweepPoint(ctx,
					fmt.Sprintf("(%g,%g]", b[0], b[1]), sc, false,
					realSub(sc, func(c *gen.Config) { c.BetaMin, c.BetaMax = b[0], b[1] })))
			}
			return rows
		},
	}
}

// --- Figures 13–15, 23–27: synthetic sweeps -------------------------------

// mSweep mirrors Table 2's m values 5K,8K,10K,50K,100K proportionally at
// bench scale (0.5×, 0.8×, 1×, 5×, 10× of the base m).
func mSweep(e string, dist gen.Dist, shape string) Experiment {
	factors := []float64{0.5, 0.8, 1, 5, 10}
	return Experiment{
		ID:         e,
		Title:      fmt.Sprintf("Effect of the number of tasks m (%v)", dist),
		XLabel:     "m",
		PaperShape: shape,
		Run: func(ctx context.Context, sc Scale) []Row {
			sc = sc.withDefaults()
			var rows []Row
			for _, f := range factors {
				if ctx.Err() != nil {
					break
				}
				m := int(float64(sc.M) * f)
				scm := sc
				scm.M = m
				rows = append(rows, sweepPoint(ctx, fmt.Sprintf("%d", m), scm, false,
					synthetic(scm, dist, nil)))
			}
			return rows
		},
	}
}

func nSweep(e string, dist gen.Dist, shape string) Experiment {
	factors := []float64{0.5, 0.8, 1, 1.5, 2}
	return Experiment{
		ID:         e,
		Title:      fmt.Sprintf("Effect of the number of workers n (%v)", dist),
		XLabel:     "n",
		PaperShape: shape,
		Run: func(ctx context.Context, sc Scale) []Row {
			sc = sc.withDefaults()
			var rows []Row
			for _, f := range factors {
				if ctx.Err() != nil {
					break
				}
				n := int(float64(sc.N) * f)
				scn := sc
				scn.N = n
				rows = append(rows, sweepPoint(ctx, fmt.Sprintf("%d", n), scn, false,
					synthetic(scn, dist, nil)))
			}
			return rows
		},
	}
}

func angleSweep(e string, dist gen.Dist) Experiment {
	denoms := []float64{8, 7, 6, 5, 4}
	return Experiment{
		ID:     e,
		Title:  fmt.Sprintf("Effect of the range of moving angles (%v)", dist),
		XLabel: "(0,π/k]",
		PaperShape: "min reliability insensitive; GREEDY diversity drops for wider angles; " +
			"SAMPLING/D&C ≈ G-TRUTH",
		Run: func(ctx context.Context, sc Scale) []Row {
			sc = sc.withDefaults()
			var rows []Row
			for _, d := range denoms {
				if ctx.Err() != nil {
					break
				}
				d := d
				rows = append(rows, sweepPoint(ctx, fmt.Sprintf("(0,π/%g]", d), sc, false,
					synthetic(sc, dist, func(c *gen.Config) { c.AngleMax = math.Pi / d })))
			}
			return rows
		},
	}
}

func vSweep(e string, dist gen.Dist) Experiment {
	sweep := [][2]float64{{0.1, 0.2}, {0.2, 0.3}, {0.3, 0.4}, {0.4, 0.5}}
	return Experiment{
		ID:     e,
		Title:  fmt.Sprintf("Effect of the velocity range [v−,v+] (%v)", dist),
		XLabel: "[v-,v+]",
		PaperShape: "min reliability stable around 0.9; diversity gradually decreases " +
			"for faster workers",
		Run: func(ctx context.Context, sc Scale) []Row {
			sc = sc.withDefaults()
			var rows []Row
			for _, v := range sweep {
				if ctx.Err() != nil {
					break
				}
				v := v
				rows = append(rows, sweepPoint(ctx, fmt.Sprintf("[%g,%g]", v[0], v[1]), sc, false,
					synthetic(sc, dist, func(c *gen.Config) { c.VMin, c.VMax = v[0], v[1] })))
			}
			return rows
		},
	}
}

func fig13() Experiment {
	return mSweep("fig13", gen.Uniform,
		"min reliability high, slightly decreasing with m; GREEDY diversity grows with m "+
			"while SAMPLING/D&C decrease; crossover at large m")
}

func fig14() Experiment {
	return nSweep("fig14", gen.Uniform,
		"min reliability insensitive to n; total_STD of every approach grows with n")
}

func fig15() Experiment { return angleSweep("fig15", gen.Uniform) }

func fig23() Experiment {
	return mSweep("fig23", gen.Skewed, "same trends as Fig 13 on SKEWED data")
}

func fig24() Experiment {
	return nSweep("fig24", gen.Skewed, "same trends as Fig 14 on SKEWED data")
}

func fig25() Experiment { return vSweep("fig25", gen.Uniform) }
func fig26() Experiment { return vSweep("fig26", gen.Skewed) }
func fig27() Experiment { return angleSweep("fig27", gen.Skewed) }

// --- Figure 16: running time ----------------------------------------------

func fig16() Experiment {
	mFactors := []float64{0.5, 0.8, 1, 5, 10}
	nFactors := []float64{0.5, 0.8, 1, 1.5, 2}
	return Experiment{
		ID:     "fig16",
		Title:  "CPU time of the RDB-SC approaches vs m and vs n (UNIFORM)",
		XLabel: "param",
		PaperShape: "all but SAMPLING grow quickly with m; only GREEDY grows sharply " +
			"with n; SAMPLING stays near-flat",
		Run: func(ctx context.Context, sc Scale) []Row {
			sc = sc.withDefaults()
			var rows []Row
			for _, f := range mFactors {
				if ctx.Err() != nil {
					break
				}
				scm := sc
				scm.M = int(float64(sc.M) * f)
				rows = append(rows, sweepPoint(ctx, fmt.Sprintf("m=%d", scm.M), scm, true,
					synthetic(scm, gen.Uniform, nil)))
			}
			for _, f := range nFactors {
				if ctx.Err() != nil {
					break
				}
				scn := sc
				scn.N = int(float64(sc.N) * f)
				rows = append(rows, sweepPoint(ctx, fmt.Sprintf("n=%d", scn.N), scn, true,
					synthetic(scn, gen.Uniform, nil)))
			}
			return rows
		},
	}
}

// --- Figure 17: grid index ------------------------------------------------

func fig17() Experiment {
	nFactors := []float64{0.5, 0.8, 1, 2, 3}
	return Experiment{
		ID:     "fig17",
		Title:  "RDB-SC-Grid: construction time and pair retrieval with vs without index",
		XLabel: "n",
		PaperShape: "construction sub-second; retrieval with index substantially faster " +
			"than the full scan (paper: up to 67% reduction)",
		Run: func(ctx context.Context, sc Scale) []Row {
			sc = sc.withDefaults()
			var rows []Row
			for _, f := range nFactors {
				if ctx.Err() != nil {
					break
				}
				scn := sc
				scn.N = int(float64(sc.N) * f)
				row := newRow(fmt.Sprintf("%d", scn.N))
				for s := 0; s < sc.Seeds; s++ {
					in := synthetic(scn, gen.Uniform, nil)(sc.Seed + int64(s)*1000)
					var g *grid.Grid
					row.Extra["build_s"] += timed(func() {
						g = grid.NewFromInstance(grid.Config{}, in)
					})
					var indexed, scanned []model.Pair
					row.Extra["retrieve_indexed_s"] += timed(func() {
						indexed = g.ValidPairs()
					})
					row.Extra["retrieve_scan_s"] += timed(func() {
						scanned = in.ValidPairs()
					})
					row.Extra["pairs"] += float64(len(indexed))
					if len(indexed) != len(scanned) {
						panic("fig17: index and scan disagree on pair count")
					}
				}
				for k := range row.Extra {
					row.Extra[k] /= float64(sc.Seeds)
				}
				rows = append(rows, row)
			}
			return rows
		},
	}
}

// --- Figure 18: platform simulation ----------------------------------------

func fig18() Experiment {
	intervals := []float64{1, 2, 3, 4} // minutes
	return Experiment{
		ID:     "fig18",
		Title:  "Effect of the incremental updating interval t_interval (platform simulation)",
		XLabel: "t_interval",
		PaperShape: "min reliability high but GREEDY fluctuates; total_STD decreases " +
			"as t_interval grows for every approach",
		Run: func(ctx context.Context, sc Scale) []Row {
			sc = sc.withDefaults()
			var rows []Row
			for _, mins := range intervals {
				if ctx.Err() != nil {
					break
				}
				row := newRow(fmt.Sprintf("%gmin", mins))
				for name, solver := range solverSet(sc) {
					var rel, std float64
					runs := 0
					for s := 0; s < sc.Seeds && ctx.Err() == nil; s++ {
						met := platform.New(platform.Config{
							TInterval: mins / 60,
							Horizon:   2,
							Solver:    solver,
							Seed:      sc.Seed + int64(s)*17,
						}).RunContext(ctx)
						if ctx.Err() != nil {
							break // truncated run: exclude its partial metrics
						}
						rel += met.MinRel
						std += met.TotalSTD
						runs++
					}
					if runs > 0 {
						row.MinRel[name] = rel / float64(runs)
						row.TotalSTD[name] = std / float64(runs)
					}
				}
				rows = append(rows, row)
			}
			return rows
		},
	}
}

// --- Dynamic churn (Section 7.2 end to end) ---------------------------------

func churnExperiment() Experiment {
	rates := []float64{20, 40, 80, 160}
	return Experiment{
		ID:     "churn",
		Title:  "Dynamic maintenance under churn: grid-indexed rounds at increasing arrival rates",
		XLabel: "tasks/h",
		PaperShape: "(supplementary; Section 7.2 analyzes the update costs " +
			"this run exercises)",
		Run: func(ctx context.Context, sc Scale) []Row {
			sc = sc.withDefaults()
			var rows []Row
			for _, rate := range rates {
				if ctx.Err() != nil {
					break
				}
				row := newRow(fmt.Sprintf("%.0f", rate))
				rep := stream.New(stream.Config{
					TaskRate:   rate,
					WorkerRate: rate * 2,
					Horizon:    2,
					Seed:       sc.Seed,
				}).RunContext(ctx)
				if ctx.Err() != nil {
					break // truncated run: its counts are not comparable
				}
				row.MinRel["GREEDY"] = rep.MeanMinRel
				row.TotalSTD["GREEDY"] = rep.MeanTotalSTD
				row.Extra["assignments"] = float64(rep.Assignments)
				row.Extra["pairs"] = float64(rep.PairsRetrieved)
				row.Extra["retrieve_s"] = rep.RetrieveSeconds
				row.Extra["solve_s"] = rep.SolveSeconds
				row.Extra["peak_tasks"] = float64(rep.PeakTasks)
				rows = append(rows, row)
			}
			return rows
		},
	}
}

// --- Ablations (design choices called out in DESIGN.md) --------------------

func ablationDiversity() Experiment {
	sizes := []int{8, 16, 32, 64, 128}
	return Experiment{
		ID:         "ablation-diversity",
		Title:      "Expected-diversity evaluation: O(r²) running products vs the paper's O(r³) matrices",
		XLabel:     "r",
		PaperShape: "(ablation; paper reports the O(r³) reduction only)",
		Run: func(ctx context.Context, sc Scale) []Row {
			sc = sc.withDefaults()
			src := rng.New(sc.Seed)
			var rows []Row
			for _, r := range sizes {
				angles := make([]float64, r)
				arrivals := make([]float64, r)
				probs := make([]float64, r)
				for i := 0; i < r; i++ {
					angles[i] = src.Angle()
					arrivals[i] = src.Float64()
					probs[i] = src.Float64()
				}
				row := newRow(fmt.Sprintf("%d", r))
				const reps = 50
				row.Extra["quadratic_s"] = timed(func() {
					for i := 0; i < reps; i++ {
						diversity.ExpectedSTD(0.5, angles, arrivals, probs, 0, 1)
					}
				}) / reps
				row.Extra["cubic_s"] = timed(func() {
					for i := 0; i < reps; i++ {
						_ = 0.5*diversity.ExpectedSDCubic(angles, probs) +
							0.5*diversity.ExpectedTDCubic(arrivals, probs, 0, 1)
					}
				}) / reps
				rows = append(rows, row)
			}
			return rows
		},
	}
}

func ablationPruning() Experiment {
	return Experiment{
		ID:         "ablation-pruning",
		Title:      "GREEDY with vs without the Lemma 4.3 bound-based pruning",
		XLabel:     "variant",
		PaperShape: "(ablation; the paper always prunes)",
		Run: func(ctx context.Context, sc Scale) []Row {
			sc = sc.withDefaults()
			var rows []Row
			for _, variant := range []struct {
				name  string
				prune bool
			}{{"prune=on", true}, {"prune=off", false}} {
				row := newRow(variant.name)
				runs := 0
				for s := 0; s < sc.Seeds && ctx.Err() == nil; s++ {
					in := synthetic(sc, gen.Uniform, nil)(sc.Seed + int64(s)*1000)
					p := core.NewProblem(in)
					g := &core.Greedy{Prune: variant.prune}
					var res *core.Result
					var err error
					secs := timed(func() {
						res, err = g.Solve(ctx, p, &core.SolveOptions{Seed: 1})
					})
					if err != nil {
						break // interrupted partial solves would skew the ablation
					}
					row.Extra["time_s"] += secs
					row.Extra["pairs_evaluated"] += float64(res.Stats.PairsEvaluated)
					row.Extra["pairs_pruned"] += float64(res.Stats.PairsPruned)
					row.MinRel["GREEDY"] += res.Eval.MinRel
					row.TotalSTD["GREEDY"] += res.Eval.TotalESTD
					runs++
				}
				if runs == 0 {
					continue
				}
				norm := float64(runs)
				for k := range row.Extra {
					row.Extra[k] /= norm
				}
				row.MinRel["GREEDY"] /= norm
				row.TotalSTD["GREEDY"] /= norm
				rows = append(rows, row)
			}
			return rows
		},
	}
}

// ablationIncremental compares the greedy candidate-maintenance loops: the
// per-round full-recomputation baseline and the incremental bound and
// exact-Δ cache. Both return identical assignments (the quality panels
// must agree); the extras show the bound computations saved and the
// wall-clock effect.
func ablationIncremental() Experiment {
	return Experiment{
		ID:         "ablation-incremental",
		Title:      "GREEDY candidate maintenance: full recompute vs incremental",
		XLabel:     "variant",
		PaperShape: "(ablation; the incremental cache changes cost, never the assignment)",
		Run: func(ctx context.Context, sc Scale) []Row {
			sc = sc.withDefaults()
			var rows []Row
			for _, variant := range []struct {
				name   string
				solver *core.Greedy
			}{
				{"naive", &core.Greedy{Prune: true}},
				{"incremental", core.NewGreedy()},
			} {
				row := newRow(variant.name)
				runs := 0
				for s := 0; s < sc.Seeds && ctx.Err() == nil; s++ {
					in := synthetic(sc, gen.Uniform, nil)(sc.Seed + int64(s)*1000)
					p := core.NewProblem(in)
					var res *core.Result
					var err error
					secs := timed(func() {
						res, err = variant.solver.Solve(ctx, p, &core.SolveOptions{Seed: 1})
					})
					if err != nil {
						break // interrupted partial solves would skew the ablation
					}
					row.Extra["time_s"] += secs
					row.Extra["bounds_computed"] += float64(res.Stats.BoundsComputed)
					row.Extra["bounds_reused"] += float64(res.Stats.BoundsReused)
					row.Extra["pairs_evaluated"] += float64(res.Stats.PairsEvaluated)
					row.MinRel["GREEDY"] += res.Eval.MinRel
					row.TotalSTD["GREEDY"] += res.Eval.TotalESTD
					runs++
				}
				if runs == 0 {
					continue
				}
				norm := float64(runs)
				for k := range row.Extra {
					row.Extra[k] /= norm
				}
				row.MinRel["GREEDY"] /= norm
				row.TotalSTD["GREEDY"] /= norm
				rows = append(rows, row)
			}
			return rows
		},
	}
}

func ablationEta() Experiment {
	return Experiment{
		ID:         "ablation-eta",
		Title:      "Grid cell size: cost-model η vs fixed alternatives",
		XLabel:     "η",
		PaperShape: "(ablation; Appendix I derives η from the cost model)",
		Run: func(ctx context.Context, sc Scale) []Row {
			sc = sc.withDefaults()
			in := synthetic(sc, gen.Skewed, nil)(sc.Seed)
			auto := grid.NewFromInstance(grid.Config{}, in)
			etas := map[string]float64{
				"cost-model": auto.Eta(),
				"0.02":       0.02,
				"0.10":       0.10,
				"0.50":       0.50,
			}
			var rows []Row
			for _, name := range []string{"cost-model", "0.02", "0.10", "0.50"} {
				eta := etas[name]
				row := newRow(fmt.Sprintf("%s(%0.3f)", name, eta))
				var g *grid.Grid
				row.Extra["build_s"] = timed(func() {
					g = grid.NewFromInstance(grid.Config{Eta: eta}, in)
				})
				row.Extra["retrieve_s"] = timed(func() { g.ValidPairs() })
				st := g.Stats()
				row.Extra["cells"] = float64(st.Cells)
				rows = append(rows, row)
			}
			return rows
		},
	}
}

func ablationMerge() Experiment {
	return Experiment{
		ID:         "ablation-merge",
		Title:      "SA_Merge DCW resolution: exhaustive 2^k vs sequential greedy",
		XLabel:     "variant",
		PaperShape: "(ablation; the paper enumerates DCW groups, Lemma 6.2)",
		Run: func(ctx context.Context, sc Scale) []Row {
			sc = sc.withDefaults()
			var rows []Row
			for _, variant := range []struct {
				name  string
				limit int
			}{{"exhaustive(≤12)", 12}, {"greedy(limit=1)", 1}} {
				row := newRow(variant.name)
				runs := 0
				for s := 0; s < sc.Seeds && ctx.Err() == nil; s++ {
					in := synthetic(sc, gen.Uniform, nil)(sc.Seed + int64(s)*1000)
					p := core.NewProblem(in)
					dc := &core.DC{DCWGroupLimit: variant.limit}
					var res *core.Result
					var err error
					secs := timed(func() {
						res, err = dc.Solve(ctx, p, &core.SolveOptions{Seed: 1})
					})
					if err != nil {
						break // interrupted partial solves would skew the ablation
					}
					row.Extra["time_s"] += secs
					row.Extra["merge_groups"] += float64(res.Stats.MergeGroups)
					row.MinRel["D&C"] += res.Eval.MinRel
					row.TotalSTD["D&C"] += res.Eval.TotalESTD
					runs++
				}
				if runs == 0 {
					continue
				}
				norm := float64(runs)
				for k := range row.Extra {
					row.Extra[k] /= norm
				}
				row.MinRel["D&C"] /= norm
				row.TotalSTD["D&C"] /= norm
				rows = append(rows, row)
			}
			return rows
		},
	}
}
