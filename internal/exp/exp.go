// Package exp is the benchmark harness that regenerates every table and
// figure of the paper's evaluation (Section 8 and Appendix J). Each
// experiment sweeps one parameter of Table 2, runs the four approaches
// (GREEDY, SAMPLING, D&C, G-TRUTH) on freshly generated workloads, and
// reports the paper's two measures — the minimum reliability and the summed
// expected spatial/temporal diversity total_STD — plus wall-clock time
// where the figure calls for it.
//
// Experiments run at a configurable bench scale: the paper's 10K×10K
// full-scale settings take CPU-hours on the O(m·n²) greedy; the sweep
// *shapes* (who wins, trends, crossovers) are the reproduction target, as
// recorded in EXPERIMENTS.md.
package exp

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"
)

// Approaches names the four solver configurations of Section 8.1 in the
// paper's presentation order.
var Approaches = []string{"GREEDY", "SAMPLING", "D&C", "G-TRUTH"}

// Row is one x-axis point of an experiment: per-approach metric values.
type Row struct {
	// X labels the swept parameter value (e.g. "[0.25,0.5]" or "5K").
	X string
	// MinRel, TotalSTD and Seconds map approach name → measured value.
	// Seconds is only populated by timing experiments.
	MinRel   map[string]float64
	TotalSTD map[string]float64
	Seconds  map[string]float64
	// Extra holds experiment-specific metrics (e.g. index construction
	// time) keyed by metric name.
	Extra map[string]float64
}

func newRow(x string) Row {
	return Row{
		X:        x,
		MinRel:   make(map[string]float64),
		TotalSTD: make(map[string]float64),
		Seconds:  make(map[string]float64),
		Extra:    make(map[string]float64),
	}
}

// Scale sets the bench-scale workload sizes.
type Scale struct {
	// M and N are the base task/worker counts (defaults 80/160).
	M, N int
	// Seeds is the number of workload seeds averaged per point (default 2).
	Seeds int
	// Seed is the base random seed (default 1).
	Seed int64
	// Sharded wraps every approach's solver in connected-component
	// decomposition (core.NewSharded, as a "sharded-<name>" solver does):
	// components solve concurrently and merge. On the paper's
	// well-connected workloads this usually degenerates to a single
	// component (a verbatim pass-through); it is the knob for multi-island
	// workloads like ablation-decompose.
	Sharded bool
}

// DefaultScale returns the standard bench scale.
func DefaultScale() Scale { return Scale{M: 80, N: 160, Seeds: 2, Seed: 1} }

func (s Scale) withDefaults() Scale {
	if s.M <= 0 {
		s.M = 80
	}
	if s.N <= 0 {
		s.N = 160
	}
	if s.Seeds <= 0 {
		s.Seeds = 2
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// Experiment is one reproducible table/figure.
type Experiment struct {
	// ID is the paper's figure identifier, e.g. "fig11".
	ID string
	// Title describes the experiment.
	Title string
	// XLabel names the swept parameter.
	XLabel string
	// PaperShape summarizes the qualitative result the paper reports, for
	// the EXPERIMENTS.md comparison.
	PaperShape string
	// Run executes the sweep. Cancelling ctx (or letting its deadline
	// expire) stops the sweep between points, returning the rows measured
	// so far.
	Run func(ctx context.Context, s Scale) []Row
}

// Registry returns every experiment, in figure order.
func Registry() []Experiment {
	return []Experiment{
		fig11(), fig12(), fig13(), fig14(), fig15(),
		fig16(), fig17(), fig18(),
		fig22(), fig23(), fig24(), fig25(), fig26(), fig27(),
		churnExperiment(), scenarioSweep(),
		ablationDiversity(), ablationPruning(), ablationIncremental(),
		ablationDecompose(), ablationEta(), ablationMerge(),
	}
}

// ByID looks an experiment up by its identifier.
func ByID(id string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns all registered experiment ids.
func IDs() []string {
	var ids []string
	for _, e := range Registry() {
		ids = append(ids, e.ID)
	}
	return ids
}

// RenderTable renders rows as an aligned text table with one block per
// metric, matching the paper's two panels (a) minimum reliability and
// (b) total_STD (and CPU time where measured).
func RenderTable(e Experiment, rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", e.ID, e.Title)
	renderMetric(&b, "Minimum Reliability", e.XLabel, rows, func(r Row) map[string]float64 { return r.MinRel })
	renderMetric(&b, "total_STD", e.XLabel, rows, func(r Row) map[string]float64 { return r.TotalSTD })
	renderMetric(&b, "CPU Time (s)", e.XLabel, rows, func(r Row) map[string]float64 { return r.Seconds })
	renderExtras(&b, e.XLabel, rows)
	return b.String()
}

func renderMetric(b *strings.Builder, name, xlabel string, rows []Row, get func(Row) map[string]float64) {
	// Skip the block when no row carries the metric.
	any := false
	for _, r := range rows {
		if len(get(r)) > 0 {
			any = true
			break
		}
	}
	if !any {
		return
	}
	fmt.Fprintf(b, "-- %s --\n", name)
	fmt.Fprintf(b, "%-14s", xlabel)
	for _, a := range Approaches {
		if hasApproach(rows, a, get) {
			fmt.Fprintf(b, "%12s", a)
		}
	}
	fmt.Fprintln(b)
	for _, r := range rows {
		fmt.Fprintf(b, "%-14s", r.X)
		for _, a := range Approaches {
			if !hasApproach(rows, a, get) {
				continue
			}
			if v, ok := get(r)[a]; ok {
				fmt.Fprintf(b, "%12.4f", v)
			} else {
				fmt.Fprintf(b, "%12s", "-")
			}
		}
		fmt.Fprintln(b)
	}
}

func hasApproach(rows []Row, a string, get func(Row) map[string]float64) bool {
	for _, r := range rows {
		if _, ok := get(r)[a]; ok {
			return true
		}
	}
	return false
}

func renderExtras(b *strings.Builder, xlabel string, rows []Row) {
	keys := map[string]bool{}
	for _, r := range rows {
		for k := range r.Extra {
			keys[k] = true
		}
	}
	if len(keys) == 0 {
		return
	}
	names := make([]string, 0, len(keys))
	for k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(b, "-- extras --\n%-14s", xlabel)
	for _, k := range names {
		fmt.Fprintf(b, "%22s", k)
	}
	fmt.Fprintln(b)
	for _, r := range rows {
		fmt.Fprintf(b, "%-14s", r.X)
		for _, k := range names {
			if v, ok := r.Extra[k]; ok {
				fmt.Fprintf(b, "%22.6f", v)
			} else {
				fmt.Fprintf(b, "%22s", "-")
			}
		}
		fmt.Fprintln(b)
	}
}

// timed measures fn's wall time in seconds.
func timed(fn func()) float64 {
	start := time.Now()
	fn()
	return time.Since(start).Seconds()
}
