// Command rdbsc-bench regenerates the paper's evaluation tables and
// figures (Section 8 and Appendix J). Each experiment sweeps one Table 2
// parameter and prints the paper's two panels — minimum reliability and
// total_STD — for the four approaches (GREEDY, SAMPLING, D&C, G-TRUTH),
// plus CPU time and index metrics where the figure calls for them.
//
// Usage:
//
//	rdbsc-bench -list               # show available experiments
//	rdbsc-bench -fig 13             # run Figure 13
//	rdbsc-bench -fig all            # run everything (default)
//	rdbsc-bench -m 120 -n 240 -seeds 3 -fig 14
//	rdbsc-bench -fig all -timeout 2m   # stop after 2 minutes, partial tables
//	rdbsc-bench -fig ablation-incremental   # greedy candidate-maintenance before/after
//	rdbsc-bench -fig ablation-decompose     # component decomposition: monolithic vs sharded vs cached churn
//	rdbsc-bench -sharded -fig 13            # every approach per connected component (as sharded-<name>)
//
// Exit codes: 0 success; 2 usage errors.
//
// Bench scale defaults to m=80, n=160 (the paper's 10K×10K full scale takes
// CPU-hours on the quadratic greedy); shapes, not absolute magnitudes, are
// the reproduction target.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"rdbsc/internal/exp"
)

func main() {
	var (
		fig     = flag.String("fig", "all", "experiment to run: a figure number (e.g. 13 or fig13), an ablation id, or 'all'")
		list    = flag.Bool("list", false, "list available experiments and exit")
		m       = flag.Int("m", 80, "base number of tasks")
		n       = flag.Int("n", 160, "base number of workers")
		seeds   = flag.Int("seeds", 2, "workload seeds averaged per point")
		seed    = flag.Int64("seed", 1, "base random seed")
		sharded = flag.Bool("sharded", false, "wrap every approach in connected-component decomposition (as a sharded-<name> solver does)")
		timeout = flag.Duration("timeout", 0, "overall deadline; experiments report partial tables when it expires (0 = no limit)")
	)
	flag.Parse()

	if *list {
		for _, e := range exp.Registry() {
			fmt.Printf("%-20s %s\n", e.ID, e.Title)
		}
		return
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	scale := exp.Scale{M: *m, N: *n, Seeds: *seeds, Seed: *seed, Sharded: *sharded}
	ids := resolve(*fig)
	if len(ids) == 0 {
		fmt.Fprintf(os.Stderr, "rdbsc-bench: unknown experiment %q; try -list\n", *fig)
		os.Exit(2)
	}
	for _, id := range ids {
		if ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "rdbsc-bench: deadline reached; skipping remaining experiments\n")
			break
		}
		e, ok := exp.ByID(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "rdbsc-bench: unknown experiment %q\n", id)
			os.Exit(2)
		}
		start := time.Now()
		rows := e.Run(ctx, scale)
		fmt.Print(exp.RenderTable(e, rows))
		fmt.Printf("-- paper shape: %s\n", e.PaperShape)
		fmt.Printf("-- completed in %.1fs\n\n", time.Since(start).Seconds())
	}
}

// resolve maps the -fig argument to experiment ids.
func resolve(arg string) []string {
	arg = strings.TrimSpace(strings.ToLower(arg))
	if arg == "all" {
		return exp.IDs()
	}
	if _, ok := exp.ByID(arg); ok {
		return []string{arg}
	}
	// Bare figure numbers are accepted: "13" → "fig13".
	if _, ok := exp.ByID("fig" + arg); ok {
		return []string{"fig" + arg}
	}
	return nil
}
