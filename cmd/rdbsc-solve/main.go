// Command rdbsc-solve loads a CSV workload (as written by rdbsc-gen),
// solves the RDB-SC assignment with the chosen algorithm, reports the two
// quality measures, and optionally writes the assignment as CSV.
//
// Solvers are resolved through the registry (-solver accepts any name from
// `rdbsc-solve -list-solvers`), and -timeout bounds the solve with a
// context deadline: when it expires, the best partial assignment found so
// far is reported. Prefixing a name with "sharded-" decomposes the
// instance into the connected components of its reachability graph and
// solves them concurrently.
//
// Usage:
//
//	rdbsc-gen -m 500 -n 1000 -out w
//	rdbsc-solve -in w -solver dc -beta 0.5 -assignment out.csv
//	rdbsc-solve -in w -solver greedy -timeout 5s -progress
//	rdbsc-solve -in w -solver sharded-greedy
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"rdbsc/internal/core"
	"rdbsc/internal/dataset"
	"rdbsc/internal/engine"
	"rdbsc/internal/model"
	"rdbsc/internal/rng"
	"rdbsc/internal/viz"
)

func main() {
	var (
		prefix      = flag.String("in", "workload", "input file prefix (expects <prefix>_tasks.csv and <prefix>_workers.csv)")
		solverName  = flag.String("solver", "dc", "algorithm, by registry name (see -list-solvers); prefix sharded- to solve per connected component")
		listSolvers = flag.Bool("list-solvers", false, "list registered solvers and exit")
		beta        = flag.Float64("beta", 0.5, "diversity weight β")
		seed        = flag.Int64("seed", 1, "random seed")
		useIndex    = flag.Bool("index", true, "retrieve valid pairs via the RDB-SC-Grid index")
		wait        = flag.Bool("wait", false, "allow workers to wait for a task's period to open")
		timeout     = flag.Duration("timeout", 0, "abort the solve after this long, reporting the partial result (0 = no limit)")
		progress    = flag.Bool("progress", false, "stream per-round solver progress to stderr")
		outFile     = flag.String("assignment", "", "write the assignment CSV to this path")
		svgFile     = flag.String("svg", "", "render the instance and assignment as SVG to this path")
	)
	flag.Parse()

	if *listSolvers {
		for _, name := range core.Names() {
			fmt.Println(name)
		}
		return
	}

	solver, err := core.NewByName(*solverName)
	if err != nil {
		fatal(err)
	}
	in, err := dataset.LoadInstance(*prefix, *beta)
	if err != nil {
		fatal(err)
	}
	in.Opt.WaitAllowed = *wait

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	start := time.Now()
	eng := engine.NewFromInstance(in, engine.Config{
		Solver:       solver,
		DisableIndex: !*useIndex,
	})
	p := eng.Problem()
	prepTime := time.Since(start)

	opts := &core.SolveOptions{Source: rng.New(*seed)} // explicit source: -seed 0 is honored
	if *progress {
		opts.Progress = func(st core.Stage) {
			fmt.Fprintf(os.Stderr, "progress: %s round %d", st.Solver, st.Round)
			if st.Total > 0 {
				fmt.Fprintf(os.Stderr, "/%d", st.Total)
			}
			if st.Assigned > 0 {
				fmt.Fprintf(os.Stderr, " assigned %d", st.Assigned)
			}
			fmt.Fprintln(os.Stderr)
		}
	}
	start = time.Now()
	res, err := eng.Solve(ctx, opts)
	solveTime := time.Since(start)
	switch {
	case errors.Is(err, core.ErrInterrupted):
		fmt.Fprintf(os.Stderr, "rdbsc-solve: timed out after %v; reporting the partial assignment\n", *timeout)
	case errors.Is(err, core.ErrInfeasible):
		fmt.Fprintln(os.Stderr, "rdbsc-solve: no feasible assignment (no worker reaches any task in time)")
	case err != nil:
		fatal(err)
	}

	fmt.Printf("instance     %d tasks, %d workers, %d valid pairs\n",
		len(in.Tasks), len(in.Workers), len(p.Pairs))
	fmt.Printf("solver       %s (seed %d)\n", solver.Name(), *seed)
	fmt.Printf("prep         %v (index=%v)\n", prepTime.Round(time.Microsecond), *useIndex)
	fmt.Printf("solve        %v\n", solveTime.Round(time.Microsecond))
	fmt.Printf("assigned     %d workers to %d tasks\n", res.Eval.AssignedWorkers, res.Eval.AssignedTasks)
	fmt.Printf("minRel       %.4f\n", res.Eval.MinRel)
	fmt.Printf("total_STD    %.4f\n", res.Eval.TotalESTD)
	if st := res.Stats; st.BoundsComputed+st.BoundsReused > 0 {
		fmt.Printf("bounds       %d computed, %d served from the incremental cache\n",
			st.BoundsComputed, st.BoundsReused)
	}
	if st := res.Stats; st.Components > 0 {
		fmt.Printf("components   %d (largest: %d pairs)\n", st.Components, st.MaxComponentPairs)
	}

	if *outFile != "" {
		if err := writeAssignment(*outFile, res.Assignment); err != nil {
			fatal(err)
		}
		fmt.Printf("assignment   written to %s\n", *outFile)
	}
	if *svgFile != "" {
		f, err := os.Create(*svgFile)
		if err != nil {
			fatal(err)
		}
		title := fmt.Sprintf("%s: minRel=%.3f total_STD=%.3f", solver.Name(),
			res.Eval.MinRel, res.Eval.TotalESTD)
		err = viz.Render(f, in, res.Assignment, viz.Options{Title: title})
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("svg          written to %s\n", *svgFile)
	}
}

func writeAssignment(path string, a *model.Assignment) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	type row struct {
		w model.WorkerID
		t model.TaskID
	}
	var rows []row
	a.Workers(func(w model.WorkerID, t model.TaskID) { rows = append(rows, row{w, t}) })
	sort.Slice(rows, func(i, j int) bool { return rows[i].w < rows[j].w })
	fmt.Fprintln(f, "worker_id,task_id")
	for _, r := range rows {
		fmt.Fprintf(f, "%d,%d\n", r.w, r.t)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "rdbsc-solve: %v\n", strings.TrimPrefix(err.Error(), "core: "))
	os.Exit(1)
}
