// Command bench is the repository's benchmark. It builds cmd/rdbsc-server,
// runs it as a subprocess with each workload's flags, drives it over
// loopback HTTP from one process with two keep-alive connections (M for
// mutations, S for solves), checks the answers against its own model of
// the state, and prints every metric by name and unit. With -trace 1 it
// also replays the workload's request stream through each layer's public
// functions (bench/layers) and prints the per-layer metrics.
//
// The driver's contract (BENCHMARK.json at the repository root) is the
// last line of standard output: one JSON object with correct, attempted,
// failed and metrics. See README.md in this directory for the design.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"rdbsc/bench/traffic"
)

// manifest is the part of BENCHMARK.json the harness reads: the phase
// length and the metric names it has promised to print.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// Phase split of one run's measuring time, and the set-up repeats.
const (
	capacityShare = 0.3 // closed-loop share of -seconds; the rest is paced
	setupRepeats  = 5   // set-up runs per run; setup_s is their median
	// tracedShare is the share of -seconds the traced run spends driving
	// the real server (for the /v1/stats-sourced metrics); the replay
	// probes take about as long again.
	tracedShare = 0.5
	smokePhase  = 2 * time.Second
	// soloPhaseLength is the traced run's third phase: the major class
	// alone, closed-loop, as the reference the replayed chain is held to.
	soloPhaseLength = 1500 * time.Millisecond
)

// line is the driver's result line.
type line struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options is one invocation of the benchmark.
type options struct {
	root     string  // checkout root (the directory holding BENCHMARK.json)
	workload string  // a workload name, or "all"
	seed     int64   // draws the traffic; the same seed gives the same inputs
	seconds  float64 // measuring time per workload; 0 = run_seconds of BENCHMARK.json
	traced   bool    // also replay every layer and report the per-layer metrics
	smoke    bool    // 2 s phases, one set-up, a short replay: a self-test
	outDir   string  // span files; "" = <root>/bench/out
	// corruptModel is the test-only fault behind the "a broken check fails
	// the command" test; no flag sets it.
	corruptModel func(*traffic.State)
}

// outcome is one workload's run: what was measured and the result line.
type outcome struct {
	spec traffic.Spec
	res  *runResult
	line line
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "all", "workload to run: "+fmt.Sprint(names())+" or all")
	flag.Int64Var(&o.seed, "seed", 1, "traffic seed: the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 0, "measuring time per workload (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: replay every layer and print the per-layer metrics")
	flag.BoolVar(&o.smoke, "smoke", false, "2 s phases, one set-up, all checks: a quick end-to-end self-test")
	flag.StringVar(&o.outDir, "out", "", "directory for the traced run's span files (default <root>/bench/out)")
	flag.StringVar(&o.root, "root", "..", "checkout root, the directory holding BENCHMARK.json (default: the parent of bench/)")
	flag.Parse()
	o.traced = trace == 1
	if _, err := run(o, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

func names() []string {
	var out []string
	for _, s := range traffic.Specs() {
		out = append(out, s.Name)
	}
	return out
}

// run builds the server, runs the selected workloads one after another and
// writes the report to stdout: for each workload the metrics by name, then
// the driver's JSON line. It returns an error when a workload could not
// run or any correctness check failed.
func run(o options, stdout io.Writer) ([]outcome, error) {
	raw, err := os.ReadFile(filepath.Join(o.root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var man manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if o.seconds <= 0 {
		o.seconds = float64(man.RunSeconds)
	}
	if o.outDir == "" {
		o.outDir = filepath.Join(o.root, "bench", "out")
	}
	specs := traffic.Specs()
	if o.workload != "all" {
		spec, ok := traffic.ByName(o.workload)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q (known: %v)", o.workload, names())
		}
		specs = []traffic.Spec{spec}
	}

	b, err := newBuilder(o.root)
	if err != nil {
		return nil, err
	}
	serverBin, err := b.server()
	if err != nil {
		return nil, err
	}

	var outcomes []outcome
	incorrect := false
	for _, spec := range specs {
		measure := time.Duration(o.seconds * float64(time.Second))
		cfg := runConfig{
			spec: spec, seed: o.seed, setups: setupRepeats, serverBin: serverBin,
			shortPhases: o.smoke || o.traced, corruptModel: o.corruptModel,
		}
		sizes := replaySizes{requests: replayRequests, solves: replaySolves}
		if o.traced {
			measure = time.Duration(float64(measure) * tracedShare)
			cfg.setups, cfg.solo = 1, soloPhaseLength
		}
		cfg.capacity = time.Duration(float64(measure) * capacityShare)
		cfg.paced = measure - cfg.capacity
		if o.smoke {
			cfg.capacity, cfg.paced, cfg.setups = smokePhase, smokePhase, 1
			sizes = replaySizes{requests: replayRequests / 4, solves: replaySolves / 2}
		}
		cfg.workDir, err = os.MkdirTemp(filepath.Join(b.root, ".bench_build"), "run-")
		if err != nil {
			return outcomes, err
		}
		res, err := runWorkload(cfg)
		if err != nil {
			return outcomes, fmt.Errorf("%s: %w", spec.Name, err)
		}
		var notes []string
		if o.traced {
			notes = replayLayers(b, cfg, sizes, res, o.outDir)
		}
		out := report(stdout, spec, o.seed, man, res, o.traced, notes)
		outcomes = append(outcomes, outcome{spec: spec, res: res, line: out})
		incorrect = incorrect || !out.Correct
		js, err := json.Marshal(out)
		if err != nil {
			return outcomes, err
		}
		fmt.Fprintf(stdout, "%s\n", js)
	}
	if incorrect {
		return outcomes, errors.New("a correctness check failed")
	}
	return outcomes, nil
}

// report prints the run for a reader and assembles the driver's line: the
// end-to-end metrics of an untraced run, the per-layer metrics of a traced
// one, exactly as BENCHMARK.json names them.
func report(w io.Writer, spec traffic.Spec, seed int64, man manifest, res *runResult, traced bool, notes []string) line {
	fmt.Fprintf(w, "== %s  seed=%d  ops_sent=%d  ops_failed=%d\n", spec.Name, seed, res.attempted, res.failed)
	show := func(group map[string]metric) {
		keys := make([]string, 0, len(group))
		for k := range group {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			m := group[k]
			n := ""
			if m.Count > 0 {
				n = fmt.Sprintf("  (n=%d)", m.Count)
			}
			fmt.Fprintf(w, "  %-40s %14.4f %-6s%s\n", k, m.Value, m.Unit, n)
		}
	}
	show(res.e2e)
	show(res.layer)
	for _, n := range notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, f := range res.failures {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", f)
	}

	out := line{Correct: len(res.failures) == 0, Attempted: max(res.attempted, 1), Failed: res.failed, Metrics: map[string]metric{}}
	want, have := man.EndToEnd, res.e2e
	if traced {
		want, have = man.PerLayer, res.layer
	}
	var unmeasured []string
	for _, name := range want {
		m, ok := have[name.Name]
		if !ok {
			unmeasured = append(unmeasured, name.Name)
		}
		out.Metrics[name.Name] = metric{Value: m.Value, Unit: name.Unit}
	}
	if len(unmeasured) > 0 {
		fmt.Fprintf(w, "  note: not measured in this run, reading 0: %s\n", strings.Join(unmeasured, ", "))
	}
	return out
}
