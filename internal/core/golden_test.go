package core_test

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"rdbsc/internal/core"
	"rdbsc/internal/model"
	"rdbsc/internal/workload"
)

// -update regenerates the golden answer corpus instead of comparing
// against it:
//
//	go test ./internal/core -run TestGoldenAnswers -update
//
// A regenerated file must be reviewed row by row: every changed row is a
// changed answer.
var update = flag.Bool("update", false, "rewrite testdata/answers.golden")

const goldenPath = "testdata/answers.golden"

// goldenCase is one pinned solve: a workload scenario at a scale, one seed
// (driving both the instance draw and the solver's randomness) and one
// solver configuration.
type goldenCase struct {
	scenario string
	m, n     int
	seed     int64
	config   string
	solver   func() core.Solver
}

func (c goldenCase) key() string {
	return fmt.Sprintf("%s %d/%d seed=%d %s", c.scenario, c.m, c.n, c.seed, c.config)
}

// byName is a registry-resolved configuration.
func byName(t *testing.T, name string) (string, func() core.Solver) {
	return name, func() core.Solver {
		s, err := core.NewByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
}

// goldenCases pins every solver configuration the service can run:
//   - greedy and sampling at the benchmark's served scales;
//   - dc, gtruth and exhaustive at reduced scales (they take up to seconds
//     at served ones, and exhaustive needs a population under its cap);
//   - the sharded-* composites on islands, where decomposition splits the
//     instance;
//   - the naive greedy loop, the oracle the incremental greedy is tested
//     against;
//   - the adaptive tier's sampling lane at its fixed decision.
func goldenCases(t *testing.T) []goldenCase {
	var cases []goldenCase
	add := func(scenario string, m, n int, seeds []int64, config string, mk func() core.Solver) {
		for _, seed := range seeds {
			cases = append(cases, goldenCase{scenario, m, n, seed, config, mk})
		}
	}
	served := []struct {
		scenario string
		m, n     int
	}{{"churn", 120, 240}, {"clique", 60, 120}, {"uniform", 240, 480}, {"islands", 100, 200}}
	for _, s := range served {
		for _, name := range []string{"greedy", "sampling"} {
			cfg, mk := byName(t, name)
			add(s.scenario, s.m, s.n, []int64{1, 2}, cfg, mk)
		}
	}
	for _, name := range []string{"dc", "gtruth"} {
		cfg, mk := byName(t, name)
		add("churn", 24, 48, []int64{1, 2}, cfg, mk)
		add("clique", 16, 32, []int64{1, 2}, cfg, mk)
	}
	cfg, mk := byName(t, "exhaustive")
	add("clique", 3, 8, []int64{1, 2}, cfg, mk)
	for _, inner := range []string{"greedy", "sampling", "dc", "gtruth"} {
		cfg, mk := byName(t, "sharded-"+inner)
		add("islands", 24, 48, []int64{1, 2}, cfg, mk)
	}
	cfg, mk = byName(t, "sharded-exhaustive")
	add("islands", 8, 12, []int64{1, 2}, cfg, mk)
	naive := func() core.Solver { return &core.Greedy{Prune: true} }
	add("churn", 120, 240, []int64{1}, "Greedy{Prune}", naive)
	add("clique", 30, 60, []int64{1, 2}, "Greedy{Prune}", naive)
	for _, s := range served[:2] {
		add(s.scenario, s.m, s.n, []int64{3}, "Sampling{FixedK:64,Parallel}",
			func() core.Solver { return &core.Sampling{FixedK: 64, Parallel: true} })
	}
	return cases
}

// goldenRow renders one solve's answer: the SHA-256 of the sorted
// worker:task lines, the Evaluation's float fields as IEEE-754 bits, and
// the round and sample counters.
func goldenRow(c goldenCase, res *core.Result) string {
	var lines []string
	res.Assignment.Workers(func(w model.WorkerID, t model.TaskID) {
		lines = append(lines, fmt.Sprintf("%d:%d", w, t))
	})
	sort.Strings(lines)
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	ev := res.Eval
	return fmt.Sprintf("%s | assign=%s minrel=%016x minr=%016x estd=%016x workers=%d tasks=%d rounds=%d samples=%d",
		c.key(), hex.EncodeToString(sum[:]),
		math.Float64bits(ev.MinRel), math.Float64bits(ev.MinR), math.Float64bits(ev.TotalESTD),
		ev.AssignedWorkers, ev.AssignedTasks, res.Stats.Rounds, res.Stats.Samples)
}

// TestGoldenAnswers pins the exact answer of every solver configuration on
// fixed workloads. Any change to draws, tie-breaking, candidate order or
// floating-point evaluation order shows up as a changed row.
func TestGoldenAnswers(t *testing.T) {
	var got []string
	for _, c := range goldenCases(t) {
		sc, err := workload.ByName(c.scenario)
		if err != nil {
			t.Fatal(err)
		}
		in := sc.Instance(workload.Params{M: c.m, N: c.n, Seed: c.seed})
		res, err := c.solver().Solve(context.Background(), core.NewProblem(in), &core.SolveOptions{Seed: c.seed})
		if err != nil {
			t.Fatalf("%s: %v", c.key(), err)
		}
		got = append(got, goldenRow(c, res))
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden file has %d rows, the corpus %d (regenerate with -update)", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("answer changed:\n got %s\nwant %s", got[i], want[i])
		}
	}
}
