package traffic

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"rdbsc/internal/decompose"
	"rdbsc/internal/geo"
)

var update = flag.Bool("update", false, "rewrite ../testdata/streams.sha256 from the current generators")

const pinned = "../testdata/streams.sha256"

// digest hashes everything a run of the workload would send first: the
// preload, the first 400 mutation requests, and 60 solves of each kind.
func digest(t *testing.T, spec Spec, seed int64) string {
	t.Helper()
	st, stream, err := Generate(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	write := func(r Request) {
		method, path, body := r.HTTP()
		fmt.Fprintf(h, "%s %s %d\n%s\n", method, path, r.ID, body)
	}
	fmt.Fprintf(h, "beta=%v wait=%v\n", st.Beta, st.Opt.WaitAllowed)
	for _, r := range st.Preload() {
		write(r)
	}
	for i := 0; i < 400; i++ {
		r, ok := stream.Next()
		if !ok {
			t.Fatalf("%s: stream ended after %d requests", spec.Name, i)
		}
		write(r)
	}
	solves := NewSolves(spec, seed)
	for i := 0; i < 60; i++ {
		h.Write(solves.Unique().Body())
	}
	for i := 0; i < 60; i++ {
		h.Write(solves.Paced(i).Body())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// The same seed must give byte-identical request streams, and the seed-1
// streams must be the ones the baseline was measured on.
func TestStreamsDeterministicAndPinned(t *testing.T) {
	var lines []string
	for _, spec := range Specs() {
		a, b := digest(t, spec, 1), digest(t, spec, 1)
		if a != b {
			t.Errorf("%s: two generations from seed 1 differ", spec.Name)
		}
		if digest(t, spec, 2) == a {
			t.Errorf("%s: seed 2 generates the seed-1 stream", spec.Name)
		}
		lines = append(lines, a+"  "+spec.Name)
	}
	got := strings.Join(lines, "\n") + "\n"
	if *update {
		if err := os.WriteFile(pinned, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(pinned)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("seed-1 streams changed (rerun with -update only if the baseline is re-measured too):\ngot\n%swant\n%s", got, want)
	}
}

// The mover must keep the population where the scenario put it: islands
// stay disconnected, everybody stays inside their bounds, and narrow-cone
// workers do not pile up against a wall.
func TestMoverKeepsPopulationShape(t *testing.T) {
	for _, spec := range Specs() {
		if spec.Batch == 0 {
			continue
		}
		st, stream, err := Generate(spec, 3)
		if err != nil {
			t.Fatal(err)
		}
		before := len(st.Instance().ValidPairs())
		comps := decompose.Build(st.Instance().ValidPairs()).Len()
		// Enough requests for every worker to move a few hundred times.
		n := 300 * spec.MoveEvery * len(st.Workers) / spec.Batch
		for i := 0; i < n; i++ {
			r, _ := stream.Next()
			if len(r.Workers) != spec.Batch {
				t.Fatalf("%s: request of %d workers, want %d", spec.Name, len(r.Workers), spec.Batch)
			}
			st.Apply(r)
		}
		for _, w := range st.Workers {
			if !w.Loc.In(geo.UnitSquare) || math.IsNaN(w.Loc.X+w.Loc.Y) {
				t.Fatalf("%s: worker %d left the unit square: %v", spec.Name, w.ID, w.Loc)
			}
			if err := w.Valid(); err != nil {
				t.Fatal(err)
			}
		}
		after := len(st.Instance().ValidPairs())
		if float64(after) < 0.6*float64(before) || float64(after) > 1.6*float64(before) {
			t.Errorf("%s: %d valid pairs before moving, %d after: the population drifted", spec.Name, before, after)
		}
		if spec.Scenario == "islands" {
			if got := decompose.Build(st.Instance().ValidPairs()).Len(); got < comps {
				t.Errorf("islands merged: %d components before moving, %d after", comps, got)
			}
		}
	}
}

// A heartbeat request re-reports positions unchanged; only every
// MoveEvery-th request moves anybody.
func TestHeartbeatsLeaveStateAlone(t *testing.T) {
	spec, _ := ByName("islands-solve")
	st, stream, err := Generate(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3*spec.MoveEvery; k++ {
		r, _ := stream.Next()
		changed := false
		for _, w := range r.Workers {
			if st.Workers[w.ID] != w {
				changed = true
			}
		}
		if want := (k+1)%spec.MoveEvery == 0; changed != want {
			t.Errorf("request %d: changed=%v, want %v", k, changed, want)
		}
		st.Apply(r)
	}
}

func TestSolveSeeds(t *testing.T) {
	spec, _ := ByName("islands-solve")
	s := NewSolves(spec, 1)
	seen := map[int64]bool{}
	for i := 0; i < 100; i++ {
		u := s.Unique()
		if u.Seed == 0 || seen[u.Seed] {
			t.Fatalf("unique solve %d has seed %d (zero or repeated)", i, u.Seed)
		}
		seen[u.Seed] = true
	}
	for i := 0; i < 24; i++ {
		if got, want := s.Paced(i).Seed, int64(1+i%spec.SeedCycle); got != want {
			t.Errorf("paced solve %d has seed %d, want %d", i, got, want)
		}
	}
}
