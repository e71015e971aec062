package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rdbsc/bench/traffic"
	"rdbsc/internal/model"
)

func readManifest(t *testing.T) manifest {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var man manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	return man
}

// BENCHMARK.json and the workload table must name the same workloads, in
// words that fit the driver's limits.
func TestManifestMatchesSpecs(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	specs := traffic.Specs()
	if len(man.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json names %d workloads, bench/traffic %d", len(man.Workloads), len(specs))
	}
	for i, w := range man.Workloads {
		if w.Name != specs[i].Name {
			t.Errorf("workload %d: BENCHMARK.json has %q, bench/traffic %q", i, w.Name, specs[i].Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
}

// TestSmoke is the whole benchmark in small: every workload against the
// real server binary with 2 s phases, all correctness checks on, followed
// by the traced replay. It asserts that nothing fails, that every
// end-to-end metric BENCHMARK.json promises is measured and non-zero on
// every workload, and that every per-layer metric is measured on at least
// one workload.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the server; skipped under -short")
	}
	man := readManifest(t)
	outDir := t.TempDir()
	outcomes, err := run(options{root: "..", workload: "all", seed: 1, traced: true, smoke: true, outDir: outDir}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != len(traffic.Specs()) {
		t.Fatalf("%d workloads ran, want %d", len(outcomes), len(traffic.Specs()))
	}
	measured := map[string]bool{}
	for _, o := range outcomes {
		name := o.spec.Name
		for _, f := range o.res.failures {
			t.Errorf("%s: check failed: %s", name, f)
		}
		if o.res.failed != 0 || o.res.attempted == 0 {
			t.Errorf("%s: ops_sent=%d ops_failed=%d", name, o.res.attempted, o.res.failed)
		}
		if !o.line.Correct {
			t.Errorf("%s: the result line says correct=false", name)
		}
		for _, m := range man.EndToEnd {
			got, ok := o.res.e2e[m.Name]
			switch {
			case !ok:
				t.Errorf("%s: end-to-end metric %s was not measured", name, m.Name)
			case got.Unit != m.Unit:
				t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", name, m.Name, got.Unit, m.Unit)
			case got.Value <= 0 && !strings.Contains(m.Name, "_p"):
				// Percentiles are refused (0) in a smoke run: too few samples.
				t.Errorf("%s: %s = %v, want a positive value", name, m.Name, got.Value)
			}
		}
		for _, m := range man.PerLayer {
			if got, ok := o.res.layer[m.Name]; ok {
				measured[m.Name] = true
				if got.Unit != m.Unit {
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", name, m.Name, got.Unit, m.Unit)
				}
			}
			if _, ok := o.line.Metrics[m.Name]; !ok {
				t.Errorf("%s: the traced result line lacks %s", name, m.Name)
			}
		}
		if len(o.line.Metrics) != len(man.PerLayer) {
			t.Errorf("%s: the traced result line has %d metrics, BENCHMARK.json %d", name, len(o.line.Metrics), len(man.PerLayer))
		}
		for k := range o.res.layer {
			found := false
			for _, m := range man.PerLayer {
				found = found || m.Name == k
			}
			if !found {
				t.Errorf("%s: measured %s, which BENCHMARK.json does not list", name, k)
			}
		}

		raw, err := os.ReadFile(filepath.Join(outDir, "trace-"+name+".json"))
		if err != nil {
			t.Errorf("%s: span file: %v", name, err)
			continue
		}
		var tf traceFile
		if err := json.Unmarshal(raw, &tf); err != nil {
			t.Errorf("%s: span file: %v", name, err)
			continue
		}
		spans := 0
		for _, p := range tf.Probes {
			for _, s := range p.Spans {
				if s.End < s.Start || s.Name == "" || s.Parent >= len(p.Spans) {
					t.Errorf("%s: malformed span in %s: %+v", name, p.Layer, s)
				}
				spans++
			}
		}
		if spans == 0 {
			t.Errorf("%s: the span file holds no span", name)
		}
	}
	for _, m := range man.PerLayer {
		if !measured[m.Name] {
			t.Errorf("per-layer metric %s was not measured on any workload", m.Name)
		}
	}
}

// A wrong model must be caught: the deliberately broken check makes the
// run incorrect and the command fail.
func TestBrokenCheckFailsTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the server; skipped under -short")
	}
	phantom := func(st *traffic.State) {
		st.Workers[1<<20] = model.Worker{ID: 1 << 20, Speed: 1, Confidence: 0.9}
	}
	outcomes, err := run(options{root: "..", workload: "islands-solve", seed: 1, smoke: true, outDir: t.TempDir(), corruptModel: phantom}, io.Discard)
	if err == nil {
		t.Error("run returned no error although the model was corrupted")
	}
	if len(outcomes) != 1 || len(outcomes[0].res.failures) == 0 || outcomes[0].line.Correct {
		t.Errorf("the corrupted model was not reported: %+v", outcomes)
	}
}
