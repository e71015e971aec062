package core

import (
	"context"
	"strings"
	"testing"

	"rdbsc/internal/rng"
)

func TestRegistryBuiltinsResolve(t *testing.T) {
	cases := map[string]string{
		"greedy":             "GREEDY",
		"GREEDY":             "GREEDY",
		"sampling":           "SAMPLING",
		"dc":                 "D&C",
		"D&C":                "D&C",
		"d-c":                "D&C",
		"divide-and-conquer": "D&C",
		"gtruth":             "G-TRUTH",
		"G-TRUTH":            "G-TRUTH",
		"exhaustive":         "EXHAUSTIVE",
		"exact":              "EXHAUSTIVE",
	}
	for name, want := range cases {
		s, err := NewByName(name)
		if err != nil {
			t.Errorf("NewByName(%q): %v", name, err)
			continue
		}
		if s.Name() != want {
			t.Errorf("NewByName(%q).Name() = %q, want %q", name, s.Name(), want)
		}
	}
}

func TestRegistryReturnsFreshInstances(t *testing.T) {
	a, _ := NewByName("greedy")
	b, _ := NewByName("greedy")
	if a == b {
		t.Error("registry handed out the same solver instance twice")
	}
	// Mutating one must not affect the other.
	a.(*Greedy).Prune = false
	if !b.(*Greedy).Prune {
		t.Error("solver instances share state")
	}
}

func TestRegistryUnknownName(t *testing.T) {
	_, err := NewByName("simulated-annealing")
	if err == nil {
		t.Fatal("expected an error for an unknown solver")
	}
	msg := err.Error()
	for _, want := range []string{"simulated-annealing", "greedy", "dc", `"sharded-"`} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q does not mention %q", msg, want)
		}
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register did not panic")
		}
	}()
	Register("greedy", func() Solver { return NewGreedy() })
}

func TestRegistryAliasCollisionPanics(t *testing.T) {
	// "D.C." normalizes to "dc", which is taken.
	defer func() {
		if recover() == nil {
			t.Error("alias collision did not panic")
		}
	}()
	Register("test-solver-xyzzy", func() Solver { return NewDC() }, "D.C.")
}

func TestRegistryNilFactoryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil factory did not panic")
		}
	}()
	Register("nil-factory", nil)
}

func TestRegistryCustomSolver(t *testing.T) {
	Register("custom-greedy-noprune", func() Solver { return &Greedy{Prune: false} })
	s, err := NewByName("Custom-Greedy-NoPrune")
	if err != nil {
		t.Fatal(err)
	}
	if s.(*Greedy).Prune {
		t.Error("custom factory configuration lost")
	}
	found := false
	for _, n := range Names() {
		if n == "custom-greedy-noprune" {
			found = true
		}
	}
	if !found {
		t.Errorf("Names() = %v, missing the custom solver", Names())
	}
	// The custom solver is usable end to end.
	in := randomInstance(rng.New(1), 4, 8)
	p := NewProblem(in)
	if _, err := s.Solve(context.Background(), p, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryNamesSorted(t *testing.T) {
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] > names[i] {
			t.Fatalf("Names() not sorted: %v", names)
		}
	}
}

func TestNormalizeName(t *testing.T) {
	cases := map[string]string{
		"D&C": "dc", "g-truth": "gtruth", "  GREEDY  ": "greedy", "π": "",
	}
	for in, want := range cases {
		if got := normalizeName(in); got != want {
			t.Errorf("normalizeName(%q) = %q, want %q", in, got, want)
		}
	}
}
