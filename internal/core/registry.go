package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// SolverFactory builds a fresh solver instance with its default
// configuration.
type SolverFactory func() Solver

// registry maps solver names to factories. Lookup keys are normalized
// (lowercased, punctuation stripped), so "D&C", "d-c" and "dc" all resolve
// to the same entry; Names reports the canonical spellings given at
// registration.
var registry = struct {
	sync.RWMutex
	byKey map[string]SolverFactory
	names []string // canonical names, as registered
}{byKey: make(map[string]SolverFactory)}

// normalizeName folds a solver name to its lookup key: lowercase
// alphanumerics only ("D&C" -> "dc", "G-TRUTH" -> "gtruth").
func normalizeName(name string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(name) {
		if (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9') {
			b.WriteRune(r)
		}
	}
	return b.String()
}

// Register adds a solver factory under name plus any aliases. It panics on
// an empty or already-taken name (after normalization) and on a nil
// factory: registration conflicts are programming errors, caught at init.
func Register(name string, factory SolverFactory, aliases ...string) {
	if factory == nil {
		panic(fmt.Sprintf("core: Register(%q) with nil factory", name))
	}
	registry.Lock()
	defer registry.Unlock()
	for _, n := range append([]string{name}, aliases...) {
		key := normalizeName(n)
		if key == "" {
			panic(fmt.Sprintf("core: Register(%q): empty solver name", n))
		}
		if _, dup := registry.byKey[key]; dup {
			panic(fmt.Sprintf("core: solver %q already registered", n))
		}
		registry.byKey[key] = factory
	}
	registry.names = append(registry.names, name)
}

// NewByName builds a fresh solver by its registered name (or alias). Names
// are matched case- and punctuation-insensitively. Unknown names return an
// error listing the registered solvers.
func NewByName(name string) (Solver, error) {
	registry.RLock()
	factory, ok := registry.byKey[normalizeName(name)]
	known := append([]string(nil), registry.names...)
	registry.RUnlock()
	if !ok {
		sort.Strings(known)
		return nil, fmt.Errorf("core: unknown solver %q (registered: %s)",
			name, strings.Join(known, ", "))
	}
	return factory(), nil
}

// Names returns the canonical registered solver names, sorted.
func Names() []string {
	registry.RLock()
	names := append([]string(nil), registry.names...)
	registry.RUnlock()
	sort.Strings(names)
	return names
}

// The built-in solvers of the paper. "d&c" and "g-truth" resolve to "dc"
// and "gtruth" through name normalization alone; the explicit aliases cover
// longer spellings. The greedy candidate-maintenance variants are
// registered alongside the default so drivers and CLIs can select them by
// name: "greedy-naive" is the per-round full-recomputation baseline,
// "greedy" memoises each pair's Δ-bounds and exact Δ under its task state's
// version, and "greedy-parallel" shards each round's exact-Δ misses across
// CPUs on top of that memo — all three produce identical assignments.
func init() {
	Register("greedy", func() Solver { return NewGreedy() })
	Register("greedy-naive", func() Solver { return &Greedy{Prune: true} })
	Register("greedy-parallel", func() Solver {
		return &Greedy{Prune: true, Incremental: true, Parallel: true}
	})
	Register("sampling", func() Solver { return NewSampling() })
	Register("dc", func() Solver { return NewDC() }, "divide-and-conquer")
	Register("gtruth", func() Solver { return GTruth() })
	Register("exhaustive", func() Solver { return NewExhaustive() }, "exact")
}
