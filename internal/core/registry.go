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

// shardedPrefix is the normalized prefix that wraps a registered solver in
// component decomposition: "sharded-<name>" resolves <name> and returns
// NewSharded over it. Resolution is one level deep, so "sharded-sharded-dc"
// is an unknown name.
const shardedPrefix = "sharded"

// NewByName builds a fresh solver by its registered name (or alias), or by
// "sharded-" followed by one. Names are matched case- and
// punctuation-insensitively. Unknown names return an error listing the
// registered solvers.
func NewByName(name string) (Solver, error) {
	key := normalizeName(name)
	registry.RLock()
	factory, ok := registry.byKey[key]
	sharded := false
	if inner, isSharded := strings.CutPrefix(key, shardedPrefix); !ok && isSharded {
		factory, ok = registry.byKey[inner]
		sharded = ok
	}
	known := append([]string(nil), registry.names...)
	registry.RUnlock()
	if !ok {
		sort.Strings(known)
		return nil, fmt.Errorf("core: unknown solver %q (registered: %s; prefix any of them with %q to solve per connected component)",
			name, strings.Join(known, ", "), shardedPrefix+"-")
	}
	if sharded {
		return NewSharded(factory()), nil
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
// longer spellings.
func init() {
	Register("greedy", func() Solver { return NewGreedy() })
	Register("sampling", func() Solver { return NewSampling() })
	Register("dc", func() Solver { return NewDC() }, "divide-and-conquer")
	Register("gtruth", func() Solver { return GTruth() })
	Register("exhaustive", func() Solver { return NewExhaustive() }, "exact")
}
