// Package workload defines the named scenario suite. Every scenario is
// parameterized by a common Params block and fully determined by its seed,
// and produces two shapes of workload:
//
//   - a one-shot model.Instance, the input of a single solve — what
//     rdbsc-bench's "scenarios" experiment (internal/exp) sweeps;
//   - a timed churn Trace — an explicit event sequence (task/worker arrivals
//     and departures on a simulated clock) that internal/stream replays
//     against an engine (Config.Trace), that the cluster differential and
//     crash-restart tests drive through both backends, and that the
//     repository benchmark (bench/traffic) turns into HTTP traffic.
//
// The scenarios deliberately go beyond the paper's Table 2 settings (which
// package gen covers as the uniform/dense/islands generators): Zipf-skewed
// task popularity, rush-hour arrival bursts, a moving spatial hotspot,
// heavy worker churn, multi-city disconnected regions, and an adversarial
// near-clique worst case. The benchmark's workloads name their scenario
// by registry key, so the names are a fixed vocabulary.
package workload

import (
	"fmt"
	"sort"

	"rdbsc/internal/model"
)

// Params is the common scenario parameter block. The zero value selects the
// defaults below; scenarios derive every internal knob (hotspot counts,
// burst widths, churn rates) from these plus fixed documented constants, so
// a (name, Params) pair pins a workload exactly.
type Params struct {
	// M and N are the task and worker counts of the one-shot instance and
	// the arrival-volume scale of the trace (defaults 80/160, the bench
	// scale used across the repository).
	M, N int
	// Seed drives all randomness (default 1).
	Seed int64
	// Horizon is the trace span in simulated hours (default 4). One-shot
	// instances ignore it except where noted per scenario.
	Horizon float64
}

func (p Params) withDefaults() Params {
	if p.M <= 0 {
		p.M = 80
	}
	if p.N <= 0 {
		p.N = 160
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.Horizon <= 0 {
		p.Horizon = 4
	}
	return p
}

// Scenario is one named workload. Both constructors are always non-nil:
// trace-first scenarios derive their one-shot instance from a snapshot of
// the churn profile, and instance-first scenarios derive their trace from
// the entities' own timestamps (tasks arrive at Start, workers at Depart).
type Scenario struct {
	// Name is the registry key ByName resolves.
	Name string
	// Description is a one-line summary.
	Description string
	// Instance builds the one-shot instance.
	Instance func(p Params) *model.Instance
	// Trace builds the timed churn trace.
	Trace func(p Params) *Trace
}

// Registry returns every scenario in presentation order.
func Registry() []Scenario {
	out := make([]Scenario, len(scenarios))
	copy(out, scenarios)
	return out
}

// Names returns the registered scenario names in presentation order.
func Names() []string {
	names := make([]string, len(scenarios))
	for i, s := range scenarios {
		names[i] = s.Name
	}
	return names
}

// ByName looks a scenario up by name.
func ByName(name string) (Scenario, error) {
	for _, s := range scenarios {
		if s.Name == name {
			return s, nil
		}
	}
	known := Names()
	sort.Strings(known)
	return Scenario{}, fmt.Errorf("workload: unknown scenario %q (known: %v)", name, known)
}
