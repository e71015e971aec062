// Package adaptive implements latency-SLO solve-tier selection: per
// request, it inspects the snapshot's component-size histogram (from
// internal/decompose) and a hardness-derived difficulty estimate
// (internal/hardness), and picks a solver lane per connected component —
// exhaustive for tiny components, the default greedy for mid-sized ones,
// sampling under a computed round cap for hard ones — so that the
// predicted solve time fits an operator-declared p99 budget
// (rdbsc-server -slo-p99).
//
// The loop is closed against observation, not assumption: a Controller
// keeps one EWMA cost coefficient per lane (nanoseconds per unit of work,
// updated from every observed solve) and derives the per-lane size
// thresholds from budget/coefficient, so a lane that gets slower tightens
// its own threshold until the predicted latency fits again. A second,
// request-level loop scales a global headroom factor down whenever an
// observed solve exceeds the budget (and relaxes it slowly while solves
// stay under), which pulls the p99 — not just the mean — back under the
// budget after a latency regime change.
//
// When even the minimum-effort plan (sampling at the floor sample count)
// is predicted over budget, the serving layer still solves one request at
// a time as a probe, so observed latencies keep reaching the controller
// and an over-budget verdict cannot outlive the overload that caused it.
// Every other request degrades gracefully: it is served the cached last
// assignment stamped with an explicit staleness bound ("stale_ms")
// instead of answering 429, and shed only when no assignment younger than
// the configured staleness bound exists — admission control as the final
// backstop, not the first resort.
//
// Everything here trades exactness knowingly: adaptive mode may answer a
// request with a different (faster) solver than an unconstrained run would
// use, so its results are not bit-identical to the fixed-solver path.
// The trade is opt-in per server (-adaptive) and never touches requests
// that name an explicit solver. See docs/ARCHITECTURE.md for where the
// exactness contract holds and docs/SLO_TUNING.md for operating the
// controller.
package adaptive

import (
	"math"
	"runtime"
	"sync"
	"time"
)

// Lane is one of the controller's solver tiers.
type Lane uint8

// The lanes, cheapest-exact first: LaneExhaustive enumerates tiny
// components exactly, LaneGreedy runs the greedy approximation on
// mid-sized ones, LaneSampling draws a budget-capped number of random
// assignments from hard ones.
const (
	LaneExhaustive Lane = iota
	LaneGreedy
	LaneSampling

	numLanes = 3
)

// String returns the lane's stats/wire label.
func (l Lane) String() string {
	switch l {
	case LaneExhaustive:
		return "exhaustive"
	case LaneGreedy:
		return "greedy"
	case LaneSampling:
		return "sampling"
	}
	return "unknown"
}

// Config parameterizes a Controller. The zero value of every field except
// Budget is usable; New fills defaults.
type Config struct {
	// Budget is the p99 solve-latency target the controller plans against.
	// Required (> 0).
	Budget time.Duration
	// MaxStale bounds how old a degraded (stale-served) assignment may be;
	// past it the serving layer sheds with 429 instead. Default 5s.
	MaxStale time.Duration
	// Alpha is the EWMA weight for cost-coefficient updates in (0, 1].
	// Default 0.3: new observations dominate within a handful of solves.
	Alpha float64
	// ExhaustiveMaxPairs caps the component size (in valid pairs) the
	// exhaustive lane considers, independent of its population cap.
	// Default 64.
	ExhaustiveMaxPairs int
	// ExhaustivePop caps the enumerated population of the exhaustive lane
	// (core.Exhaustive.MaxAssignments). Default 1 << 14.
	ExhaustivePop int
	// MinSamples floors the sampling lane's computed round cap (quality
	// floor); MaxSamples ceilings it. Defaults 64 and 1 << 16.
	MinSamples int
	MaxSamples int
	// MinGreedyPairs floors the greedy lane's size threshold so the
	// controller never starves the mid tier entirely. Default 32.
	MinGreedyPairs int
}

func (c Config) withDefaults() Config {
	if c.MaxStale <= 0 {
		c.MaxStale = 5 * time.Second
	}
	if !(c.Alpha > 0 && c.Alpha <= 1) {
		c.Alpha = 0.3
	}
	if c.ExhaustiveMaxPairs <= 0 {
		c.ExhaustiveMaxPairs = 64
	}
	if c.ExhaustivePop <= 0 {
		c.ExhaustivePop = 1 << 14
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 64
	}
	if c.MaxSamples <= 0 {
		c.MaxSamples = 1 << 16
	}
	if c.MaxSamples < c.MinSamples {
		c.MaxSamples = c.MinSamples
	}
	if c.MinGreedyPairs <= 0 {
		c.MinGreedyPairs = 32
	}
	return c
}

// Decision is one planned component solve: the lane, the sampling round
// cap when the lane is LaneSampling, and the latency the controller
// predicted for it. Pass it back to Observe with the measured elapsed time
// so the coefficients learn.
type Decision struct {
	Lane        Lane
	SampleCap   int // > 0 only for LaneSampling
	PredictedMS float64
}

// RequestPlan is the admission verdict for a whole request over a
// component shape: the predicted request latency (components solve
// concurrently, so it follows the critical path, not the sum) and whether
// even the minimum-effort plan is predicted over budget — the degrade
// signal.
type RequestPlan struct {
	PredictedMS float64
	OverBudget  bool
}

// Initial cost coefficients (nanoseconds per unit of work), deliberately
// rough: the EWMA replaces them within a handful of observed solves, and
// starting pessimistic only means the first requests run a cheaper lane
// than strictly necessary.
const (
	initExhaustiveNSPerPair = 2000 // ns per pair (population-capped components)
	initGreedyNSPerPair     = 1500 // ns per pair
	initSamplingNSPerUnit   = 25   // ns per pair·sample
)

// headroom adaptation: every observed over-budget solve tightens the
// effective budget multiplicatively; under-budget solves relax it slowly
// back toward 1. The asymmetry (fast tighten, slow relax) is what bends
// the p99 — a 1-in-100 violation still moves the controller.
const (
	headroomTighten = 0.85
	headroomRelax   = 1.02
	headroomFloor   = 0.10
)

// Controller plans per-component solver lanes under a latency budget and
// re-tunes its per-lane thresholds from observed solve latencies. All
// methods are safe for concurrent use; a nil *Controller means "adaptive
// off" (Plan and Observe must not be called on it — the serving layers
// gate on enablement first).
type Controller struct {
	cfg Config

	mu       sync.Mutex
	coefNS   [numLanes]float64 // EWMA cost per work unit, ns
	latEWMA  [numLanes]float64 // EWMA observed solve latency per lane, ms
	solves   [numLanes]uint64
	headroom float64

	violations  uint64 // observed request solves over budget
	degraded    uint64 // requests answered by the degrade path
	staleServed uint64 // degraded requests served a stale assignment
	shed        uint64 // degraded requests shed with 429
	fallbacks   uint64 // exhaustive refusals re-run on the greedy lane
}

// New returns a controller for the given budget configuration. It panics
// when cfg.Budget is not positive — an SLO of zero is a configuration
// error, not a mode.
func New(cfg Config) *Controller {
	if cfg.Budget <= 0 {
		panic("adaptive: Config.Budget must be > 0")
	}
	cfg = cfg.withDefaults()
	c := &Controller{cfg: cfg, headroom: 1}
	c.coefNS[LaneExhaustive] = initExhaustiveNSPerPair
	c.coefNS[LaneGreedy] = initGreedyNSPerPair
	c.coefNS[LaneSampling] = initSamplingNSPerUnit
	return c
}

// Budget returns the configured p99 target.
func (c *Controller) Budget() time.Duration { return c.cfg.Budget }

// MaxStale returns the configured staleness bound for degraded responses.
func (c *Controller) MaxStale() time.Duration { return c.cfg.MaxStale }

// ExhaustivePop returns the population cap the exhaustive lane runs under.
func (c *Controller) ExhaustivePop() int { return c.cfg.ExhaustivePop }

// budgetMS is the effective (headroom-scaled) per-solve budget in
// milliseconds. Callers hold c.mu.
func (c *Controller) budgetMS() float64 {
	return float64(c.cfg.Budget) / float64(time.Millisecond) * c.headroom
}

// greedyMaxPairsLocked derives the greedy lane's size threshold from the
// effective budget and the lane's learned cost. Callers hold c.mu.
func (c *Controller) greedyMaxPairsLocked() int {
	budgetNS := c.budgetMS() * float64(time.Millisecond)
	limit := int(budgetNS / c.coefNS[LaneGreedy])
	if limit < c.cfg.MinGreedyPairs {
		limit = c.cfg.MinGreedyPairs
	}
	return limit
}

// sampleCapLocked computes the sampling round cap that fits the effective
// budget for a component of the given pair count. Callers hold c.mu.
func (c *Controller) sampleCapLocked(pairs int) int {
	budgetNS := c.budgetMS() * float64(time.Millisecond)
	k := int(budgetNS / (c.coefNS[LaneSampling] * float64(pairs)))
	if k < c.cfg.MinSamples {
		k = c.cfg.MinSamples
	}
	if k > c.cfg.MaxSamples {
		k = c.cfg.MaxSamples
	}
	return k
}

// Plan selects the lane for one component: pairs is its valid-pair count,
// lnPop the log of its complete-assignment population (the
// hardness-derived difficulty estimate; see hardness.Score).
func (c *Controller) Plan(pairs int, lnPop float64) Decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	budget := c.budgetMS()
	if pairs <= 0 {
		return Decision{Lane: LaneGreedy}
	}
	// Tiny population and tiny pair set: exact enumeration, if predicted
	// affordable.
	exMS := c.coefNS[LaneExhaustive] * float64(pairs) / float64(time.Millisecond)
	if pairs <= c.cfg.ExhaustiveMaxPairs &&
		lnPop <= math.Log(float64(c.cfg.ExhaustivePop)) && exMS <= budget {
		return Decision{Lane: LaneExhaustive, PredictedMS: exMS}
	}
	if pairs <= c.greedyMaxPairsLocked() {
		ms := c.coefNS[LaneGreedy] * float64(pairs) / float64(time.Millisecond)
		return Decision{Lane: LaneGreedy, PredictedMS: ms}
	}
	k := c.sampleCapLocked(pairs)
	ms := c.coefNS[LaneSampling] * float64(pairs) * float64(k) / float64(time.Millisecond)
	return Decision{Lane: LaneSampling, SampleCap: k, PredictedMS: ms}
}

// PlanRequest renders the admission verdict for a whole request over its
// component shape. Components solve concurrently under a GOMAXPROCS pool,
// so the predicted request latency is the larger of the critical path (the
// slowest single component) and the pool-limited average. The request is
// over budget when the minimum-effort plan — sampling floored at
// MinSamples on every component too big for the cheaper lanes — still
// exceeds the unscaled budget: below that point no lane choice can help,
// and the serving layer should degrade instead of burning the budget on a
// doomed solve.
func (c *Controller) PlanRequest(shape *Shape) RequestPlan {
	if shape == nil || len(shape.Components) == 0 {
		return RequestPlan{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	budgetMS := float64(c.cfg.Budget) / float64(time.Millisecond)
	var maxMS, sumMS, maxFloorMS float64
	for _, comp := range shape.Components {
		// Planned cost, mirroring Plan's lane choice.
		var ms float64
		exMS := c.coefNS[LaneExhaustive] * float64(comp.Pairs) / float64(time.Millisecond)
		switch {
		case comp.Pairs <= c.cfg.ExhaustiveMaxPairs &&
			comp.LnPopulation <= math.Log(float64(c.cfg.ExhaustivePop)) &&
			exMS <= c.budgetMS():
			ms = exMS
		case comp.Pairs <= c.greedyMaxPairsLocked():
			ms = c.coefNS[LaneGreedy] * float64(comp.Pairs) / float64(time.Millisecond)
		default:
			k := c.sampleCapLocked(comp.Pairs)
			ms = c.coefNS[LaneSampling] * float64(comp.Pairs) * float64(k) / float64(time.Millisecond)
		}
		if ms > maxMS {
			maxMS = ms
		}
		sumMS += ms
		// Minimum-effort floor for the same component: the cheapest thing
		// any lane can do.
		floorMS := ms
		if comp.Pairs > c.greedyMaxPairsLocked() {
			floorMS = c.coefNS[LaneSampling] * float64(comp.Pairs) *
				float64(c.cfg.MinSamples) / float64(time.Millisecond)
		}
		if floorMS > maxFloorMS {
			maxFloorMS = floorMS
		}
	}
	workers := runtime.GOMAXPROCS(0)
	predicted := sumMS / float64(workers)
	if maxMS > predicted {
		predicted = maxMS
	}
	return RequestPlan{PredictedMS: predicted, OverBudget: maxFloorMS > budgetMS}
}

// Observe feeds one component solve's measured latency back into the
// decision's lane: the lane's cost coefficient moves by EWMA toward the
// observed cost per work unit, which is what re-tunes the size thresholds
// online.
func (c *Controller) Observe(d Decision, pairs int, elapsed time.Duration) {
	if pairs <= 0 {
		return
	}
	units := float64(pairs)
	if d.Lane == LaneSampling && d.SampleCap > 0 {
		units *= float64(d.SampleCap)
	}
	perUnit := float64(elapsed) / units // ns per work unit
	ms := float64(elapsed) / float64(time.Millisecond)
	c.mu.Lock()
	defer c.mu.Unlock()
	a := c.cfg.Alpha
	c.coefNS[d.Lane] = (1-a)*c.coefNS[d.Lane] + a*perUnit
	if c.solves[d.Lane] == 0 {
		c.latEWMA[d.Lane] = ms
	} else {
		c.latEWMA[d.Lane] = (1-a)*c.latEWMA[d.Lane] + a*ms
	}
	c.solves[d.Lane]++
}

// ObserveRequest feeds one whole request's solve latency into the
// headroom loop: an over-budget solve tightens the effective budget every
// lane plans against, an under-budget one relaxes it slowly back toward
// the configured value.
func (c *Controller) ObserveRequest(elapsed time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if elapsed > c.cfg.Budget {
		c.violations++
		c.headroom *= headroomTighten
		if c.headroom < headroomFloor {
			c.headroom = headroomFloor
		}
		return
	}
	c.headroom *= headroomRelax
	if c.headroom > 1 {
		c.headroom = 1
	}
}

// NoteDegraded counts one request that entered the degrade path;
// staleServed reports whether it was answered with a stale assignment
// (true) or shed with 429 (false).
func (c *Controller) NoteDegraded(staleServed bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.degraded++
	if staleServed {
		c.staleServed++
	} else {
		c.shed++
	}
}

// NoteFallback counts one exhaustive-lane refusal re-run on the greedy
// lane.
func (c *Controller) NoteFallback() {
	c.mu.Lock()
	c.fallbacks++
	c.mu.Unlock()
}

// Thresholds is the controller's current derived tuning, exposed for
// stats and tests.
type Thresholds struct {
	// GreedyMaxPairs is the largest component (in pairs) the greedy lane
	// currently accepts.
	GreedyMaxPairs int
	// ExhaustiveMaxPairs is the (static) pair cap of the exhaustive lane.
	ExhaustiveMaxPairs int
	// Headroom is the current budget scale in (0, 1].
	Headroom float64
}

// CurrentThresholds returns the derived per-lane size thresholds.
func (c *Controller) CurrentThresholds() Thresholds {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Thresholds{
		GreedyMaxPairs:     c.greedyMaxPairsLocked(),
		ExhaustiveMaxPairs: c.cfg.ExhaustiveMaxPairs,
		Headroom:           c.headroom,
	}
}

// LaneStats is one lane's row in the stats view.
type LaneStats struct {
	// Solves counts component solves the lane ran.
	Solves uint64 `json:"solves"`
	// EWMALatencyMS is the lane's smoothed observed solve latency.
	EWMALatencyMS float64 `json:"ewma_latency_ms"`
	// EWMACostNS is the lane's learned cost coefficient in nanoseconds per
	// work unit (per pair; per pair·sample for the sampling lane).
	EWMACostNS float64 `json:"ewma_cost_ns"`
}

// Stats is the /v1/stats "adaptive" block: configuration, learned
// thresholds, per-lane counters, and the degrade/shed accounting.
type Stats struct {
	BudgetMS           float64   `json:"budget_ms"`
	MaxStaleMS         float64   `json:"max_stale_ms"`
	Headroom           float64   `json:"headroom"`
	GreedyMaxPairs     int       `json:"greedy_max_pairs"`
	ExhaustiveMaxPairs int       `json:"exhaustive_max_pairs"`
	Exhaustive         LaneStats `json:"exhaustive"`
	Greedy             LaneStats `json:"greedy"`
	Sampling           LaneStats `json:"sampling"`
	SLOViolations      uint64    `json:"slo_violations"`
	Degraded           uint64    `json:"degraded"`
	StaleServed        uint64    `json:"stale_served"`
	Shed               uint64    `json:"shed"`
	Fallbacks          uint64    `json:"fallbacks"`
}

// StatsSnapshot returns a point-in-time copy of the controller's state for
// /v1/stats.
func (c *Controller) StatsSnapshot() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	lane := func(l Lane) LaneStats {
		return LaneStats{
			Solves:        c.solves[l],
			EWMALatencyMS: c.latEWMA[l],
			EWMACostNS:    c.coefNS[l],
		}
	}
	return Stats{
		BudgetMS:           float64(c.cfg.Budget) / float64(time.Millisecond),
		MaxStaleMS:         float64(c.cfg.MaxStale) / float64(time.Millisecond),
		Headroom:           c.headroom,
		GreedyMaxPairs:     c.greedyMaxPairsLocked(),
		ExhaustiveMaxPairs: c.cfg.ExhaustiveMaxPairs,
		Exhaustive:         lane(LaneExhaustive),
		Greedy:             lane(LaneGreedy),
		Sampling:           lane(LaneSampling),
		SLOViolations:      c.violations,
		Degraded:           c.degraded,
		StaleServed:        c.staleServed,
		Shed:               c.shed,
		Fallbacks:          c.fallbacks,
	}
}
