package core

import (
	"container/heap"
	"context"
	"math"
	"sort"
	"sync"

	"rdbsc/internal/model"
	"rdbsc/internal/objective"
	"rdbsc/internal/scratch"
)

// Greedy implements the RDB-SC_Greedy algorithm of Figure 3: it repeatedly
// selects the task-worker pair whose assignment increases the two goals the
// most, ranking candidate pairs by their top-k dominating score [22] in the
// (Δmin-reliability, Δdiversity) plane, until no unassigned worker can
// reach any task.
//
// With Prune enabled (the default), candidate pairs are first filtered with
// the Lemma 4.3 bound-based pruning: a pair whose diversity-increase upper
// bound falls below another pair's lower bound (at equal-or-worse Δmin-R)
// is discarded before its exact Δdiversity is computed.
//
// With Incremental enabled (the default), per-pair results are maintained
// across rounds instead of recomputed from scratch: a round mutates exactly
// one task's state, so only that task's pairs need fresh Δ-diversity bounds
// or a fresh exact ΔE[STD]. Both are memoised under the task state's
// version counter, so every other pair's bounds stay valid and its exact Δ,
// once computed for a round it survived pruning in, is never computed again
// at that version; only the cheap Δmin-R term is refreshed each round, from
// an incrementally maintained min/second-min R. Pruning still reads only
// the bounds. The assignment produced is bit-identical to the
// non-incremental path; Greedy{Incremental: false} keeps the
// full-recomputation loop reachable for differential testing.
type Greedy struct {
	// Prune toggles the Lemma 4.3 bound-based candidate pruning.
	Prune bool
	// Incremental memoises candidate Δ-bounds and exact ΔE[STD] across
	// rounds in a per-pair cache keyed on the task state's version, so only
	// the pairs of the task assigned in the previous round recompute.
	Incremental bool
}

// NewGreedy returns the default greedy solver (pruning and incremental
// candidate maintenance enabled).
func NewGreedy() *Greedy { return &Greedy{Prune: true, Incremental: true} }

// Name implements Solver.
func (g *Greedy) Name() string { return "GREEDY" }

// greedyScratch bundles the buffers one greedy solve reuses across rounds:
// the candidate list, the indices of its exact-Δ misses, the objective
// vectors, and a scratch.Buffers feeding every slice temporary underneath
// (bound/delta evaluation, skyline, dominance scores, pruning). Solves
// check one out of a process-wide sync.Pool, so steady-state serving reuses
// warmed buffers across requests too. It is single-goroutine state.
type greedyScratch struct {
	bufs   *scratch.Buffers
	cands  []candidate
	misses []int
	vecs   []objective.Vec2
}

var greedyScratchPool = sync.Pool{New: func() any { return &greedyScratch{bufs: new(scratch.Buffers)} }}

func getGreedyScratch() *greedyScratch {
	gs := greedyScratchPool.Get().(*greedyScratch)
	gs.bufs.ResetCounters()
	return gs
}

func putGreedyScratch(gs *greedyScratch) { greedyScratchPool.Put(gs) }

// fold records the solve's pool hit rate into its stats.
func (gs *greedyScratch) fold(stats *Stats) {
	allocs, reuses := gs.bufs.Counters()
	stats.ScratchAllocs += allocs
	stats.ScratchReused += reuses
}

// candidate is one task-worker pair under consideration in a round.
type candidate struct {
	pairIdx int32
	dMinR   float64 // increase of the smallest per-task R across tasks
	dR      float64 // increase of the task's own R (−ln(1−p))
	lbD     float64 // lower bound on ΔE[STD]
	ubD     float64 // upper bound on ΔE[STD]
	dD      float64 // exact ΔE[STD]: memoised, or computed after pruning survives
	exact   bool    // dD is set; selectBest computes dD only where this is false
}

// Solve implements Solver. When opts carries SeedStates, the seeded
// contributions shape every Δ-objective and their workers are excluded from
// assignment (the returned assignment then contains only new workers).
func (g *Greedy) Solve(ctx context.Context, p *Problem, opts *SolveOptions) (*Result, error) {
	return g.SolveWithStates(ctx, p, opts.seedStates(), opts)
}

// SolveFrom runs the greedy assignment on top of an existing partial
// assignment: committed workers stay on their tasks and their contributions
// seed the per-task objective states, so new pairs are chosen "considering
// A and S_c" exactly as line 6 of the incremental updating strategy
// (Figure 10) prescribes. A nil existing assignment reduces to Solve.
func (g *Greedy) SolveFrom(ctx context.Context, p *Problem, existing *model.Assignment, opts *SolveOptions) (*Result, error) {
	var seed map[model.TaskID]*objective.TaskState
	if existing != nil {
		seed = p.NewStates(existing)
	}
	res, err := g.SolveWithStates(ctx, p, seed, opts)
	if existing != nil {
		existing.Workers(func(w model.WorkerID, t model.TaskID) {
			res.Assignment.Assign(w, t)
		})
		res.Eval = p.Evaluate(res.Assignment)
	}
	return res, err
}

// SolveWithStates runs the greedy assignment with externally seeded
// per-task objective states — contributions (answers already received,
// workers already travelling) that are not part of the problem's worker set
// but must influence the Δ-objective of every new pair. Workers appearing
// in the seeded states are excluded from assignment. The returned
// assignment contains only newly assigned workers.
func (g *Greedy) SolveWithStates(ctx context.Context, p *Problem, seed map[model.TaskID]*objective.TaskState, opts *SolveOptions) (*Result, error) {
	states := make(map[model.TaskID]*objective.TaskState, len(p.In.Tasks))
	committed := make(map[model.WorkerID]bool)
	for i := range p.In.Tasks {
		t := p.In.Tasks[i]
		if st := seed[t.ID]; st != nil {
			states[t.ID] = st.Clone()
			for _, w := range st.Workers() {
				committed[w] = true
			}
			continue
		}
		states[t.ID] = objective.NewTaskState(t, p.In.Beta)
	}
	free := make(map[model.WorkerID]bool)
	for _, w := range p.ConnectedWorkers() {
		if !committed[w] {
			free[w] = true
		}
	}
	if g.Incremental {
		return g.runIncremental(ctx, p, states, free, opts)
	}
	return g.runNaive(ctx, p, states, free, opts)
}

// runNaive is the full-recomputation loop: every round rebuilds the Δ-bounds
// of every pair of every free worker. Kept reachable (Incremental: false) as
// the differential-testing baseline.
func (g *Greedy) runNaive(ctx context.Context, p *Problem, states map[model.TaskID]*objective.TaskState, free map[model.WorkerID]bool, opts *SolveOptions) (*Result, error) {
	assignment := model.NewAssignment()
	gs := getGreedyScratch()
	defer putGreedyScratch(gs)
	var stats Stats
	for len(free) > 0 {
		if ctx.Err() != nil {
			gs.fold(&stats)
			return finishResult(p, assignment, stats), interrupted(ctx)
		}
		cands := g.collectCandidates(p, states, free, gs, &stats)
		if len(cands) == 0 {
			break
		}
		best := g.selectBest(p, states, cands, nil, gs, &stats)
		g.commitRound(p, states, free, assignment, best, nil, gs, &stats, opts)
	}
	gs.fold(&stats)
	return finishResult(p, assignment, stats), nil
}

// runIncremental maintains the candidates across rounds: a per-pair cache
// keyed on the task state's version serves the bounds, and the exact Δ once
// computed, of every pair whose task did not change in the previous round;
// the global min/second-min R feeding the Δmin-R term is updated in
// O(log m) instead of rescanned; and each pair's task state and ΔR are
// looked up once per solve rather than once per round.
func (g *Greedy) runIncremental(ctx context.Context, p *Problem, states map[model.TaskID]*objective.TaskState, free map[model.WorkerID]bool, opts *SolveOptions) (*Result, error) {
	assignment := model.NewAssignment()
	cache := newBoundCache(len(p.Pairs))
	pc := newPairConsts(p, states)
	tracker := newMinTwoTracker(states)
	gs := getGreedyScratch()
	defer putGreedyScratch(gs)
	var stats Stats
	for len(free) > 0 {
		if ctx.Err() != nil {
			gs.fold(&stats)
			return finishResult(p, assignment, stats), interrupted(ctx)
		}
		cands := g.collectCached(p, pc, free, cache, tracker, gs, &stats)
		if len(cands) == 0 {
			break
		}
		best := g.selectBest(p, states, cands, cache, gs, &stats)
		g.commitRound(p, states, free, assignment, best, tracker, gs, &stats, opts)
	}
	gs.fold(&stats)
	return finishResult(p, assignment, stats), nil
}

// commitRound applies the winning pair and emits the round's progress.
func (g *Greedy) commitRound(p *Problem, states map[model.TaskID]*objective.TaskState, free map[model.WorkerID]bool, assignment *model.Assignment, best candidate, tracker *minTwoTracker, gs *greedyScratch, stats *Stats, opts *SolveOptions) {
	pr := p.Pairs[best.pairIdx]
	w := p.Worker(pr.Worker)
	st := states[pr.Task]
	st.AddPairBuf(gs.bufs, pr, w.Confidence)
	if tracker != nil {
		tracker.update(pr.Task, st.R())
	}
	assignment.Assign(pr.Worker, pr.Task)
	delete(free, pr.Worker)
	stats.Rounds++
	opts.emit(Stage{
		Solver:   g.Name(),
		Round:    stats.Rounds,
		Assigned: assignment.Len(),
		Stats:    *stats,
	})
}

// collectCandidates builds the per-round candidate list with Δmin-R and
// diversity-increase bounds for every valid pair of a free worker.
func (g *Greedy) collectCandidates(p *Problem, states map[model.TaskID]*objective.TaskState, free map[model.WorkerID]bool, gs *greedyScratch, stats *Stats) []candidate {
	minR, secondR := minTwoR(states)
	cands := gs.cands[:0]
	for i := range p.In.Workers {
		wid := p.In.Workers[i].ID
		if !free[wid] {
			continue
		}
		w := &p.In.Workers[i]
		for _, pi := range p.WorkerPairs(wid) {
			pr := p.Pairs[pi]
			st := states[pr.Task]
			dR := objective.RTerm(w.Confidence)
			c := candidate{
				pairIdx: pi,
				dR:      dR,
				dMinR:   deltaMinR(st.R(), dR, minR, secondR),
			}
			b := st.DeltaBoundsIfAddBuf(gs.bufs, w.Confidence, pr.Arrival, pr.Angle)
			stats.BoundsComputed++
			c.lbD, c.ubD = b.Lo, b.Hi
			cands = append(cands, c)
		}
	}
	gs.cands = cands // keep the (possibly grown) backing for the next round
	if g.Prune && len(cands) > 1 {
		cands = pruneCandidates(cands, gs.bufs, stats)
	}
	return cands
}

// collectCached is collectCandidates with the per-pair cache: bounds are
// recomputed only for pairs whose task state changed since they were
// cached (after round k that is exactly the task assigned in round k), a
// cached pair whose exact Δ is memoised comes back marked exact, and the
// Δmin-R term comes from the incrementally maintained tracker. The
// candidate list is identical to collectCandidates' — same pairs, same
// order, same floating-point values.
func (g *Greedy) collectCached(p *Problem, pc pairConsts, free map[model.WorkerID]bool, cache *boundCache, tracker *minTwoTracker, gs *greedyScratch, stats *Stats) []candidate {
	minR, secondR := tracker.minTwo()
	cands := gs.cands[:0]
	for i := range p.In.Workers {
		wid := p.In.Workers[i].ID
		if !free[wid] {
			continue
		}
		conf := p.In.Workers[i].Confidence
		for _, pi := range p.WorkerPairs(wid) {
			st, dR := pc.state[pi], pc.dR[pi]
			c := candidate{
				pairIdx: pi,
				dR:      dR,
				dMinR:   deltaMinR(st.R(), dR, minR, secondR),
			}
			if cache.fill(&c, st.Version()) {
				stats.BoundsReused++
			} else {
				pr := &p.Pairs[pi]
				b := st.DeltaBoundsIfAddBuf(gs.bufs, conf, pr.Arrival, pr.Angle)
				c.lbD, c.ubD = b.Lo, b.Hi
				cache.put(pi, st.Version(), b.Lo, b.Hi)
				stats.BoundsComputed++
			}
			cands = append(cands, c)
		}
	}
	gs.cands = cands // keep the (possibly grown) backing for the next round
	if g.Prune && len(cands) > 1 {
		cands = pruneCandidates(cands, gs.bufs, stats)
	}
	return cands
}

// selectBest computes the exact diversity increase of every surviving
// candidate not already marked exact, memoises the new values in cache (nil
// on the naive path), ranks the candidates by dominance score, and returns
// the winner.
func (g *Greedy) selectBest(p *Problem, states map[model.TaskID]*objective.TaskState, cands []candidate, cache *boundCache, gs *greedyScratch, stats *Stats) candidate {
	misses := gs.misses[:0]
	for i := range cands {
		if !cands[i].exact {
			misses = append(misses, i)
		}
	}
	gs.misses = misses
	for _, i := range misses {
		c := &cands[i]
		pr := &p.Pairs[c.pairIdx]
		w := p.Worker(pr.Worker)
		_, c.dD = states[pr.Task].DeltaIfAddBuf(gs.bufs, w.Confidence, pr.Arrival, pr.Angle)
		c.exact = true
	}
	stats.PairsEvaluated += len(misses)
	if cache != nil {
		for _, i := range misses {
			cache.putExact(cands[i].pairIdx, cands[i].dD)
		}
	}
	if cap(gs.vecs) < len(cands) {
		gs.vecs = make([]objective.Vec2, len(cands))
	}
	vecs := gs.vecs[:len(cands)]
	for i := range cands {
		vecs[i] = objective.Vec2{R: cands[i].dMinR, D: cands[i].dD}
	}
	// Skyline filter (line 6 of Figure 3) then top-k dominating rank
	// (line 7); the skyline restriction does not change the argmax but
	// mirrors the paper's two-step description.
	sky := objective.SkylineBuf(gs.bufs, vecs)
	if len(sky) == 1 {
		best := cands[sky[0]]
		gs.bufs.PutInt(sky)
		return best
	}
	scores := objective.DominanceScoresBuf(gs.bufs, vecs)
	bestIdx := sky[0]
	for _, i := range sky[1:] {
		if betterCandidate(scores, vecs, i, bestIdx) {
			bestIdx = i
		}
	}
	gs.bufs.PutInt(scores)
	gs.bufs.PutInt(sky)
	return cands[bestIdx]
}

func betterCandidate(scores []int, vecs []objective.Vec2, i, j int) bool {
	if scores[i] != scores[j] {
		return scores[i] > scores[j]
	}
	if vecs[i].R != vecs[j].R {
		return vecs[i].R > vecs[j].R
	}
	return vecs[i].D > vecs[j].D
}

// pruneCandidates applies Lemma 4.3: discard candidate q when some
// candidate p has dMinR_p ≥ dMinR_q and lbD_p > ubD_q. Sorting by dMinR
// descending lets a running maximum of lbD decide each candidate in
// O(P log P).
func pruneCandidates(cands []candidate, bufs *scratch.Buffers, stats *Stats) []candidate {
	idx := bufs.Int(len(cands))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return cands[idx[a]].dMinR > cands[idx[b]].dMinR })

	keep := bufs.Bool(len(cands))
	maxLb := math.Inf(-1)
	for g := 0; g < len(idx); {
		// Process one group of equal dMinR together: members of a group may
		// prune each other, so compute the group's own max lb first, but a
		// candidate is never pruned by its own bound (lb ≤ ub always).
		h := g
		groupMax := math.Inf(-1)
		for h < len(idx) && cands[idx[h]].dMinR == cands[idx[g]].dMinR {
			if lb := cands[idx[h]].lbD; lb > groupMax {
				groupMax = lb
			}
			h++
		}
		if groupMax > maxLb {
			maxLb = groupMax
		}
		for _, i := range idx[g:h] {
			keep[i] = !(maxLb > cands[i].ubD)
		}
		g = h
	}
	out := cands[:0]
	for i, k := range keep {
		if k {
			out = append(out, cands[i])
		} else {
			stats.PairsPruned++
		}
	}
	bufs.PutBool(keep)
	bufs.PutInt(idx)
	// Guard: bounds are sound, so at least the candidate carrying maxLb
	// survives; an empty result can only arise from NaNs, which we refuse
	// to propagate.
	if len(out) == 0 {
		return cands
	}
	return out
}

// boundCache memoizes, per pair, the Δ-diversity bounds and — from the
// first round the pair survives pruning — its exact ΔE[STD], both keyed on
// the pair's task state version: an entry stays valid until the task gains
// a worker, so after round k only the pairs of the task assigned in round k
// miss. put stores bounds under a new version and so also drops the exact
// value of the old one.
type boundCache struct {
	valid, exact []bool
	ver          []uint64
	lo, hi, d    []float64
}

func newBoundCache(pairs int) *boundCache {
	return &boundCache{
		valid: make([]bool, pairs),
		exact: make([]bool, pairs),
		ver:   make([]uint64, pairs),
		lo:    make([]float64, pairs),
		hi:    make([]float64, pairs),
		d:     make([]float64, pairs),
	}
}

// fill copies the entry of cand's pair into cand — the bounds, plus the
// exact Δ (marking cand exact) when one is memoised — and reports whether
// an entry exists at version ver.
func (c *boundCache) fill(cand *candidate, ver uint64) bool {
	pi := cand.pairIdx
	if !c.valid[pi] || c.ver[pi] != ver {
		return false
	}
	cand.lbD, cand.ubD = c.lo[pi], c.hi[pi]
	if c.exact[pi] {
		cand.dD, cand.exact = c.d[pi], true
	}
	return true
}

func (c *boundCache) put(pi int32, ver uint64, lo, hi float64) {
	c.valid[pi] = true
	c.exact[pi] = false
	c.ver[pi] = ver
	c.lo[pi] = lo
	c.hi[pi] = hi
}

// putExact memoises pi's exact ΔE[STD] under the version its bounds were
// stored with. The candidate was filled or put in the same round and task
// states only change between rounds, so that is the current version.
func (c *boundCache) putExact(pi int32, d float64) {
	c.exact[pi] = true
	c.d[pi] = d
}

// pairConsts holds what the incremental greedy reads per pair every round
// that cannot change during a solve, indexed like Problem.Pairs: the pair's
// task state (the pointer is fixed; the state behind it mutates) and its
// ΔR = RTerm(confidence). Built once per solve, it replaces a map lookup
// and a log1p per candidate per round.
type pairConsts struct {
	state []*objective.TaskState
	dR    []float64
}

func newPairConsts(p *Problem, states map[model.TaskID]*objective.TaskState) pairConsts {
	pc := pairConsts{
		state: make([]*objective.TaskState, len(p.Pairs)),
		dR:    make([]float64, len(p.Pairs)),
	}
	for i := range p.Pairs {
		pr := &p.Pairs[i]
		pc.state[i] = states[pr.Task]
		// A pair whose worker is not in the instance is never a candidate
		// (candidates are enumerated from p.In.Workers), so its row stays zero.
		if w := p.Worker(pr.Worker); w != nil {
			pc.dR[i] = objective.RTerm(w.Confidence)
		}
	}
	return pc
}

// minTwoR returns the smallest and second-smallest per-task additive
// reliability R across all task states. With one task, second is +Inf.
func minTwoR(states map[model.TaskID]*objective.TaskState) (min1, min2 float64) {
	min1, min2 = math.Inf(1), math.Inf(1)
	for _, st := range states {
		r := st.R()
		switch {
		case r < min1:
			min2 = min1
			min1 = r
		case r < min2:
			min2 = r
		}
	}
	return min1, min2
}

// minTwoTracker maintains the smallest and second-smallest per-task R under
// the greedy's one-task-per-round updates, replacing the per-round minTwoR
// full scan with a lazy-deletion min-heap: updates push a fresh entry in
// O(log m), and reads discard entries that no longer match their task's
// current R. R only grows during a solve, so stale entries are always
// dominated and safe to drop.
type minTwoTracker struct {
	entries rHeap
	cur     map[model.TaskID]float64
}

type rEntry struct {
	task model.TaskID
	r    float64
}

type rHeap []rEntry

func (h rHeap) Len() int { return len(h) }
func (h rHeap) Less(i, j int) bool {
	if h[i].r != h[j].r {
		return h[i].r < h[j].r
	}
	return h[i].task < h[j].task
}
func (h rHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *rHeap) Push(x interface{}) { *h = append(*h, x.(rEntry)) }
func (h *rHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

func newMinTwoTracker(states map[model.TaskID]*objective.TaskState) *minTwoTracker {
	t := &minTwoTracker{cur: make(map[model.TaskID]float64, len(states))}
	entries := make(rHeap, 0, len(states))
	for id, st := range states {
		t.cur[id] = st.R()
		entries = append(entries, rEntry{task: id, r: st.R()})
	}
	// Sort before Init so the heap's array layout is canonical rather than
	// a function of map iteration order (a sorted array is already a valid
	// min-heap, but Init keeps the invariant explicit).
	sort.Sort(entries)
	t.entries = entries
	heap.Init(&t.entries)
	return t
}

// update records task's new R after an assignment.
func (t *minTwoTracker) update(task model.TaskID, r float64) {
	t.cur[task] = r
	heap.Push(&t.entries, rEntry{task: task, r: r})
}

// minTwo returns the same values as minTwoR over the tracked states: the
// smallest per-task R and the smallest over the remaining tasks (+Inf when
// fewer than two tasks exist).
func (t *minTwoTracker) minTwo() (min1, min2 float64) {
	min1, min2 = math.Inf(1), math.Inf(1)
	t.popStale()
	if len(t.entries) == 0 {
		return min1, min2
	}
	top := t.entries[0]
	min1 = top.r
	heap.Pop(&t.entries)
	for len(t.entries) > 0 {
		e := t.entries[0]
		if e.r != t.cur[e.task] || e.task == top.task {
			heap.Pop(&t.entries) // stale, or a duplicate of the minimum's task
			continue
		}
		min2 = e.r
		break
	}
	heap.Push(&t.entries, top)
	return min1, min2
}

func (t *minTwoTracker) popStale() {
	for len(t.entries) > 0 && t.entries[0].r != t.cur[t.entries[0].task] {
		heap.Pop(&t.entries)
	}
}

// deltaMinR returns the increase of the global minimum per-task R when a
// task currently at taskR gains dR. Only assignments to a task currently
// holding the minimum can raise it, and then only up to the second minimum.
func deltaMinR(taskR, dR, minR, secondR float64) float64 {
	if taskR > minR {
		return 0
	}
	after := taskR + dR
	if after > secondR {
		after = secondR
	}
	return after - minR
}
