package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	"rdbsc/bench/probe"
	"rdbsc/bench/traffic"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Count is the sample behind the value (0 where there is none); it is
	// printed, not part of the driver's JSON.
	Count int `json:"-"`
}

// runConfig is one run of one workload.
type runConfig struct {
	spec      traffic.Spec
	seed      int64
	capacity  time.Duration // closed-loop phase length
	paced     time.Duration // open-loop phase length
	solo      time.Duration // solo phase length; 0 (no solo phase) outside traced runs
	setups    int           // set-up is repeated this often; the median is reported
	serverBin string
	workDir   string // data directories live here; removed on return
	// shortPhases marks a run whose paced phase is too short for every
	// percentile to have its sample (a smoke run, or the server half of a
	// traced run, whose end-to-end metrics are not reported): a refused
	// percentile then reads 0 instead of failing the run.
	shortPhases bool
	// corruptModel is the test-only fault: it runs on the harness's model
	// before the final checks, which must then fail.
	corruptModel func(*traffic.State)
}

// runResult is everything one run measured.
type runResult struct {
	failures  []string // failed correctness checks; empty means correct
	attempted int
	failed    int
	e2e       map[string]metric
	// layer holds the per-layer metrics this run can source by itself:
	// /v1/stats deltas over the paced phase, and what the load
	// generator and /proc saw. The traced replay adds the timed ones.
	layer map[string]metric
	// capMajorP50MS and soloMajorP50MS are the latency medians of the
	// workload's major class (mutations where M is major, else solves) in
	// the capacity phase and, in a traced run, in the solo phase: what the
	// replayed chain is compared against.
	capMajorP50MS, soloMajorP50MS float64
}

func (r *runResult) failf(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// solveSample is what the S class keeps of one answered solve.
type solveSample struct {
	fresh    bool // complete, not cached, not degraded: a real solve of the current state
	minRel   float64
	totalDiv float64
}

// workloadRun is the state of one run in progress.
type workloadRun struct {
	cfg    runConfig
	res    *runResult
	model  *traffic.State
	stream traffic.Stream
	solves *traffic.Solves
	srv    *server
	m, s   *conn // the two connections: mutations, solves
	args   []string
	// acked counts mutation entities acknowledged per phase.
	acked int
}

// runWorkload runs set-up, the measured phases and the checks against a
// real server process, and always stops the process.
func runWorkload(cfg runConfig) (*runResult, error) {
	res := &runResult{e2e: map[string]metric{}, layer: map[string]metric{}}
	model, stream, err := traffic.Generate(cfg.spec, cfg.seed)
	if err != nil {
		return nil, err
	}
	w := &workloadRun{cfg: cfg, res: res, model: model, stream: stream, solves: traffic.NewSolves(cfg.spec, cfg.seed)}
	defer os.RemoveAll(cfg.workDir)
	defer func() {
		w.closeConns()
		if w.srv != nil {
			w.srv.kill()
		}
	}()

	// Set-up, repeated: only the last server is kept and measured.
	var setupS []float64
	for i := 0; i < cfg.setups; i++ {
		if w.srv != nil {
			w.closeConns()
			if err := w.srv.stop(); err != nil {
				return nil, fmt.Errorf("stopping set-up server %d: %w", i, err)
			}
			w.srv = nil
		}
		d, err := w.setup(i)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setupS = append(setupS, d.Seconds())
	}
	res.e2e["setup_s"] = metric{Value: probe.Median(setupS), Unit: "s", Count: len(setupS)}

	m, err := w.measure()
	if err != nil {
		return nil, err
	}
	w.metrics(m)
	w.finalChecks()
	if w.srv != nil {
		w.closeConns()
		err := w.srv.stop()
		w.srv = nil
		if err != nil {
			res.failf("graceful shutdown: %v", err)
		}
	}
	return res, nil
}

// measured is what the phases of one run observed, before any arithmetic.
type measured struct {
	soloM, soloS classStats // traced runs only
	floor        classStats // traced runs only: empty requests on the idle server
	pacM, pacS   classStats
	capM, capS   classStats
	samples      []solveSample // paced solves
	ackedPaced   int           // mutation entities acknowledged in the paced phase
	ackedCap     int           // and in the capacity phase
	// cpu is the server's CPU seconds before the paced phase, after it, and
	// after the capacity phase; selfCPU the load generator's own over the
	// paced phase.
	cpu     [3]float64
	selfCPU float64
	// rssSetup is VmRSS after set-up, rssPaced its samples over the paced
	// phase, rssPeak VmHWM at the end.
	rssSetup, rssPeak float64
	rssPaced          []float64
	// statsBefore/After bracket the paced phase.
	statsBefore, statsAfter *statsWire
}

// measure runs the phases: solo (traced runs only), paced, capacity.
func (w *workloadRun) measure() (m measured, err error) {
	cfg := w.cfg
	if m.rssSetup, err = w.srv.memMB("VmRSS"); err != nil {
		return m, err
	}

	// A traced run starts with the solo phase, on the same first requests
	// of the stream that the probes replay.
	if cfg.solo > 0 {
		m.soloM, m.soloS, _ = w.phase(cfg.solo, soloPhase)
		w.checkPopulation("the solo phase")
		// The empty request: what crossing two processes and net/http costs
		// on an otherwise idle server.
		m.floor = closedLoop(time.Now().Add(cfg.solo/5), func(int) (bool, bool) {
			status, _, err := w.m.do("GET", "/healthz", nil, mutationTimeout)
			return err == nil && status == http.StatusOK, true
		})
		w.acked = 0
	}

	// The paced phase comes before the capacity phase: its schedule is
	// fixed, so it sends the same number of requests on every run and the
	// capacity phase after it always starts at the same place in the
	// mutation stream. Both thus see the same inputs on every run of a
	// seed, however fast the closed loop happens to go.
	if m.statsBefore, err = w.m.stats(); err != nil {
		return m, err
	}
	if m.cpu[0], err = w.srv.cpuSeconds(); err != nil {
		return m, err
	}
	self0 := selfCPU()
	stopRSS := make(chan struct{})
	rssDone := make(chan []float64)
	go func() { rssDone <- w.srv.sampleRSS(stopRSS) }()
	m.pacM, m.pacS, m.samples = w.phase(cfg.paced, pacedPhase)
	close(stopRSS)
	m.rssPaced = <-rssDone
	m.selfCPU = selfCPU() - self0
	if m.cpu[1], err = w.srv.cpuSeconds(); err != nil {
		return m, err
	}
	w.checkPopulation("the paced phase")
	if m.statsAfter, err = w.m.stats(); err != nil {
		return m, err
	}
	m.ackedPaced, w.acked = w.acked, 0

	m.capM, m.capS, _ = w.phase(cfg.capacity, capacityPhase)
	if m.cpu[2], err = w.srv.cpuSeconds(); err != nil {
		return m, err
	}
	w.checkPopulation("the capacity phase")
	m.ackedCap = w.acked
	m.rssPeak, err = w.srv.memMB("VmHWM")
	return m, err
}

// metrics turns what was measured into the run's end-to-end metrics and
// the per-layer metrics the harness can source by itself.
func (w *workloadRun) metrics(m measured) {
	res := w.res
	for _, c := range []classStats{m.soloM, m.soloS, m.floor, m.pacM, m.pacS, m.capM, m.capS} {
		res.attempted += c.sent
		res.failed += c.failed
	}
	pacedMutRate := float64(m.ackedPaced) / m.pacM.wall.Seconds()
	capMutRate := float64(m.ackedCap) / m.capM.wall.Seconds()
	capSolves := m.capS.sent - m.capS.failed

	res.e2e["mut_per_s"] = metric{Value: capMutRate, Unit: "1/s", Count: m.ackedCap}
	res.e2e["solve_per_s"] = metric{Value: float64(capSolves) / m.capS.wall.Seconds(), Unit: "1/s", Count: capSolves}
	w.percentile("mut_ack_p50_ms", m.pacM.latMS, 50)
	w.percentile("solve_p50_ms", m.pacS.latMS, 50)
	w.percentile("solve_p90_ms", m.pacS.latMS, 90)
	res.e2e["cpu_s"] = metric{Value: m.cpu[1] - m.cpu[0], Unit: "s"}
	res.e2e["rss_mb"] = metric{Value: probe.Median(m.rssPaced), Unit: "MiB", Count: len(m.rssPaced)}
	// The objectives are averaged, not medianed: where the adaptive tier
	// mixes lanes the answers are bimodal, and a median jumps between the
	// modes when the lane share crosses one half.
	var rel, div float64
	fresh := 0
	for _, s := range m.samples {
		if s.fresh {
			rel += s.minRel
			div += s.totalDiv
			fresh++
		}
	}
	if fresh == 0 {
		res.failf("no fresh complete solve in the paced phase: min_reliability and total_diversity have no sample")
	}
	res.e2e["min_reliability"] = metric{Value: ratio(rel, float64(fresh)), Unit: "ratio", Count: fresh}
	res.e2e["total_diversity"] = metric{Value: ratio(div, float64(fresh)), Unit: "sum", Count: fresh}

	major, solo := m.capS, m.soloS
	if w.cfg.spec.MutMajor {
		major, solo = m.capM, m.soloM
	}
	res.capMajorP50MS = finite(probe.NearestRank(major.latMS, 50))
	res.soloMajorP50MS = finite(probe.NearestRank(solo.latMS, 50))

	lay := res.layer
	tail := func(name string, lat []float64, p float64) {
		lay[name] = metric{Value: finite(probe.NearestRank(lat, p)), Unit: "ms", Count: len(lat)}
	}
	lay["loadgen.max_lag_ms"] = metric{Value: math.Max(m.pacM.maxLagMS, m.pacS.maxLagMS), Unit: "ms"}
	lay["loadgen.cpu_s"] = metric{Value: m.selfCPU, Unit: "s"}
	if m.floor.sent > 0 {
		tail("loadgen.http_floor_ms", m.floor.latMS, 50)
	}
	lay["loadgen.mut_conn_busy_share"] = metric{Value: m.pacM.busy.Seconds() / m.pacM.wall.Seconds(), Unit: "ratio"}
	lay["loadgen.solve_conn_busy_share"] = metric{Value: m.pacS.busy.Seconds() / m.pacS.wall.Seconds(), Unit: "ratio"}
	lay["loadgen.mut_paced_over_capacity"] = metric{Value: ratio(pacedMutRate, capMutRate), Unit: "ratio"}
	lay["loadgen.solve_paced_over_capacity"] = metric{Value: ratio(float64(m.pacS.sent)/m.pacS.wall.Seconds(), float64(m.capS.sent)/m.capS.wall.Seconds()), Unit: "ratio"}
	// The mutation tail and every p99 did not repeat when the benchmark
	// was calibrated (where mutations are the minor class, whether a small
	// request meets a solve on both cores is a coin toss: p90 spread 15-65 %
	// over ten runs), so they are reported here, unguarded and ungated,
	// instead of among the end-to-end metrics.
	tail("loadgen.mut_ack_p90_ms", m.pacM.latMS, 90)
	tail("loadgen.mut_ack_p95_ms", m.pacM.latMS, 95)
	tail("loadgen.mut_ack_p99_ms", m.pacM.latMS, 99)
	tail("loadgen.solve_p99_ms", m.pacS.latMS, 99)
	lay["proc.cpu_s_capacity"] = metric{Value: m.cpu[2] - m.cpu[1], Unit: "s"}
	lay["proc.rss_after_setup_mb"] = metric{Value: m.rssSetup, Unit: "MiB"}
	lay["proc.rss_peak_mb"] = metric{Value: m.rssPeak, Unit: "MiB"}
	statsDelta(lay, m.statsBefore, m.statsAfter, m.ackedPaced, m.pacS.sent)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// finite maps +Inf (a failed operation reached the percentile) to a value
// JSON can carry; the failure itself is already counted in ops_failed.
func finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return math.MaxFloat32
	}
	return v
}

func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func (w *workloadRun) closeConns() {
	if w.m != nil {
		w.m.close()
		w.s.close()
		w.m, w.s = nil, nil
	}
}

// Slicing of a paced latency sample: as many consecutive slices as keep
// sliceMin samples in each (ten beyond a slice's p90), at most maxSlices.
const (
	maxSlices = 5
	sliceMin  = 100
)

// percentile stores an end-to-end latency percentile of the paced phase:
// the median of the percentile taken on consecutive slices of the sample.
// A scheduling hiccup of a second or two — the dominant noise on a small
// shared box — lands in one slice and leaves the median alone, where it
// moved the pooled p90 by a tenth or more on the runs it hit; a sustained
// change moves every slice. A sample too small to slice is pooled. The
// ten-samples-beyond rule must hold for the whole sample, or the run
// fails: the frozen phase lengths and rates guarantee the sample, so a
// refusal means the run was cut short.
func (w *workloadRun) percentile(name string, lat []float64, p float64) {
	if _, ok := probe.Percentile(lat, p); !ok {
		if !w.cfg.shortPhases {
			w.res.failf("%s: only %d samples, the percentile is not supported", name, len(lat))
		}
		w.res.e2e[name] = metric{Unit: "ms", Count: len(lat)}
		return
	}
	slices := min(max(len(lat)/sliceMin, 1), maxSlices)
	per := make([]float64, slices)
	for k := range per {
		per[k] = probe.NearestRank(lat[k*len(lat)/slices:(k+1)*len(lat)/slices], p)
	}
	w.res.e2e[name] = metric{Value: finite(probe.Median(per)), Unit: "ms", Count: len(lat)}
}

// serverArgs assembles the workload's server flags; -wait and -beta come
// from the generated instance, -data-dir from the run's scratch space.
func (w *workloadRun) serverArgs(dataDir string) []string {
	spec := w.cfg.spec
	args := append([]string{"-shards", strconv.Itoa(spec.Shards)}, spec.ServerFlags...)
	args = append(args,
		"-wait="+strconv.FormatBool(w.model.Opt.WaitAllowed),
		"-beta", strconv.FormatFloat(w.model.Beta, 'g', -1, 64))
	if spec.SLOp99 > 0 {
		args = append(args, "-slo-p99", spec.SLOp99.String())
	}
	if spec.Durable {
		args = append(args, "-data-dir", dataDir)
	}
	return args
}

// setup is one timed set-up: exec → /healthz → preload in 64-entity array
// POSTs → three warm solves. The build is not part of it.
func (w *workloadRun) setup(i int) (time.Duration, error) {
	dataDir := filepath.Join(w.cfg.workDir, fmt.Sprintf("data-%d", i))
	w.args = w.serverArgs(dataDir)
	srv, err := startServer(w.cfg.serverBin, w.args)
	if err != nil {
		return 0, err
	}
	w.srv = srv
	w.m, w.s = newConn(srv.url), newConn(srv.url)
	for _, r := range w.model.Preload() {
		method, path, body := r.HTTP()
		status, resp, err := w.m.do(method, path, body, mutationTimeout)
		if err != nil || status != http.StatusOK {
			return 0, fmt.Errorf("preload %s: status %d, %v: %s", path, status, err, resp)
		}
	}
	warm := w.cfg.spec.Solver
	if w.cfg.spec.WarmSolver != "" {
		warm = w.cfg.spec.WarmSolver
	}
	for k := 0; k < 3; k++ {
		if _, ok := w.solve(traffic.Solve{Solver: warm, Seed: int64(k + 1)}); !ok {
			return 0, fmt.Errorf("warm solve %d failed", k)
		}
	}
	return time.Since(srv.started), nil
}

// solve sends one solve and applies the failure rule: transport error,
// non-2xx (429 and 503 included), an undecodable body or partial:true.
func (w *workloadRun) solve(s traffic.Solve) (*solveWire, bool) {
	status, body, err := w.s.do("POST", "/v1/solve", s.Body(), solveTimeout)
	if err != nil || status < 200 || status > 299 {
		return nil, false
	}
	var resp solveWire
	if err := json.Unmarshal(body, &resp); err != nil || resp.Partial {
		return nil, false
	}
	return &resp, true
}

// phaseKind selects how the two classes send in a phase.
type phaseKind int

const (
	// pacedPhase: both classes follow their fixed schedules.
	pacedPhase phaseKind = iota
	// capacityPhase: a major class runs closed-loop with solve seeds no
	// other solve uses; a minor class keeps its paced schedule.
	capacityPhase
	// soloPhase: the workload's major class (mutations where both are)
	// runs closed-loop ALONE, the other connection silent — the latency of
	// a request that contends with nothing, which is what a replay of the
	// layers in isolation can be held against.
	soloPhase
)

// phase runs the classes for d, each on its own connection and goroutine
// (two request-issuing goroutines, one per core).
func (w *workloadRun) phase(d time.Duration, kind phaseKind) (mut, sol classStats, samples []solveSample) {
	spec := w.cfg.spec
	dry := false
	mutOp := func(int) (bool, bool) {
		r, more := w.stream.Next()
		if !more {
			dry = true
			return false, false
		}
		method, path, body := r.HTTP()
		status, _, err := w.m.do(method, path, body, mutationTimeout)
		if err != nil || status < 200 || status > 299 {
			return false, true
		}
		w.model.Apply(r)
		w.acked += r.Entities()
		return true, true
	}
	solveOp := func(k int) (bool, bool) {
		next := w.solves.Paced(k)
		if kind != pacedPhase {
			next = w.solves.Unique()
		}
		resp, ok := w.solve(next)
		if ok {
			samples = append(samples, solveSample{
				fresh:  !resp.Cached && !resp.Degraded,
				minRel: resp.MinReliability, totalDiv: resp.TotalDiversity,
			})
		}
		return ok, true
	}
	start := time.Now()
	until := start.Add(d)
	// In the solo phase only the major class sends (mutations where both are).
	runM := kind != soloPhase || spec.MutMajor
	runS := kind != soloPhase || !spec.MutMajor
	var wg sync.WaitGroup
	if runM {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if kind != pacedPhase && spec.MutMajor {
				mut = closedLoop(until, mutOp)
			} else {
				mut = paced(start, spec.MutEvery/2, spec.MutEvery, until, mutOp)
			}
		}()
	}
	if runS {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if kind != pacedPhase && spec.SolveMajor {
				sol = closedLoop(until, solveOp)
			} else {
				sol = paced(start, 0, spec.SolveEvery, until, solveOp)
			}
		}()
	}
	wg.Wait()
	if dry {
		w.res.failf("mutation stream ran dry in a %v phase after %d requests", d, mut.sent)
	}
	return mut, sol, samples
}

// checkPopulation compares the server's task and worker counts with the
// harness's own model. On the cluster a moved entity is briefly on two
// shards (the old copy is retired after the new one is acked), so the
// counts get a moment to settle before a mismatch counts.
func (w *workloadRun) checkPopulation(after string) *statsWire {
	var st *statsWire
	var err error
	for deadline := time.Now().Add(3 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		st, err = w.m.stats()
		if err == nil && st.Tasks == len(w.model.Tasks) && st.Workers == len(w.model.Workers) {
			return st
		}
		if time.Now().After(deadline) {
			break
		}
	}
	if err != nil {
		w.res.failf("after %s: %v", after, err)
		return nil
	}
	w.res.failf("after %s: server holds %d tasks / %d workers, the model %d / %d",
		after, st.Tasks, st.Workers, len(w.model.Tasks), len(w.model.Workers))
	return st
}

// statsDelta derives the per-layer metrics sourced from /v1/stats: the
// change of the server's own counters over the paced phase, where the
// offered work is fixed and so the counts compare across commits (the
// capacity phase's counts grow with whatever throughput a commit reaches).
// mutations and solveReqs are the harness's counts of acked mutation
// entities and of solve requests sent in that phase.
func statsDelta(lay map[string]metric, a, b *statsWire, mutations, solveReqs int) {
	d := func(x, y uint64) float64 { return float64(y) - float64(x) }
	put := func(name string, v float64, unit string) { lay[name] = metric{Value: v, Unit: unit} }
	batches := d(a.Batches, b.Batches)
	enq := d(a.Enqueued, b.Enqueued)
	rebuilds := d(a.Rebuilds, b.Rebuilds)
	solves := d(a.Solves, b.Solves)
	hits, misses := d(a.SolveCacheHits, b.SolveCacheHits), d(a.SolveCacheMisses, b.SolveCacheMisses)
	put("serve.solvecache_hit_ratio", ratio(hits, hits+misses), "ratio")
	put("applyloop.batch_size_mean", ratio(enq, batches), "count")
	put("applyloop.coalesced_share", ratio(d(a.Coalesced, b.Coalesced), enq), "ratio")
	put("applyloop.rejected_429", d(a.RejectedQueueFull, b.RejectedQueueFull), "count")
	put("store.fsyncs_per_append", ratio(d(a.Durability.WALSyncs, b.Durability.WALSyncs), d(a.Durability.WALAppends, b.Durability.WALAppends)), "ratio")
	put("store.append_failures", d(a.Durability.WALAppendFailures, b.Durability.WALAppendFailures), "count")
	put("engine.rebuilds_per_batch", ratio(rebuilds, batches), "ratio")
	put("grid.retrieve_ms_per_rebuild", ratio(b.retrieveMS()-a.retrieveMS(), rebuilds), "ms")
	put("grid.pairs", float64(b.Pairs), "count")
	sa, sb := a.SolverStats, b.SolverStats
	put("core.pairs_evaluated_per_solve", ratio(float64(sb.PairsEvaluated-sa.PairsEvaluated), solves), "count")
	reused := float64(sb.BoundsReused - sa.BoundsReused)
	put("core.bounds_reuse_ratio", ratio(reused, reused+float64(sb.BoundsComputed-sa.BoundsComputed)), "ratio")
	put("core.samples_per_solve", ratio(float64(sb.Samples-sa.Samples), solves), "count")
	scratchReused := float64(sb.ScratchReused - sa.ScratchReused)
	put("scratch.reuse_ratio", ratio(scratchReused, scratchReused+float64(sb.ScratchAllocs-sa.ScratchAllocs)), "ratio")

	if a.Cluster != nil && b.Cluster != nil {
		ca, cb := a.Cluster, b.Cluster
		put("cluster.cross_shard_move_share", ratio(d(ca.CrossShardMoves, cb.CrossShardMoves), float64(mutations)), "ratio")
		reuses := d(ca.AssemblyReuses, cb.AssemblyReuses)
		put("cluster.assembly_reuse_ratio", ratio(reuses, reuses+d(ca.Assemblies, cb.Assemblies)), "ratio")
		esc := d(ca.EscalatedComponents, cb.EscalatedComponents)
		put("cluster.escalated_share", ratio(esc, esc+d(ca.InteriorComponents, cb.InteriorComponents)), "ratio")
		put("cluster.cross_shard_pairs", float64(cb.CrossShardPairs), "count")
		put("cluster.consistency_failures", d(ca.ConsistencyFailures, cb.ConsistencyFailures), "count")
		put("cluster.move_retire_failures", d(ca.MoveRetireFailures, cb.MoveRetireFailures), "count")
	}

	if a.Adaptive != nil && b.Adaptive != nil {
		aa, ab := a.Adaptive, b.Adaptive
		sam, gre, exh := d(aa.Sampling.Solves, ab.Sampling.Solves), d(aa.Greedy.Solves, ab.Greedy.Solves), d(aa.Exhaustive.Solves, ab.Exhaustive.Solves)
		lanes := sam + gre + exh
		put("adaptive.lane_share_sampling", ratio(sam, lanes), "ratio")
		put("adaptive.lane_share_greedy", ratio(gre, lanes), "ratio")
		put("adaptive.lane_share_exhaustive", ratio(exh, lanes), "ratio")
		put("adaptive.slo_violation_share", ratio(d(aa.SLOViolations, ab.SLOViolations), float64(solveReqs)), "ratio")
		put("adaptive.degraded_share", ratio(d(aa.Degraded, ab.Degraded), float64(solveReqs)), "ratio")
		put("adaptive.shed_share", ratio(d(aa.Shed, ab.Shed), float64(solveReqs)), "ratio")
	}
}
