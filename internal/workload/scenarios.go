package workload

import (
	"math"

	"rdbsc/internal/gen"
	"rdbsc/internal/geo"
	"rdbsc/internal/model"
	"rdbsc/internal/rng"
)

// Fixed scenario-internal knobs. They are part of each scenario's identity:
// changing one changes every trace byte and every instance built from it,
// so they are named constants rather than Params fields.
const (
	// islandCount is the number of disconnected regions in the islands
	// scenario (a 2×2 city grid).
	islandCount = 4

	// zipfHotspots and zipfSkew shape task popularity: rank k attracts
	// tasks with probability ∝ (1+k)^(-zipfSkew).
	zipfHotspots = 8
	zipfSkew     = 1.4
	zipfSigma    = 0.04 // spatial spread around a hotspot

	// rushBurstFrac places each of the two rush-hour bursts as a fraction
	// of the horizon; rushBurstWeight is the probability mass per burst
	// (the remainder arrives uniformly).
	rushBurst1Frac  = 0.25
	rushBurst2Frac  = 0.70
	rushBurstWeight = 0.45

	// hotspotSigmaTask/Worker spread entities around the moving center.
	hotspotSigmaTask   = 0.05
	hotspotSigmaWorker = 0.10

	// churnTaskLifetime/churnWorkerLifetime are the mean lifetimes (hours)
	// of the heavy-churn scenario; arrival rates are derived so the
	// steady-state alive population matches Params.M and Params.N.
	churnTaskLifetime   = 0.5
	churnWorkerLifetime = 0.4

	// cliqueSigma/cliqueSpread shape the adversarial near-clique: tasks in
	// a tight cluster, workers in a box around it, all mutually reachable.
	cliqueSigma  = 0.02
	cliqueSpread = 0.2

	confSigma = 0.02 // Table 2's worker-confidence σ
)

// scenarios is the registry, in presentation order.
var scenarios = []Scenario{
	{
		Name:        "uniform",
		Description: "Table 2 UNIFORM over a 24h horizon, waiting allowed",
		Instance:    uniformInstance,
		Trace:       instanceTrace("uniform", uniformInstance),
	},
	{
		Name:        "dense",
		Description: "well-connected bench workload: windows clustered near time zero",
		Instance:    denseInstance,
		Trace:       instanceTrace("dense", denseInstance),
	},
	{
		Name:        "islands",
		Description: "multi-city: 4 disconnected regions (exact decomposition's best case)",
		Instance:    islandsInstance,
		Trace:       instanceTrace("islands", islandsInstance),
	},
	{
		Name:        "zipf",
		Description: "Zipf-skewed task popularity: 8 hotspots, rank k drawing ∝ (1+k)^-1.4",
		Instance:    zipfInstance,
		Trace:       instanceTrace("zipf", zipfInstance),
	},
	{
		Name:        "rush-hour",
		Description: "two arrival bursts (morning/evening) over the horizon",
		Instance:    rushHourInstance,
		Trace:       rushHourTrace,
	},
	{
		Name:        "hotspot",
		Description: "moving spatial hotspot: demand drifts corner to corner over the horizon",
		Instance:    hotspotInstance,
		Trace:       hotspotTrace,
	},
	{
		Name:        "churn",
		Description: "heavy worker churn: short sessions, arrival rates sized for a full steady-state",
		Instance:    churnInstance,
		Trace:       churnTrace,
	},
	{
		Name:        "clique",
		Description: "adversarial worst case: one giant near-clique component (~all m·n pairs valid)",
		Instance:    cliqueInstance,
		Trace:       instanceTrace("clique", cliqueInstance),
	},
}

// instanceTrace adapts an instance-first scenario: the trace replays the
// instance's own timestamps.
func instanceTrace(name string, mk func(Params) *model.Instance) func(Params) *Trace {
	return func(p Params) *Trace {
		p = p.withDefaults()
		return TraceFromInstance(mk(p), name, p.Seed, p.Horizon)
	}
}

func uniformInstance(p Params) *model.Instance {
	p = p.withDefaults()
	in := gen.Generate(gen.Default().WithScale(p.M, p.N).WithSeed(p.Seed))
	// At bench scale the strict 24h UNIFORM setting is extremely sparse;
	// allowing workers to wait for a window to open keeps the scenario
	// solvable without touching its spatial/temporal shape.
	in.Opt.WaitAllowed = true
	return in
}

func denseInstance(p Params) *model.Instance {
	p = p.withDefaults()
	return gen.GenerateDense(gen.Default().WithScale(p.M, p.N).WithSeed(p.Seed))
}

func islandsInstance(p Params) *model.Instance {
	p = p.withDefaults()
	perM := max(2, p.M/islandCount)
	perN := max(2, p.N/islandCount)
	return gen.GenerateIslands(gen.Default().WithScale(perM, perN).WithSeed(p.Seed), islandCount)
}

// tableWorker draws a worker with the Table 2 default attribute ranges at
// the given location and check-in time.
func tableWorker(src *rng.Source, id model.WorkerID, loc geo.Point, depart float64, angleMax float64) model.Worker {
	width := src.Uniform(0, angleMax)
	if width <= 0 {
		width = angleMax / 2
	}
	cfg := gen.Default()
	return model.Worker{
		ID:         id,
		Loc:        loc,
		Speed:      src.Uniform(cfg.VMin, cfg.VMax),
		Dir:        geo.AngIntervalAround(src.Angle(), width),
		Confidence: src.TruncNormal((cfg.PMin+cfg.PMax)/2, confSigma, cfg.PMin, cfg.PMax),
		Depart:     depart,
	}
}

func zipfInstance(p Params) *model.Instance {
	p = p.withDefaults()
	src := rng.New(p.Seed)
	cfg := gen.Default()
	in := &model.Instance{
		Beta: src.Uniform(cfg.BetaMin, cfg.BetaMax),
		Opt:  model.Options{WaitAllowed: true},
	}
	inner := geo.Rect{Min: geo.Pt(0.1, 0.1), Max: geo.Pt(0.9, 0.9)}
	centers := make([]geo.Point, zipfHotspots)
	for k := range centers {
		centers[k] = src.UniformPoint(inner)
	}
	rank := src.Zipf(zipfSkew, zipfHotspots-1)
	for i := 0; i < p.M; i++ {
		c := centers[rank()]
		st := src.Uniform(0, 0.5)
		rt := src.Uniform(cfg.RtMin, cfg.RtMax)
		in.Tasks = append(in.Tasks, model.Task{
			ID:    model.TaskID(i),
			Loc:   src.GaussianPointIn(c, zipfSigma, geo.UnitSquare),
			Start: st,
			End:   st + rt,
		})
	}
	for j := 0; j < p.N; j++ {
		// Supply only half-follows demand: half the workers cluster at a
		// Zipf-ranked hotspot, half roam uniformly — the mismatch is what
		// makes popularity skew interesting for assignment quality.
		loc := src.UniformPoint(geo.UnitSquare)
		if src.Bernoulli(0.5) {
			loc = src.GaussianPointIn(centers[rank()], 2*zipfSigma, geo.UnitSquare)
		}
		in.Workers = append(in.Workers, tableWorker(src, model.WorkerID(j), loc, 0, math.Pi))
	}
	return in
}

// rushTime draws one arrival in the two-burst rush-hour mixture over
// [0, horizon).
func rushTime(src *rng.Source, horizon float64) float64 {
	u := src.Float64()
	var at float64
	switch {
	case u < rushBurstWeight:
		at = src.Normal(rushBurst1Frac*horizon, horizon/20)
	case u < 2*rushBurstWeight:
		at = src.Normal(rushBurst2Frac*horizon, horizon/20)
	default:
		at = src.Uniform(0, horizon)
	}
	return math.Min(math.Max(at, 0), horizon*0.999)
}

// rushHourDraw generates the rush-hour population once; the instance and
// the trace are two views of the same draw.
func rushHourDraw(p Params) (in *model.Instance, workerLeave []float64) {
	src := rng.New(p.Seed)
	cfg := gen.Default()
	in = &model.Instance{
		Beta: src.Uniform(cfg.BetaMin, cfg.BetaMax),
		Opt:  model.Options{WaitAllowed: true},
	}
	for i := 0; i < p.M; i++ {
		st := rushTime(src, p.Horizon)
		rt := src.Uniform(0.3, 0.6)
		in.Tasks = append(in.Tasks, model.Task{
			ID:    model.TaskID(i),
			Loc:   src.UniformPoint(geo.UnitSquare),
			Start: st,
			End:   st + rt,
		})
	}
	workerLeave = make([]float64, p.N)
	for j := 0; j < p.N; j++ {
		// Workers check in slightly ahead of the demand bursts and stay for
		// a one-to-two-hour session.
		at := math.Max(0, rushTime(src, p.Horizon)-0.05*p.Horizon)
		in.Workers = append(in.Workers, tableWorker(src, model.WorkerID(j), src.UniformPoint(geo.UnitSquare), at, math.Pi))
		workerLeave[j] = at + src.Uniform(1, 2)
	}
	return in, workerLeave
}

func rushHourInstance(p Params) *model.Instance {
	p = p.withDefaults()
	in, _ := rushHourDraw(p)
	return in
}

func rushHourTrace(p Params) *Trace {
	p = p.withDefaults()
	in, leaves := rushHourDraw(p)
	b := &traceBuilder{t: Trace{
		Scenario: "rush-hour",
		Seed:     p.Seed,
		Beta:     in.Beta,
		Opt:      in.Opt,
		Horizon:  p.Horizon,
	}}
	for _, t := range in.Tasks {
		b.addTask(t.Start, t)
	}
	for j, w := range in.Workers {
		b.addWorker(w.Depart, leaves[j], w)
	}
	return b.finish()
}

// hotspotCenter is the moving demand center: it drifts diagonally across
// the data space over the horizon.
func hotspotCenter(frac float64) geo.Point {
	return geo.Pt(0.15+0.7*frac, 0.2+0.6*frac)
}

func hotspotDraw(p Params) (in *model.Instance, workerLeave []float64) {
	src := rng.New(p.Seed)
	cfg := gen.Default()
	in = &model.Instance{
		Beta: src.Uniform(cfg.BetaMin, cfg.BetaMax),
		Opt:  model.Options{WaitAllowed: true},
	}
	for i := 0; i < p.M; i++ {
		st := src.Uniform(0, p.Horizon)
		c := hotspotCenter(st / p.Horizon)
		rt := src.Uniform(0.4, 0.8)
		in.Tasks = append(in.Tasks, model.Task{
			ID:    model.TaskID(i),
			Loc:   src.GaussianPointIn(c, hotspotSigmaTask, geo.UnitSquare),
			Start: st,
			End:   st + rt,
		})
	}
	workerLeave = make([]float64, p.N)
	for j := 0; j < p.N; j++ {
		at := src.Uniform(0, p.Horizon)
		c := hotspotCenter(at / p.Horizon)
		w := tableWorker(src, model.WorkerID(j), src.GaussianPointIn(c, hotspotSigmaWorker, geo.UnitSquare), at, geo.TwoPi)
		in.Workers = append(in.Workers, w)
		workerLeave[j] = at + src.Uniform(0.5, 1.5)
	}
	return in, workerLeave
}

func hotspotInstance(p Params) *model.Instance {
	p = p.withDefaults()
	in, _ := hotspotDraw(p)
	return in
}

func hotspotTrace(p Params) *Trace {
	p = p.withDefaults()
	in, leaves := hotspotDraw(p)
	b := &traceBuilder{t: Trace{
		Scenario: "hotspot",
		Seed:     p.Seed,
		Beta:     in.Beta,
		Opt:      in.Opt,
		Horizon:  p.Horizon,
	}}
	for _, t := range in.Tasks {
		b.addTask(t.Start, t)
	}
	for j, w := range in.Workers {
		b.addWorker(w.Depart, leaves[j], w)
	}
	return b.finish()
}

// churnDraw generates the heavy-churn event stream: Poisson arrivals with
// rates sized so the steady-state alive population is about Params.M tasks
// and Params.N workers, with deliberately short worker sessions.
func churnDraw(p Params) *Trace {
	src := rng.New(p.Seed)
	cfg := gen.Default()
	b := &traceBuilder{t: Trace{
		Scenario: "churn",
		Seed:     p.Seed,
		Beta:     src.Uniform(cfg.BetaMin, cfg.BetaMax),
		Opt:      model.Options{WaitAllowed: true},
		Horizon:  p.Horizon,
	}}
	taskRate := float64(p.M) / churnTaskLifetime
	workerRate := float64(p.N) / churnWorkerLifetime
	var nextTask model.TaskID
	for at := src.Exp(taskRate); at < p.Horizon; at += src.Exp(taskRate) {
		life := src.Exp(1 / churnTaskLifetime)
		b.addTask(at, model.Task{
			ID:    nextTask,
			Loc:   src.UniformPoint(geo.UnitSquare),
			Start: at,
			End:   at + life,
		})
		nextTask++
	}
	var nextWorker model.WorkerID
	for at := src.Exp(workerRate); at < p.Horizon; at += src.Exp(workerRate) {
		w := tableWorker(src, nextWorker, src.UniformPoint(geo.UnitSquare), at, math.Pi)
		// Short sessions are the scenario's point: the index and the
		// decompose builder churn constantly.
		b.addWorker(at, at+src.Exp(1/churnWorkerLifetime), w)
		nextWorker++
	}
	return b.finish()
}

func churnTrace(p Params) *Trace {
	return churnDraw(p.withDefaults())
}

// churnInstance is the alive population halfway through the churn trace — a
// photo of the platform mid-churn, sized near the steady state.
func churnInstance(p Params) *model.Instance {
	p = p.withDefaults()
	tr := churnDraw(p)
	mid := p.Horizon / 2
	alive := &model.Instance{Beta: tr.Beta, Opt: tr.Opt}
	leaveAt := make(map[model.WorkerID]float64)
	expireAt := make(map[model.TaskID]float64)
	for _, e := range tr.Events {
		switch e.Kind {
		case TaskExpire:
			expireAt[e.TaskID] = e.At
		case WorkerLeave:
			leaveAt[e.WorkerID] = e.At
		}
	}
	for _, e := range tr.Events {
		switch e.Kind {
		case TaskArrive:
			if end, ok := expireAt[e.Task.ID]; e.At <= mid && (!ok || end > mid) {
				alive.Tasks = append(alive.Tasks, e.Task)
			}
		case WorkerArrive:
			if end, ok := leaveAt[e.Worker.ID]; e.At <= mid && (!ok || end > mid) {
				alive.Workers = append(alive.Workers, e.Worker)
			}
		}
	}
	return alive
}

func cliqueInstance(p Params) *model.Instance {
	p = p.withDefaults()
	src := rng.New(p.Seed)
	cfg := gen.Default()
	in := &model.Instance{
		Beta: src.Uniform(cfg.BetaMin, cfg.BetaMax),
		Opt:  model.Options{WaitAllowed: true},
	}
	center := geo.Pt(0.5, 0.5)
	box := geo.Rect{
		Min: geo.Pt(center.X-cliqueSpread, center.Y-cliqueSpread),
		Max: geo.Pt(center.X+cliqueSpread, center.Y+cliqueSpread),
	}
	for i := 0; i < p.M; i++ {
		in.Tasks = append(in.Tasks, model.Task{
			ID:    model.TaskID(i),
			Loc:   src.GaussianPointIn(center, cliqueSigma, geo.UnitSquare),
			Start: 0,
			End:   src.Uniform(2, 3),
		})
	}
	for j := 0; j < p.N; j++ {
		// Fast, omnidirectional workers right next to the task cluster:
		// every worker reaches every task well before any deadline, so the
		// reachability graph is one near-complete bipartite component — the
		// worst case for candidate-set maintenance and for decomposition
		// (nothing to shard).
		w := model.Worker{
			ID:         model.WorkerID(j),
			Loc:        src.UniformPoint(box),
			Speed:      src.Uniform(1, 2),
			Dir:        geo.FullCircle,
			Confidence: src.TruncNormal(0.95, confSigma, 0.9, 1),
			Depart:     src.Uniform(0, 0.2),
		}
		in.Workers = append(in.Workers, w)
	}
	return in
}
