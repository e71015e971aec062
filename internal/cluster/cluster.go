package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rdbsc/internal/applyloop"
	"rdbsc/internal/core"
	"rdbsc/internal/engine"
	"rdbsc/internal/grid"
	"rdbsc/internal/model"
	"rdbsc/internal/serve"
	"rdbsc/internal/store"
)

// Config parameterizes a Cluster. The engine-level knobs (Beta, Opt, Grid)
// apply to every shard identically — cross-shard exactness requires one
// objective and one reachability semantics across the cluster.
type Config struct {
	// Shards is the shard count. Required (>= 1); a one-shard cluster is a
	// valid degenerate topology, though cmd/rdbsc-server keeps -shards 1 on
	// serve.EngineBackend (docs/ARCHITECTURE.md has the measurements).
	Shards int
	// TileSize is the spatial tile side length (default 0.3). Smaller
	// tiles spread load more evenly across shards but put more components
	// on tile boundaries, escalating more solves.
	TileSize float64
	// Beta is the requester diversity weight β (same semantics as
	// engine.Config: zero means unset unless BetaSet).
	Beta    float64
	BetaSet bool
	// Opt configures reachability semantics for pair enumeration.
	Opt model.Options
	// SolverName is checked against the solver registry at New and not
	// otherwise used: solvers reach the cluster per call (Solve, View), and
	// the HTTP default is serve.Config.SolverName. Default "dc".
	SolverName string
	// QueueDepth bounds each shard's mutation queue (default 1024).
	QueueDepth int
	// BatchMax caps how many queued mutations one shard batch drains
	// (default 256).
	BatchMax int
	// BatchLinger is each shard loop's batch-widening wait (default 0).
	BatchLinger time.Duration
	// Grid configures each shard's index; DisableIndex switches every shard
	// to brute-force pair retrieval (same semantics, no grid).
	Grid         grid.Config
	DisableIndex bool
	// Stores are the per-shard durability backends, exactly one per shard
	// (nil = all memory, nothing persists). Each shard appends its batches
	// to its own store and recovers from it at boot; when any store holds
	// recovered state the bulk-load instance must be nil, and the entity
	// registry is rebuilt from the recovered shard populations.
	Stores []store.Store
	// SnapshotEvery compacts each shard's WAL into a snapshot after every
	// N applied batches on that shard (0 = never).
	SnapshotEvery int
}

func (c Config) withDefaults() Config {
	if c.SolverName == "" {
		c.SolverName = "dc"
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 256
	}
	return c
}

// shard is one spatial partition: an engine owned by a single-writer apply
// loop, publishing copy-on-write snapshots, persisting through its own
// store.
type shard struct {
	eng   *engine.Engine
	loop  *applyloop.Loop
	snap  atomic.Pointer[engine.Snapshot]
	store store.Store

	// epochs tracks each live entity's recency stamp (the Epoch of its last
	// applied upsert). It is folded into every snapshot the shard writes,
	// so after a crash the registry rebuild can compare the two copies a
	// half-done cross-shard move leaves behind and keep the newer one.
	// Touched single-threaded at boot, then only on this shard's loop
	// goroutine.
	epochs store.EntityEpochs

	// snapEvery/batchesSince drive periodic WAL compaction; touched only
	// on this shard's loop goroutine.
	snapEvery    int
	batchesSince int

	rebuilds         atomic.Uint64 // batches whose snapshot re-derived the pairs
	retrieveNS       atomic.Int64  // cumulative pair-retrieval time
	snapErrors       atomic.Uint64 // periodic WAL compactions that failed
	recoveredBatches uint64        // WAL batches replayed at boot (read-only after New)
}

// Cluster is the sharded assignment service: a Router mapping entities to
// shards by location, one apply loop per shard, and a solve Coordinator
// that assembles the exact global problem from the shard snapshots. It
// implements serve.Backend; construct with New and stop with Shutdown.
type Cluster struct {
	tiling Tiling
	shards []*shard
	beta   float64
	opt    model.Options

	// The entity registry maps live entity IDs to their owning shard, so
	// removals — which carry only an ID, no location — route correctly, and
	// upserts that change an entity's tile ("moves") retire the stale copy
	// from the old shard. Enqueues happen under mu in registry order, and
	// each shard's queue is FIFO, so per-entity mutation order is preserved
	// cluster-wide. The one asynchronous enqueue — a move's retirement
	// removal, which waits for the destination shard's durable ack — also
	// takes mu and re-checks the registry before enqueueing, so it can
	// never land behind a later same-entity upsert on the same shard.
	mu          sync.Mutex
	taskShard   map[model.TaskID]int
	workerShard map[model.WorkerID]int
	pendTask    map[model.TaskID]*pendingMove   // latest in-flight move per task
	pendWorker  map[model.WorkerID]*pendingMove // latest in-flight move per worker
	routeGen    uint64                          // bumped when a registry change can strand a stale copy
	epoch       uint64                          // recency stamp counter (see engine.Mutation.Epoch)
	moveWG      sync.WaitGroup                  // in-flight cross-shard moves (ack + retirement)

	asm atomic.Pointer[assembled] // cached assembled global problem

	// Counters behind the /v1/stats "cluster" block.
	moves               atomic.Uint64 // cross-shard entity migrations
	retirements         atomic.Uint64 // move source copies retired after destination ack
	retireFailures      atomic.Uint64 // retirements abandoned (stale copy until next recovery)
	escalated           atomic.Uint64 // components spanning >1 shard, cumulative
	interior            atomic.Uint64 // components interior to one shard, cumulative
	assemblies          atomic.Uint64 // global-problem assemblies (cache misses)
	assemblyReuses      atomic.Uint64 // solves served by a cached assembly
	consistencyFailures atomic.Uint64 // post-solve invariant violations
}

// pendingMove tracks one in-flight cross-shard move: the upsert has been
// enqueued to the destination shard and the source copy awaits retirement
// once the destination acks durably. The pend maps hold only the LATEST
// move per entity — an older move finding a different token in the map
// knows it was superseded and must not touch the registry.
type pendingMove struct {
	from, to int
}

// retireAttempts bounds how many times a move retries the source-copy
// retirement removal before abandoning it (counted in retireFailures; the
// stale copy is unreachable through the registry and the next recovery's
// epoch-based rebuild removes it).
const retireAttempts = 5

// New validates the configuration, splits the optional bulk-load instance
// across the shards by entity location, starts one apply loop per shard,
// and returns the cluster. in may be nil (an empty cluster); when set, its
// β and reachability options override the config's, mirroring
// engine.NewFromInstance.
func New(cfg Config, in *model.Instance) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if cfg.Shards < 1 {
		return nil, errors.New("cluster: Config.Shards must be >= 1")
	}
	if _, err := core.NewByName(cfg.SolverName); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	// Size the entity registry from the bulk-load dimensions so a large
	// initial load fills pre-sized maps instead of rehashing through
	// doublings. The hints only affect allocation; an empty cluster (nil in)
	// starts with default-sized maps.
	numTasks, numWorkers := 0, 0
	if in != nil {
		numTasks, numWorkers = len(in.Tasks), len(in.Workers)
	}
	c := &Cluster{
		tiling:      Tiling{Shards: cfg.Shards, TileSize: cfg.TileSize}.withDefaults(),
		shards:      make([]*shard, cfg.Shards),
		taskShard:   make(map[model.TaskID]int, numTasks),
		workerShard: make(map[model.WorkerID]int, numWorkers),
		pendTask:    make(map[model.TaskID]*pendingMove),
		pendWorker:  make(map[model.WorkerID]*pendingMove),
	}
	engCfg := engine.Config{
		Beta: cfg.Beta, BetaSet: cfg.BetaSet, Opt: cfg.Opt,
		Grid: cfg.Grid, DisableIndex: cfg.DisableIndex,
	}

	// Per-shard durability: recover every store before any loop starts, so
	// no request can observe a pre-replay shard. Recovered state and a
	// bulk-load instance are mutually exclusive — merging them would
	// fabricate a state neither run had.
	stores := cfg.Stores
	if stores == nil {
		stores = make([]store.Store, cfg.Shards)
		for i := range stores {
			stores[i] = store.NewMemory()
		}
	}
	if len(stores) != cfg.Shards {
		return nil, fmt.Errorf("cluster: %d stores for %d shards", len(stores), cfg.Shards)
	}
	recovered := make([]store.RecoveredState, cfg.Shards)
	anyState := false
	for i, st := range stores {
		rs, err := st.Recover()
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %d: %w", i, err)
		}
		recovered[i] = rs
		anyState = anyState || !rs.Empty()
	}
	if anyState && in != nil {
		return nil, errors.New("cluster: stores hold recovered state but an initial instance was supplied; drop the preload or the data directory")
	}

	// Split the bulk load by location; every entity lands on exactly one
	// shard and is registered there.
	subs := make([]*model.Instance, cfg.Shards)
	if in != nil {
		for i := range subs {
			subs[i] = &model.Instance{Beta: in.Beta, Opt: in.Opt}
		}
		for _, t := range in.Tasks {
			s := c.tiling.ShardOf(t.Loc)
			subs[s].Tasks = append(subs[s].Tasks, t)
			c.taskShard[t.ID] = s
		}
		for _, w := range in.Workers {
			s := c.tiling.ShardOf(w.Loc)
			subs[s].Workers = append(subs[s].Workers, w)
			c.workerShard[w.ID] = s
		}
	}

	for i := range c.shards {
		sh := &shard{store: stores[i], snapEvery: cfg.SnapshotEvery}
		switch {
		case anyState:
			// Recovery path: rebuild the shard engine from its store, then
			// the routing registry from the recovered population.
			sh.eng = engine.New(engCfg)
			batches, epochs, err := store.Replay(recovered[i], sh.eng)
			if err != nil {
				return nil, fmt.Errorf("cluster: shard %d: %w", i, err)
			}
			sh.recoveredBatches = uint64(batches)
			sh.epochs = epochs
			// Resume the stamp counter past everything recovered, so
			// post-recovery upserts always outrank recovered copies.
			c.epoch = max(c.epoch, epochs.Max())
		case in != nil:
			sh.eng = engine.NewFromInstance(subs[i], engCfg)
			// Fresh store under a bulk load: persist the shard's slice of
			// it as the boot snapshot, or a crash before the first
			// compaction would silently drop the preload.
			if err := sh.store.WriteSnapshot(sh.eng.Version(), sh.eng.GridEta(), sh.eng.Instance(), sh.epochs); err != nil {
				return nil, fmt.Errorf("cluster: shard %d: seeding boot snapshot: %w", i, err)
			}
		default:
			sh.eng = engine.New(engCfg)
		}
		c.shards[i] = sh
	}
	if anyState {
		c.rebuildRegistry()
	}
	for i, sh := range c.shards {
		// Publish the initial snapshot before the loop starts: this is the
		// last single-threaded touch of the engine (registry rebuild — which
		// may retire duplicate copies — is done by now).
		snap := sh.eng.Snapshot()
		sh.snap.Store(&snap)
		loop, err := applyloop.New(applyloop.Config{
			QueueDepth:  cfg.QueueDepth,
			BatchMax:    cfg.BatchMax,
			BatchLinger: cfg.BatchLinger,
			Apply:       sh.apply,
			Append:      sh.store.AppendBatch,
		})
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %d: %w", i, err)
		}
		sh.loop = loop
	}
	// The effective β/Opt (post-default, post-instance-override) come back
	// from a shard engine so the assembled global instance always agrees
	// with the shards.
	c.beta = c.shards[0].eng.Beta()
	c.opt = cfg.Opt
	if in != nil {
		c.opt = in.Opt
	}
	return c, nil
}

// rebuildRegistry repopulates the entity→shard routing maps from the
// recovered shard populations. A crash (or an abandoned retirement) in the
// middle of a cross-shard move can leave the same entity on two shards:
// the destination logged and acked the upsert, but the source never logged
// the retirement removal. The copy with the higher recency epoch — the
// later acknowledged write — wins; a stale pre-move copy can never outrank
// the acked post-move state, whichever shard holds it. Epochs tie only
// when neither copy was stamped (state written outside the cluster plane),
// in which case the copy on the shard its own location routes to — the
// registry invariant — wins. The loser is retired directly from its
// engine (single-threaded: the loops have not started).
func (c *Cluster) rebuildRegistry() {
	for i, sh := range c.shards {
		in := sh.eng.Instance()
		for _, t := range in.Tasks {
			if prev, dup := c.taskShard[t.ID]; dup {
				here, there := sh.epochs.Task(t.ID), c.shards[prev].epochs.Task(t.ID)
				wins := here > there || (here == there && c.tiling.ShardOf(t.Loc) == i)
				if wins {
					c.shards[prev].eng.RemoveTask(t.ID)
					delete(c.shards[prev].epochs.Tasks, t.ID)
				} else {
					sh.eng.RemoveTask(t.ID)
					delete(sh.epochs.Tasks, t.ID)
					continue
				}
			}
			c.taskShard[t.ID] = i
		}
		for _, w := range in.Workers {
			if prev, dup := c.workerShard[w.ID]; dup {
				here, there := sh.epochs.Worker(w.ID), c.shards[prev].epochs.Worker(w.ID)
				wins := here > there || (here == there && c.tiling.ShardOf(w.Loc) == i)
				if wins {
					c.shards[prev].eng.RemoveWorker(w.ID)
					delete(c.shards[prev].epochs.Workers, w.ID)
				} else {
					sh.eng.RemoveWorker(w.ID)
					delete(sh.epochs.Workers, w.ID)
					continue
				}
			}
			c.workerShard[w.ID] = i
		}
	}
}

// apply is a shard's applyloop.Applier: single-writer batch application,
// snapshot publication and the periodic WAL compaction trigger.
func (sh *shard) apply(muts []engine.Mutation) ([]bool, uint64) {
	changed := sh.eng.ApplyBatch(muts)
	sh.epochs.Apply(muts)
	snap := sh.eng.Snapshot()
	sh.snap.Store(&snap)
	if snap.Rebuilt {
		sh.rebuilds.Add(1)
		sh.retrieveNS.Add(int64(snap.Retrieve))
	}
	if sh.snapEvery > 0 {
		if sh.batchesSince++; sh.batchesSince >= sh.snapEvery {
			sh.batchesSince = 0
			// A failed compaction is not data loss — the WAL still holds
			// everything — so it is counted, not fatal.
			if err := sh.store.WriteSnapshot(snap.Version, sh.eng.GridEta(), sh.eng.Instance(), sh.epochs); err != nil {
				sh.snapErrors.Add(1)
			}
		}
	}
	return changed, snap.Version
}

// Shards returns the shard count.
func (c *Cluster) Shards() int { return len(c.shards) }

// coordinatorStats is the /v1/stats "cluster" block.
type coordinatorStats struct {
	ShardCount          int     `json:"shard_count"`
	TileSize            float64 `json:"tile_size"`
	CrossShardMoves     uint64  `json:"cross_shard_moves"`
	MoveRetirements     uint64  `json:"move_retirements"`
	MoveRetireFailures  uint64  `json:"move_retire_failures"`
	EscalatedComponents uint64  `json:"escalated_components"`
	InteriorComponents  uint64  `json:"interior_components"`
	CrossShardPairs     int     `json:"cross_shard_pairs"`
	Assemblies          uint64  `json:"assemblies"`
	AssemblyReuses      uint64  `json:"assembly_reuses"`
	ConsistencyFailures uint64  `json:"consistency_failures"`
}

// Stats implements serve.Backend: one row per shard plus the coordinator
// block.
func (c *Cluster) Stats() serve.StateStats {
	st := serve.StateStats{Beta: c.beta, Rows: make([]serve.StateRow, len(c.shards))}
	for i, sh := range c.shards {
		snap := sh.snap.Load()
		ls := sh.loop.Stats()
		st.Rows[i] = serve.StateRow{
			Shard:             i,
			Version:           snap.Version,
			Tasks:             snap.Tasks(),
			Workers:           snap.Workers(),
			Pairs:             len(snap.Problem.Pairs),
			QueueLen:          sh.loop.Len(),
			QueueCap:          sh.loop.Cap(),
			Enqueued:          ls.Enqueued,
			Applied:           ls.Applied,
			Coalesced:         ls.Coalesced,
			Batches:           ls.Batches,
			Rebuilds:          sh.rebuilds.Load(),
			RetrieveMS:        float64(sh.retrieveNS.Load()) / float64(time.Millisecond),
			RejectedQueueFull: ls.RejectedFull,
			Durability: serve.NewDurabilityJSON(sh.store,
				ls.AppendFailed, sh.snapErrors.Load(), sh.recoveredBatches),
		}
		st.Pairs += st.Rows[i].Pairs
	}
	cross := 0
	if a := c.asm.Load(); a != nil {
		// The global pair count (intra + cross) from the latest assembly;
		// the row sum above counts intra-shard pairs only.
		st.Pairs = len(a.problem.Pairs)
		cross = a.crossPairs
	}
	st.Coordinator = coordinatorStats{
		ShardCount:          len(c.shards),
		TileSize:            c.tiling.TileSize,
		CrossShardMoves:     c.moves.Load(),
		MoveRetirements:     c.retirements.Load(),
		MoveRetireFailures:  c.retireFailures.Load(),
		EscalatedComponents: c.escalated.Load(),
		InteriorComponents:  c.interior.Load(),
		CrossShardPairs:     cross,
		Assemblies:          c.assemblies.Load(),
		AssemblyReuses:      c.assemblyReuses.Load(),
		ConsistencyFailures: c.consistencyFailures.Load(),
	}
	return st
}

// Enqueue routes one mutation to its shard, failing fast on a full queue
// (applyloop.ErrQueueFull, HTTP 429) or a closed cluster
// (applyloop.ErrClosed, HTTP 503). reply, when non-nil, must be buffered
// and receives the mutation's Ack after its shard batch applied.
//
// Upserts route by the entity's location; removals route through the
// entity registry (they carry no location). Every upsert is stamped with
// the next recency epoch before routing, so crash recovery can always tell
// which copy of an entity carries the later acknowledged write.
//
// An upsert that moves a live entity onto a tile owned by a different
// shard runs destination-first: the upsert is enqueued to the new shard,
// and only after that shard durably acks it is the retirement removal
// enqueued to the old shard (see finishMove). At every instant the
// entity's data exists durably on at least one shard — a crash at any
// point leaves either the pre-move copy, the post-move copy, or both, and
// recovery's epoch comparison keeps the newer one.
func (c *Cluster) Enqueue(mut engine.Mutation, reply chan<- applyloop.Ack) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch mut.Op {
	case engine.OpUpsertTask:
		c.epoch++
		mut.Epoch = c.epoch
		return routeUpsert(c, mut, reply, c.taskShard, c.pendTask, mut.Task.ID,
			c.tiling.ShardOf(mut.Task.Loc), engine.TaskRemoval(mut.Task.ID))
	case engine.OpUpsertWorker:
		c.epoch++
		mut.Epoch = c.epoch
		return routeUpsert(c, mut, reply, c.workerShard, c.pendWorker, mut.Worker.ID,
			c.tiling.ShardOf(mut.Worker.Loc), engine.WorkerRemoval(mut.Worker.ID))
	case engine.OpRemoveTask:
		return routeRemoval(c, mut, reply, c.taskShard, mut.TaskID)
	default:
		return routeRemoval(c, mut, reply, c.workerShard, mut.WorkerID)
	}
}

// routeUpsert enqueues an upsert to target; when the entity moved off a
// different shard it starts the destination-first move protocol. Caller
// holds c.mu. (A free function because methods cannot be generic over the
// two registry key types.)
func routeUpsert[K comparable](c *Cluster, mut engine.Mutation, reply chan<- applyloop.Ack, reg map[K]int, pend map[K]*pendingMove, id K, target int, removal engine.Mutation) error {
	old, moved := reg[id]
	moved = moved && old != target
	if !moved {
		if err := c.shards[target].loop.Enqueue(mut, reply); err != nil {
			return err
		}
		reg[id] = target
		return nil
	}
	// Cross-shard move. Enqueue the upsert to the destination with an
	// intercepting ack channel; the source copy is retired only after the
	// destination's durable ack arrives (finishMove). Routing flips to the
	// destination immediately — per-entity order is preserved because later
	// mutations land behind the upsert in the destination's FIFO queue, and
	// the retirement re-checks the registry before touching the source.
	ackCh := make(chan applyloop.Ack, 1)
	if err := c.shards[target].loop.Enqueue(mut, ackCh); err != nil {
		return err // entity stays on its old shard; registry unchanged
	}
	tok := &pendingMove{from: old, to: target}
	pend[id] = tok
	reg[id] = target
	c.moves.Add(1)
	c.routeGen++ // the old shard holds a stale copy until its removal applies
	c.moveWG.Add(1)
	go finishMove(c, ackCh, reply, reg, pend, id, tok, removal)
	return nil
}

// finishMove completes one cross-shard move: it waits for the destination
// shard's ack, forwards it to the caller, and then either retires the
// source copy (ack success) or rolls the registry back to the source (ack
// failure — the destination never logged the upsert, so the source copy is
// still the entity's only durable state).
func finishMove[K comparable](c *Cluster, ackCh <-chan applyloop.Ack, reply chan<- applyloop.Ack, reg map[K]int, pend map[K]*pendingMove, id K, tok *pendingMove, removal engine.Mutation) {
	defer c.moveWG.Done()
	ack := <-ackCh // the loop drains fully on Close, so this always arrives
	if reply != nil {
		reply <- ack
	}
	c.mu.Lock()
	if pend[id] == tok {
		delete(pend, id)
	} else if ack.Err != nil {
		// A newer move superseded this one; its own finishMove owns the
		// registry now, and the source copy this move would have rolled
		// back to has been handled by the interleaved mutations.
		c.mu.Unlock()
		return
	}
	if ack.Err != nil {
		if cur, ok := reg[id]; ok && cur == tok.to {
			// The destination rejected the upsert before logging it and no
			// later mutation re-routed the entity: the source copy is still
			// the live one. Restore the route.
			reg[id] = tok.from
			c.routeGen++
		}
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	retire(c, reg, id, tok, removal)
}

// retire removes the stale source copy left behind by an acked cross-shard
// move, retrying transient failures. Each attempt re-checks the registry
// under c.mu: if the entity has moved BACK to the source shard, the copy
// there is live again and must not be removed. An abandoned retirement
// (store closed, or retries exhausted) leaves a stale unreachable copy;
// it is counted in retireFailures and the next recovery's epoch-based
// registry rebuild removes it.
func retire[K comparable](c *Cluster, reg map[K]int, id K, tok *pendingMove, removal engine.Mutation) {
	for attempt := 0; attempt < retireAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(time.Duration(attempt) * 10 * time.Millisecond)
		}
		ackCh := make(chan applyloop.Ack, 1)
		c.mu.Lock()
		if cur, ok := reg[id]; ok && cur == tok.from {
			c.mu.Unlock()
			return // entity moved back; the source copy is live
		}
		err := c.shards[tok.from].loop.Enqueue(removal, ackCh)
		c.mu.Unlock()
		if errors.Is(err, applyloop.ErrClosed) {
			break // shutting down; next boot's rebuild retires the copy
		}
		if err != nil {
			continue // transient (queue full): back off and retry
		}
		if ack := <-ackCh; ack.Err == nil {
			c.retirements.Add(1)
			return
		}
	}
	c.retireFailures.Add(1)
}

// routeRemoval enqueues a removal to the entity's registered shard. An
// unknown ID is a no-op removal, routed to shard 0 so the caller still
// gets its ack (changed=false). Caller holds c.mu.
func routeRemoval[K comparable](c *Cluster, mut engine.Mutation, reply chan<- applyloop.Ack, reg map[K]int, id K) error {
	target, ok := reg[id]
	if !ok {
		target = 0
	}
	if err := c.shards[target].loop.Enqueue(mut, reply); err != nil {
		return err
	}
	if ok {
		delete(reg, id)
	}
	return nil
}

// Mutate enqueues the mutations (in order) and blocks until every one is
// acknowledged or ctx ends — the engine-plane entry point used by tests
// and the differential harness; the HTTP layer goes through Enqueue.
func (c *Cluster) Mutate(ctx context.Context, muts ...engine.Mutation) ([]applyloop.Ack, error) {
	reply := make(chan applyloop.Ack, len(muts))
	for i, m := range muts {
		if err := c.Enqueue(m, reply); err != nil {
			return nil, fmt.Errorf("cluster: enqueue %d/%d: %w", i, len(muts), err)
		}
	}
	acks := make([]applyloop.Ack, 0, len(muts))
	for range muts {
		select {
		case a := <-reply:
			acks = append(acks, a)
		case <-ctx.Done():
			return acks, ctx.Err()
		}
	}
	return acks, nil
}

// quiesceID is a task ID no workload ever uses (IDs are non-negative);
// removing it is a guaranteed no-op barrier mutation.
const quiesceID = model.TaskID(-1 << 30)

// Quiesce blocks until every mutation enqueued before the call has been
// applied on its shard: it waits out in-flight cross-shard moves (whose
// retirement removals are enqueued asynchronously, after the destination
// ack), then pushes a no-op barrier through each shard's FIFO queue and
// waits for all acks. Tests and the differential harness use it to reach a
// settled state before solving.
func (c *Cluster) Quiesce(ctx context.Context) error {
	if err := c.awaitMoves(ctx); err != nil {
		return fmt.Errorf("cluster: quiesce: %w", err)
	}
	reply := make(chan applyloop.Ack, len(c.shards))
	for i, sh := range c.shards {
		if err := sh.loop.Enqueue(engine.TaskRemoval(quiesceID), reply); err != nil {
			return fmt.Errorf("cluster: quiesce shard %d: %w", i, err)
		}
	}
	for range c.shards {
		select {
		case <-reply:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// awaitMoves blocks until every in-flight cross-shard move has finished
// (destination ack received and source retirement settled), or ctx ends.
func (c *Cluster) awaitMoves(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		c.moveWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Shutdown stops the cluster gracefully: every shard loop closes and
// drains completely — every accepted mutation applies — and the stores
// close. ctx bounds the whole wait.
func (c *Cluster) Shutdown(ctx context.Context) error {
	// Let in-flight cross-shard moves finish while the loops still run:
	// their retirement removals need live source queues. A move that cannot
	// finish in time is safe to abandon — the destination copy is durable,
	// and the next boot's epoch-based rebuild retires the source copy.
	err := c.awaitMoves(ctx)
	for _, sh := range c.shards {
		sh.loop.Close()
	}
	for _, sh := range c.shards {
		select {
		case <-sh.loop.Drained():
		case <-ctx.Done():
			// An undrained loop may still be appending; leave its store
			// open rather than yank the WAL from under it.
			return errors.Join(err, ctx.Err())
		}
	}
	// Every shard's appender is gone; closing the stores group-commits any
	// unsynced tails.
	for _, sh := range c.shards {
		err = errors.Join(err, sh.store.Close())
	}
	return err
}

// sortEntities sorts tasks and workers by ID, the canonical instance
// order.
func sortEntities(in *model.Instance) {
	sort.Slice(in.Tasks, func(i, j int) bool { return in.Tasks[i].ID < in.Tasks[j].ID })
	sort.Slice(in.Workers, func(i, j int) bool { return in.Workers[i].ID < in.Workers[j].ID })
}
