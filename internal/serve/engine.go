package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rdbsc/internal/adaptive"
	"rdbsc/internal/applyloop"
	"rdbsc/internal/core"
	"rdbsc/internal/decompose"
	"rdbsc/internal/engine"
	"rdbsc/internal/store"
)

// EngineConfig parameterizes an EngineBackend.
type EngineConfig struct {
	// Engine is the engine the backend drives. Required. The apply loop
	// takes ownership: after NewEngineBackend, no other goroutine may call
	// Engine methods.
	Engine *engine.Engine
	// QueueDepth bounds the mutation queue; a full queue rejects enqueues
	// (HTTP 429). Default 1024.
	QueueDepth int
	// BatchMax caps how many queued mutations one batch drains. Default 256.
	BatchMax int
	// BatchLinger is how long the apply loop waits for more mutations after
	// draining the queue dry, to widen batches under bursty load. Default 0
	// (apply immediately whatever is pending).
	BatchLinger time.Duration
	// Store is the durability backend behind the apply loop: every
	// coalesced batch is appended to it before it is applied, and recovery
	// replays it into the engine before the backend accepts traffic. Default
	// store.NewMemory() (nothing persists). When the store holds recovered
	// state the Engine must be empty; a bulk-loaded engine paired with a
	// fresh store is seeded into it as the boot snapshot.
	Store store.Store
	// SnapshotEvery compacts the WAL into a full-state snapshot after every
	// N applied batches (0 = never; the WAL then grows until shutdown).
	SnapshotEvery int
}

// EngineBackend is the single-engine state plane: one engine behind one
// single-writer apply loop. After each batch the loop publishes the
// engine's copy-on-write snapshot, and that snapshot is the View — pinning
// one is a pointer load, with no copy, re-sort or re-index.
type EngineBackend struct {
	eng   *engine.Engine
	loop  *applyloop.Loop
	store store.Store
	view  atomic.Pointer[engineView]

	// decomposes mirrors an engine built with Config.Decompose: read once,
	// before the loop owns the engine, and stamped on every view.
	decomposes bool

	// snapEvery/batchesSinceSnap drive periodic WAL compaction; touched
	// only on the apply loop goroutine.
	snapEvery        int
	batchesSinceSnap int
	// recoveredBatches is how many WAL batches boot recovery replayed;
	// written once before the loop starts, read-only afterwards.
	recoveredBatches uint64

	rebuilds   atomic.Uint64 // batches whose snapshot re-derived the pairs
	retrieveNS atomic.Int64  // cumulative pair-retrieval time
	snapErrors atomic.Uint64 // periodic WAL compactions that failed

	// testStallApply, when non-nil, runs on the apply loop after it wakes
	// for a batch's first mutation and before it drains the rest — tests
	// block here to build deterministic batches. Never set in production.
	testStallApply func()
}

// engineView is one published snapshot with what the View contract adds to
// it: the one-element version vector and the memoised shape.
type engineView struct {
	snap       engine.Snapshot
	versions   [1]uint64
	decomposes bool

	shapeOnce sync.Once
	shape     *adaptive.Shape
}

// NewEngineBackend recovers the store into the engine, publishes the
// initial snapshot and starts the apply loop.
func NewEngineBackend(cfg EngineConfig) (*EngineBackend, error) {
	if cfg.Engine == nil {
		return nil, errors.New("serve: EngineConfig.Engine is required")
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1024
	}
	if cfg.BatchMax <= 0 {
		cfg.BatchMax = 256
	}
	if cfg.Store == nil {
		cfg.Store = store.NewMemory()
	}
	b := &EngineBackend{
		eng:       cfg.Engine,
		store:     cfg.Store,
		snapEvery: cfg.SnapshotEvery,
		// A Decompose engine keeps its sharded semantics on the snapshot
		// plane via core.Sharded (the cross-batch per-component result cache
		// stays engine-plane only).
		decomposes: cfg.Engine.Decomposes(),
	}
	// Recovery runs before the apply loop starts and before the first
	// snapshot is published, so no request can ever observe the pre-replay
	// state. A recovered store and a preloaded engine are mutually
	// exclusive — merging them would fabricate a state neither run had.
	rs, err := cfg.Store.Recover()
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	nt, nw := b.eng.Len()
	switch {
	case !rs.Empty():
		if nt > 0 || nw > 0 {
			return nil, fmt.Errorf("serve: store holds recovered state but the engine is preloaded (%d tasks, %d workers); drop the preload or the data directory", nt, nw)
		}
		batches, _, err := store.Replay(rs, b.eng)
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		b.recoveredBatches = uint64(batches)
	case nt > 0 || nw > 0:
		// Fresh store under a bulk-loaded engine: persist the load as the
		// boot snapshot, or a crash before the first compaction would
		// silently drop it. A single engine never stamps recency epochs (no
		// cross-shard moves), so the snapshot carries none.
		if err := cfg.Store.WriteSnapshot(b.eng.Version(), b.eng.GridEta(), b.eng.Instance(), store.EntityEpochs{}); err != nil {
			return nil, fmt.Errorf("serve: seeding boot snapshot: %w", err)
		}
	}
	// The apply loop has not started yet, so this publish is still
	// single-threaded; from here on only the loop touches the engine.
	b.publish()
	b.loop, err = applyloop.New(applyloop.Config{
		QueueDepth:  cfg.QueueDepth,
		BatchMax:    cfg.BatchMax,
		BatchLinger: cfg.BatchLinger,
		Apply:       b.apply,
		Append:      cfg.Store.AppendBatch,
		StallForTest: func() {
			if b.testStallApply != nil {
				b.testStallApply()
			}
		},
	})
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	return b, nil
}

// publish snapshots the engine and makes the result the current view.
func (b *EngineBackend) publish() *engineView {
	v := &engineView{snap: b.eng.Snapshot(), decomposes: b.decomposes}
	v.versions[0] = v.snap.Version
	b.view.Store(v)
	return v
}

// apply is the applyloop.Applier: it runs on the apply loop — the single
// writer — applies the coalesced batch under one engine version bump, and
// publishes the resulting snapshot. Snapshot re-derives the valid pairs
// here, so solve requests always find a prepared problem and never pay the
// rebuild.
func (b *EngineBackend) apply(muts []engine.Mutation) ([]bool, uint64) {
	changed := b.eng.ApplyBatch(muts)
	snap := &b.publish().snap
	if snap.Rebuilt {
		b.rebuilds.Add(1)
		b.retrieveNS.Add(int64(snap.Retrieve))
	}
	if b.snapEvery > 0 {
		if b.batchesSinceSnap++; b.batchesSinceSnap >= b.snapEvery {
			b.batchesSinceSnap = 0
			// A failed compaction is not data loss — the WAL still holds
			// everything — so it is counted, not fatal.
			if err := b.store.WriteSnapshot(snap.Version, b.eng.GridEta(), b.eng.Instance(), store.EntityEpochs{}); err != nil {
				b.snapErrors.Add(1)
			}
		}
	}
	return changed, snap.Version
}

// Snapshot returns the most recently published engine snapshot. Safe for
// concurrent use; the returned view is immutable.
func (b *EngineBackend) Snapshot() engine.Snapshot { return b.view.Load().snap }

// Enqueue implements Backend.
func (b *EngineBackend) Enqueue(mut engine.Mutation, reply chan<- applyloop.Ack) error {
	return b.loop.Enqueue(mut, reply)
}

// View implements Backend.
func (b *EngineBackend) View() View { return b.view.Load() }

// Stats implements Backend.
func (b *EngineBackend) Stats() StateStats {
	snap := &b.view.Load().snap
	ls := b.loop.Stats()
	return StateStats{
		Beta:  snap.Problem.In.Beta,
		Pairs: len(snap.Problem.Pairs),
		Rows: []StateRow{{
			Version:           snap.Version,
			Tasks:             snap.Tasks(),
			Workers:           snap.Workers(),
			Pairs:             len(snap.Problem.Pairs),
			QueueLen:          b.loop.Len(),
			QueueCap:          b.loop.Cap(),
			Enqueued:          ls.Enqueued,
			Applied:           ls.Applied,
			Coalesced:         ls.Coalesced,
			Batches:           ls.Batches,
			Rebuilds:          b.rebuilds.Load(),
			RetrieveMS:        float64(b.retrieveNS.Load()) / float64(time.Millisecond),
			RejectedQueueFull: ls.RejectedFull,
			Durability:        NewDurabilityJSON(b.store, ls.AppendFailed, b.snapErrors.Load(), b.recoveredBatches),
		}},
	}
}

// Shutdown implements Backend: new mutations are rejected with
// applyloop.ErrClosed and the loop drains every queued one before exiting.
func (b *EngineBackend) Shutdown(ctx context.Context) error {
	b.loop.Close()
	select {
	case <-b.loop.Drained():
	case <-ctx.Done():
		// The undrained loop may still be appending; leave the store open
		// rather than yank the WAL from under it.
		return ctx.Err()
	}
	// The loop has drained, so no appender is alive; closing the store
	// group-commits any unsynced tail.
	return b.store.Close()
}

func (v *engineView) State() ([]uint64, uint64) { return v.versions[:], 0 }

func (v *engineView) Shape() *adaptive.Shape {
	v.shapeOnce.Do(func() {
		p := v.snap.Problem
		v.shape = adaptive.NewShape(p, decompose.BuildSized(p.Pairs, len(p.In.Tasks), len(p.In.Workers)))
	})
	return v.shape
}

func (v *engineView) PerComponent(s core.Solver, required bool) core.Solver {
	if _, sharded := s.(*core.Sharded); sharded || !(required || v.decomposes) {
		return s
	}
	return core.NewSharded(s)
}

func (v *engineView) Solve(ctx context.Context, solver core.Solver, opts *core.SolveOptions) (*core.Result, *CoordinatorInfo, error) {
	res, err := solver.Solve(ctx, v.snap.Problem, opts)
	return res, nil, err
}
