// Command rdbsc-server runs the RDB-SC assignment service: the one
// HTTP/JSON front end (internal/serve) over a state backend, with batched
// mutations and snapshot-isolated solves (see internal/serve for the
// concurrency model).
//
// The engine starts from a CSV workload (-in, as written by rdbsc-gen),
// from a synthetic instance (-m/-n), or empty; clients then stream churn
// through the API:
//
//	rdbsc-gen -m 500 -n 1000 -out w
//	rdbsc-server -addr :8080 -in w -solver greedy
//
//	curl -X POST localhost:8080/v1/tasks   -d '{"id":9000,"x":0.5,"y":0.5,"start":0,"end":4}'
//	curl -X POST localhost:8080/v1/workers -d '{"id":9000,"x":0.4,"y":0.4,"speed":1,"confidence":0.9}'
//	curl -X POST localhost:8080/v1/solve   -d '{"solver":"greedy","seed":7,"timeout_ms":200}'
//	curl localhost:8080/v1/assignment
//	curl localhost:8080/v1/stats
//	curl -X DELETE localhost:8080/v1/tasks/9000
//
// The shard count picks the backend, nothing else changes. -shards 1 (the
// default) is serve.EngineBackend: one engine whose published snapshot is
// what solves run on. -shards N (N > 1) is internal/cluster: the space is
// tiled, entities route to the shard owning their tile, and solves go
// through the cross-shard coordinator — exact, bit-identical to the
// single-engine answer. A 1-shard cluster would also be exact, but it pays
// the coordinator's assembly on every state change; docs/ARCHITECTURE.md
// has the measurements.
//
// SIGINT/SIGTERM shut the server down gracefully: intake stops (new
// mutations get 503), in-flight requests finish, and every queued mutation
// is applied before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"rdbsc/internal/cluster"
	"rdbsc/internal/dataset"
	"rdbsc/internal/engine"
	"rdbsc/internal/gen"
	"rdbsc/internal/model"
	"rdbsc/internal/serve"
	"rdbsc/internal/store"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		prefix       = flag.String("in", "", "load the initial instance from <prefix>_tasks.csv / <prefix>_workers.csv")
		m            = flag.Int("m", 0, "generate a synthetic instance with this many tasks (with -n; ignored when -in is set)")
		n            = flag.Int("n", 0, "generate a synthetic instance with this many workers (with -m)")
		genSeed      = flag.Int64("gen-seed", 1, "seed for the generated instance")
		beta         = flag.Float64("beta", 0.5, "diversity weight β (0 is honored: temporal diversity only)")
		wait         = flag.Bool("wait", false, "allow workers to wait for a task's period to open")
		useIndex     = flag.Bool("index", true, "retrieve valid pairs via the RDB-SC-Grid index")
		solverName   = flag.String("solver", "dc", "default solver for /v1/solve, by registry name")
		queueDepth   = flag.Int("queue", 1024, "mutation queue depth (full queue answers 429)")
		batchMax     = flag.Int("batch-max", 256, "max mutations applied per batch")
		batchLinger  = flag.Duration("batch-linger", 0, "extra wait to widen batches under bursty load")
		solveTimeout = flag.Duration("solve-timeout", 30*time.Second, "default and maximum per-request solve deadline")
		grace        = flag.Duration("grace", 15*time.Second, "graceful shutdown budget after SIGINT/SIGTERM")
		shards       = flag.Int("shards", 1, "spatial shard count; >1 serves the multi-shard cluster topology (internal/cluster)")
		tileSize     = flag.Float64("tile", 0, "tile side length for shard routing (0 = default 0.3; only with -shards > 1)")
		solveCache   = flag.Int("solve-cache", 0, "solve-cache capacity: repeat /v1/solve requests against an unchanged state replay the cached answer (0 = disabled)")
		pprofAddr    = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = disabled)")
		dataDir      = flag.String("data-dir", "", "durable state directory: WAL + snapshots per shard, recovered on boot (empty = memory only, nothing survives a restart)")
		fsyncMode    = flag.String("fsync", "batch", "WAL fsync policy with -data-dir: always (sync every batch), batch (group commit), off (process-crash durability only)")
		snapEvery    = flag.Int("snapshot-every", 1024, "compact each shard's WAL into a snapshot after this many applied batches (0 = never; only with -data-dir)")
		adaptiveOn   = flag.Bool("adaptive", false, "adaptive solve tier: route /v1/solve requests that name no solver through SLO-aware lane selection")
		sloP99       = flag.Duration("slo-p99", 50*time.Millisecond, "p99 solve-latency budget for the adaptive tier (setting it implies -adaptive)")
		maxStale     = flag.Duration("max-stale", 5*time.Second, "staleness bound for degraded answers: over-budget requests (but the one probe solving at a time) serve the last assignment only if it is at most this old, else 429")
	)
	flag.Parse()

	// An explicit -slo-p99 is an unambiguous ask for the adaptive tier, so
	// it switches the tier on without also requiring -adaptive.
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "slo-p99" {
			*adaptiveOn = true
		}
	})

	if !(*beta >= 0 && *beta <= 1) { // phrased so NaN also fails
		fatal(fmt.Errorf("-beta %v outside [0,1]", *beta))
	}
	if *shards < 1 {
		fatal(fmt.Errorf("-shards %d must be >= 1", *shards))
	}

	var in *model.Instance
	switch {
	case *prefix != "":
		loaded, err := dataset.LoadInstance(*prefix, *beta)
		if err != nil {
			fatal(err)
		}
		loaded.Opt.WaitAllowed = *wait
		in = loaded
	case *m > 0 && *n > 0:
		in = gen.Generate(gen.Default().WithScale(*m, *n).WithSeed(*genSeed))
		in.Beta = *beta
		in.Opt.WaitAllowed = *wait
	}

	// Durable stores: one per shard, each in its own subdirectory so shard
	// WALs never interleave. When the data directory already holds state,
	// recovery wins and any requested preload (-in / -m) is ignored — the
	// recovered state IS the instance.
	var stores []store.Store
	if *dataDir != "" {
		mode, err := store.ParseFsyncMode(*fsyncMode)
		if err != nil {
			fatal(err)
		}
		hasState := false
		fileStores := make([]*store.FileStore, *shards)
		for i := range fileStores {
			fs, err := store.Open(filepath.Join(*dataDir, fmt.Sprintf("shard-%d", i)), store.FileOptions{Fsync: mode})
			if err != nil {
				fatal(err)
			}
			fileStores[i] = fs
			hasState = hasState || fs.HasState()
		}
		if hasState && in != nil {
			log.Printf("rdbsc-server: %s holds recovered state; ignoring -in/-m preload", *dataDir)
			in = nil
		}
		stores = make([]store.Store, len(fileStores))
		for i, fs := range fileStores {
			stores[i] = fs
		}
	}

	// The state backend is chosen by the shard count alone; everything above
	// it — the /v1 handlers, solve cache, adaptive tier, listener — is the
	// one serve.Server either way.
	var (
		backend serve.Backend
		boot    string
	)
	if *shards > 1 {
		cl, err := cluster.New(cluster.Config{
			Shards:        *shards,
			TileSize:      *tileSize,
			Beta:          *beta,
			BetaSet:       true,
			Opt:           model.Options{WaitAllowed: *wait},
			SolverName:    *solverName,
			QueueDepth:    *queueDepth,
			BatchMax:      *batchMax,
			BatchLinger:   *batchLinger,
			DisableIndex:  !*useIndex,
			Stores:        stores,
			SnapshotEvery: durableSnapEvery(*dataDir, *snapEvery),
		}, in)
		if err != nil {
			fatal(err)
		}
		backend = cl
		boot = fmt.Sprintf("%d shards, solver %s", cl.Shards(), *solverName)
	} else {
		cfg := engine.Config{
			Beta:         *beta,
			BetaSet:      true,
			Opt:          model.Options{WaitAllowed: *wait},
			DisableIndex: !*useIndex,
		}
		var eng *engine.Engine
		if in != nil {
			eng = engine.NewFromInstance(in, cfg)
		} else {
			eng = engine.New(cfg)
		}
		ecfg := serve.EngineConfig{
			Engine:        eng,
			QueueDepth:    *queueDepth,
			BatchMax:      *batchMax,
			BatchLinger:   *batchLinger,
			SnapshotEvery: durableSnapEvery(*dataDir, *snapEvery),
		}
		if stores != nil {
			ecfg.Store = stores[0]
		}
		eb, err := serve.NewEngineBackend(ecfg)
		if err != nil {
			fatal(err)
		}
		backend = eb
		snap := eb.Snapshot()
		boot = fmt.Sprintf("%d tasks, %d workers, %d valid pairs, solver %s",
			snap.Tasks(), snap.Workers(), len(snap.Problem.Pairs), *solverName)
	}
	srv, err := serve.New(serve.Config{
		Backend:      backend,
		SolverName:   *solverName,
		SolveTimeout: *solveTimeout,
		SolveCache:   *solveCache,
		Adaptive:     *adaptiveOn,
		SLOp99:       *sloP99,
		MaxStale:     *maxStale,
	})
	if err != nil {
		fatal(err)
	}
	if *adaptiveOn {
		boot += fmt.Sprintf(", adaptive SLO p99 %v (max-stale %v)", *sloP99, *maxStale)
	}
	// Bind before announcing: with -addr :0 the log then carries the real
	// resolved port, which the crash-restart harness (and humans) rely on.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	log.Printf("rdbsc-server: listening on %s (%s)", ln.Addr(), boot)

	// Profiling is opt-in and served on its own listener, so the /v1 API
	// surface never exposes /debug/pprof. The explicit mux avoids the
	// net/http/pprof side effect of registering on http.DefaultServeMux.
	if *pprofAddr != "" {
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func(addr string) {
			log.Printf("rdbsc-server: pprof listening on %s", addr)
			ps := &http.Server{Addr: addr, Handler: pmux, ReadHeaderTimeout: 10 * time.Second}
			if err := ps.ListenAndServe(); err != nil {
				log.Printf("rdbsc-server: pprof server: %v", err)
			}
		}(*pprofAddr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	select {
	case err := <-errCh:
		fatal(err)
	case <-ctx.Done():
	}
	log.Printf("rdbsc-server: shutting down (draining the mutation queues, %v grace)", *grace)
	shutCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	log.Printf("rdbsc-server: drained and stopped")
}

// durableSnapEvery returns the periodic-compaction cadence: snapshots only
// make sense with a data directory, so without one the trigger stays off
// regardless of -snapshot-every.
func durableSnapEvery(dataDir string, every int) int {
	if dataDir == "" {
		return 0
	}
	return every
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "rdbsc-server: %v\n", err)
	os.Exit(1)
}
