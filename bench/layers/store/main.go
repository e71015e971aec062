// Command store is the replay probe of internal/store: WAL record encode,
// the append (write plus group-commit fsync policy) and the compacted
// snapshot write, for the stream's batches split the way the cluster
// splits them across its shard stores.
package main

import (
	"fmt"
	"path/filepath"

	"rdbsc/bench/probe"
	"rdbsc/bench/probe/mut"
	"rdbsc/internal/engine"
	"rdbsc/internal/model"
	"rdbsc/internal/store"
)

// snapshotEvery is how many requests pass between the timed snapshot
// writes (the server compacts by batch count; the probe only needs a
// sample of them).
const snapshotEvery = 20

func main() {
	a := probe.ParseArgs()
	rp := probe.Load(a)
	rec := probe.NewRecorder()
	res := probe.NewResult()

	shards := max(a.Spec.Shards, 1)
	stores := make([]*store.FileStore, shards)
	for i := range stores {
		fs, err := store.Open(filepath.Join(a.Dir, fmt.Sprintf("shard-%d", i)), store.FileOptions{Fsync: store.FsyncBatch})
		if err != nil {
			probe.Fatal(err)
		}
		stores[i] = fs
	}

	var encodedBytes, encodedMuts int
	for i, r := range rp.Requests {
		rp.State.Apply(r)
		muts := mut.Of(r)
		// A request's mutations reach the shard stores as one batch each;
		// equal contiguous parts stand in for the spatial routing.
		per := (len(muts) + shards - 1) / shards
		for s := 0; s*per < len(muts); s++ {
			batch := muts[s*per : min((s+1)*per, len(muts))]
			rec.Time("store.encode", r.ID, func() {
				encodedBytes += len(store.EncodeRecord(store.Record{Seq: uint64(i), Muts: batch}))
			})
			encodedMuts += len(batch)
			appendBatch(rec, stores[s], batch, r.ID)
		}
		if (i+1)%snapshotEvery == 0 {
			// One shard's share of the population, as the cluster's
			// per-shard compaction writes it.
			s := (i / snapshotEvery) % shards
			in := rp.State.Instance()
			part := &model.Instance{Beta: in.Beta, Opt: in.Opt}
			for k := s; k < len(in.Tasks); k += shards {
				part.Tasks = append(part.Tasks, in.Tasks[k])
			}
			for k := s; k < len(in.Workers); k += shards {
				part.Workers = append(part.Workers, in.Workers[k])
			}
			rec.Time("store.snapshot_write", r.ID, func() {
				if err := stores[s].WriteSnapshot(uint64(i+2), 0.1, part, store.EntityEpochs{}); err != nil {
					probe.Fatal(err)
				}
			})
		}
	}
	for _, fs := range stores {
		if err := fs.Close(); err != nil {
			probe.Fatal(err)
		}
	}

	res.Timed(rec, "store.encode", "store.encode_us", "us")
	res.Timed(rec, "store.append", "store.append_us", "us")
	res.Timed(rec, "store.snapshot_write", "store.snapshot_write_ms", "ms")
	res.Metrics["store.wal_bytes_per_mutation"] = probe.Metric{
		Value: float64(encodedBytes) / float64(max(encodedMuts, 1)), Unit: "B", Count: encodedMuts,
	}
	res.Write(rec, a.Out)
}

func appendBatch(rec *probe.Recorder, fs *store.FileStore, batch []engine.Mutation, req int) {
	rec.Time("store.append", req, func() {
		if err := fs.AppendBatch(batch); err != nil {
			probe.Fatal(err)
		}
	})
}
