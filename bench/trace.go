package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"rdbsc/bench/probe"
	"rdbsc/bench/traffic"
)

// Frozen replay sizes: how many of the stream's first mutation requests
// each probe replays, and how many evenly spaced states the solve-side
// probes sample among them.
const (
	replayRequests = 200
	replaySolves   = 12
	probeTimeout   = 90 * time.Second
)

// replaySizes are those two for one run (a smoke run replays less).
type replaySizes struct{ requests, solves int }

// onPath reports whether the layer is on the workload's request path. A
// probe for a layer the server never enters on this workload is not run;
// its metrics read 0 there.
func onPath(layer string, spec traffic.Spec) bool {
	switch layer {
	case "store":
		return spec.Durable
	case "cluster":
		return spec.Shards > 1
	case "adaptive":
		return spec.SLOp99 > 0
	}
	return true
}

// traceFile is bench/out/trace-<workload>.json: every span of every
// probe, as recorded in memory and written once at the end.
type traceFile struct {
	Workload string       `json:"workload"`
	Seed     int64        `json:"seed"`
	Probes   []probeTrace `json:"probes"`
}

type probeTrace struct {
	Layer string       `json:"layer"`
	Spans []probe.Span `json:"spans"`
}

// replayLayers runs the traced replay: one probe process per layer, one at
// a time so that none is timed while another holds a core, each replaying
// the workload's exact request stream through its layer's public
// functions. The timed per-layer metrics are merged into res.layer, the
// spans are written to outDir, and notes says what could not be measured.
func replayLayers(b *builder, cfg runConfig, sizes replaySizes, res *runResult, outDir string) (notes []string) {
	bins, absent := b.probes()
	scratch, err := os.MkdirTemp(filepath.Join(b.root, ".bench_build"), "replay-")
	if err != nil {
		return []string{fmt.Sprintf("replay skipped: %v", err)}
	}
	defer os.RemoveAll(scratch)

	tf := traceFile{Workload: cfg.spec.Name, Seed: cfg.seed}
	chain := map[int]float64{}
	for _, layer := range probeLayers {
		if err, gone := absent[layer]; gone {
			notes = append(notes, fmt.Sprintf("layer absent: %s does not build; its timed metrics read 0 (%s)", layer, firstLine(err)))
			continue
		}
		if !onPath(layer, cfg.spec) {
			notes = append(notes, fmt.Sprintf("layer %s is not on the %s path; its timed metrics read 0", layer, cfg.spec.Name))
			continue
		}
		out := filepath.Join(scratch, layer+".json")
		dir := filepath.Join(scratch, layer)
		if err := os.Mkdir(dir, 0o755); err != nil {
			notes = append(notes, fmt.Sprintf("layer %s: %v", layer, err))
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
		cmd := exec.CommandContext(ctx, bins[layer],
			"-workload", cfg.spec.Name, "-seed", strconv.FormatInt(cfg.seed, 10),
			"-requests", strconv.Itoa(sizes.requests), "-solves", strconv.Itoa(sizes.solves),
			"-dir", dir, "-out", out)
		msg, err := cmd.CombinedOutput()
		cancel()
		if err != nil {
			res.failf("probe %s failed: %v: %s", layer, err, msg)
			continue
		}
		raw, err := os.ReadFile(out)
		var pr probe.Result
		if err == nil {
			err = json.Unmarshal(raw, &pr)
		}
		if err != nil {
			res.failf("probe %s result: %v", layer, err)
			continue
		}
		for name, m := range pr.Metrics {
			res.layer[name] = metric{Value: m.Value, Unit: m.Unit, Count: m.Count}
		}
		for req, ns := range pr.Chain {
			chain[req] += ns
		}
		tf.Probes = append(tf.Probes, probeTrace{Layer: layer, Spans: pr.Spans})
	}

	// Outside-in arithmetic over the probes' medians.
	lay := res.layer
	v := func(name string) float64 { return lay[name].Value }
	lay["engine.snapshot_self_us"] = metric{
		Value: v("engine.snapshot_ms")*1e3 - v("engine.instance_copy_us") - v("grid.valid_pairs_ms")*1e3 - v("core.index_us"),
		Unit:  "us",
	}
	// The chain is what the replay can explain of one major-class request:
	// per request id, the sum of the layers' contributions. The solve-side
	// chain adds the response encode and cache probe, which are timed per
	// call, not per sampled state.
	var sums []float64
	for _, ns := range chain {
		sums = append(sums, ns/1e6)
	}
	chainMS := probe.Median(sums)
	if !cfg.spec.MutMajor {
		chainMS += (v("serve.encode_us") + v("serve.solvecache_probe_us")) / 1e3
	}
	// The chain is replayed with nothing else running, so it is held
	// against the solo phase (the major class alone on the real server).
	// What a request costs before any layer works — two processes, a
	// loopback connection, net/http on both ends — no in-process replay can
	// see; the solo phase measured it as the round trip of an empty request
	// (loadgen.http_floor_ms), and coverage counts it as explained. What
	// the capacity phase adds on top of solo is contention for the cores.
	floorMS := v("loadgen.http_floor_ms")
	lay["trace.chain_p50_ms"] = metric{Value: chainMS, Unit: "ms", Count: len(sums)}
	lay["trace.solo_p50_ms"] = metric{Value: res.soloMajorP50MS, Unit: "ms"}
	lay["trace.coverage_ratio"] = metric{Value: ratio(chainMS+floorMS, res.soloMajorP50MS), Unit: "ratio"}
	lay["trace.contention_ratio"] = metric{Value: ratio(res.capMajorP50MS, res.soloMajorP50MS), Unit: "ratio"}
	lay["serve.residual_ms"] = metric{Value: res.soloMajorP50MS - chainMS - floorMS, Unit: "ms"}
	lay["trace.span_overhead_ns"] = metric{Value: probe.Overhead(), Unit: "ns"}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return append(notes, fmt.Sprintf("span file not written: %v", err))
	}
	raw, err := json.Marshal(tf)
	if err == nil {
		err = os.WriteFile(filepath.Join(outDir, "trace-"+cfg.spec.Name+".json"), raw, 0o644)
	}
	if err != nil {
		notes = append(notes, fmt.Sprintf("span file not written: %v", err))
	}
	return notes
}

func firstLine(err error) string {
	line, _, _ := strings.Cut(err.Error(), "\n")
	return line
}
