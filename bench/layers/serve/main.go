// Command serve is the replay probe of internal/serve: the HTTP plane's
// own work around a request — body decode and validation, response
// encode, solve-cache probe — timed through its exported functions.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"sort"
	"strings"

	"rdbsc/bench/probe"
	"rdbsc/bench/traffic"
	"rdbsc/internal/core"
	"rdbsc/internal/model"
	"rdbsc/internal/serve"
)

func main() {
	a := probe.ParseArgs()
	rp := probe.Load(a)
	rec := probe.NewRecorder()
	res := probe.NewResult()

	// Decode: what handleUpsert* does before it enqueues. Removals carry
	// their id in the path and have no body to decode.
	for _, r := range rp.Requests {
		method, path, body := r.HTTP()
		if body == nil {
			continue
		}
		req, err := http.NewRequest(method, "http://replay"+path, bytes.NewReader(body))
		if err != nil {
			probe.Fatal(err)
		}
		span := rec.Begin("serve.decode", -1, r.ID)
		if r.Kind == traffic.UpsertTasks {
			list, err := serve.DecodeBody[serve.TaskJSON](req)
			if err != nil {
				probe.Fatal(err)
			}
			for _, tj := range list {
				if err := tj.ToModel().Valid(); err != nil {
					probe.Fatal(err)
				}
			}
		} else {
			list, err := serve.DecodeBody[serve.WorkerJSON](req)
			if err != nil {
				probe.Fatal(err)
			}
			for _, wj := range list {
				if err := wj.ToModel().Valid(); err != nil {
					probe.Fatal(err)
				}
			}
		}
		rec.End(span)
	}
	res.Timed(rec, "serve.decode", "serve.decode_us", "us")
	if a.Spec.MutMajor {
		res.AddChain(rec, "serve.decode")
	}

	// Encode: marshal the response of a real solve of the population.
	name := strings.TrimPrefix(a.Spec.ProbeSolvers[0], "sharded-")
	solver, err := core.NewByName(name)
	if err != nil {
		probe.Fatal(err)
	}
	p := core.NewProblem(rp.State.Instance())
	solved, err := solver.Solve(context.Background(), p, &core.SolveOptions{Seed: 1})
	if err != nil {
		probe.Fatal(err)
	}
	resp := &serve.SolveResponse{
		Version: 1, Solver: solver.Name(), Seed: 1, Feasible: true,
		AssignedWorkers: solved.Eval.AssignedWorkers, AssignedTasks: solved.Eval.AssignedTasks,
		MinReliability: solved.Eval.MinRel, TotalDiversity: solved.Eval.TotalESTD,
		Stats: solved.Stats,
	}
	solved.Assignment.Workers(func(w model.WorkerID, t model.TaskID) {
		resp.Assignment = append(resp.Assignment, serve.AssignedPair{Worker: w, Task: t})
	})
	sort.Slice(resp.Assignment, func(i, j int) bool { return resp.Assignment[i].Worker < resp.Assignment[j].Worker })
	for i := 0; i < 50; i++ {
		rec.Time("serve.encode", i, func() {
			if _, err := json.Marshal(resp); err != nil {
				probe.Fatal(err)
			}
		})
	}
	res.Timed(rec, "serve.encode", "serve.encode_us", "us")

	// Cache probe: the Get every solve request pays, and the Put a miss
	// pays after solving. Versions advance every 8 solves and seeds cycle
	// mod 6, the islands-solve pattern, so both outcomes are exercised.
	cache := serve.NewSolveCache(64)
	for i := 0; i < a.Requests; i++ {
		version := uint64(1 + i/8)
		key := serve.SolveCacheKey{Fingerprint: version, Solver: solver.Name(), Seed: int64(1 + i%6)}
		rec.Time("serve.solvecache_probe", i, func() {
			if _, hit := cache.Get(key, []uint64{version}, 0); !hit {
				cache.Put(key, []uint64{version}, 0, resp)
			}
		})
	}
	res.Timed(rec, "serve.solvecache_probe", "serve.solvecache_probe_us", "us")
	res.Write(rec, a.Out)
}
