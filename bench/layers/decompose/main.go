// Command decompose is the replay probe of internal/decompose: the
// connected-component partition of evenly spaced states of the replayed
// stream, timed, with the shape it found.
package main

import (
	"rdbsc/bench/probe"
	"rdbsc/internal/decompose"
)

func main() {
	a := probe.ParseArgs()
	rp := probe.Load(a)
	rec := probe.NewRecorder()
	res := probe.NewResult()

	var components, maxPairs []float64
	for i, r := range rp.Requests {
		rp.State.Apply(r)
		id, ok := a.Sample(i)
		if !ok {
			continue
		}
		in := rp.State.Instance()
		pairs := in.ValidPairs()
		var part *decompose.Partition
		rec.Time("decompose.build", id, func() { part = decompose.BuildSized(pairs, len(in.Tasks), len(in.Workers)) })
		components = append(components, float64(part.Len()))
		maxPairs = append(maxPairs, float64(part.MaxPairs()))
	}

	res.Timed(rec, "decompose.build", "decompose.build_us", "us")
	res.Metrics["decompose.components"] = probe.Metric{Value: probe.Median(components), Unit: "count", Count: len(components)}
	res.Metrics["decompose.max_component_pairs"] = probe.Metric{Value: probe.Median(maxPairs), Unit: "count", Count: len(maxPairs)}
	res.Write(rec, a.Out)
}
