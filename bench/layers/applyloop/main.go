// Command applyloop is the replay probe of internal/applyloop: the queue
// hop alone — Enqueue to Ack through the single-writer goroutine, with a
// no-op Apply and no Append — for every request of the stream.
package main

import (
	"rdbsc/bench/probe"
	"rdbsc/bench/probe/mut"
	"rdbsc/internal/applyloop"
	"rdbsc/internal/engine"
)

func main() {
	a := probe.ParseArgs()
	rp := probe.Load(a)
	rec := probe.NewRecorder()
	res := probe.NewResult()

	version := uint64(1)
	loop, err := applyloop.New(applyloop.Config{
		Apply: func(muts []engine.Mutation) ([]bool, uint64) {
			version++
			return make([]bool, len(muts)), version
		},
	})
	if err != nil {
		probe.Fatal(err)
	}
	for _, r := range rp.Requests {
		muts := mut.Of(r)
		reply := make(chan applyloop.Ack, len(muts))
		span := rec.Begin("applyloop.roundtrip", -1, r.ID)
		for _, m := range muts {
			if err := loop.Enqueue(m, reply); err != nil {
				probe.Fatal(err)
			}
		}
		for range muts {
			<-reply
		}
		rec.End(span)
	}
	loop.Close()
	<-loop.Drained()

	res.Timed(rec, "applyloop.roundtrip", "applyloop.roundtrip_us", "us")
	if a.Spec.MutMajor && a.Spec.Shards == 1 {
		res.AddChain(rec, "applyloop.roundtrip")
	}
	res.Write(rec, a.Out)
}
