// Package probe is what the layer probes under bench/layers share: the
// in-memory span recorder, the nearest-rank percentile helper, and the
// result file each probe hands back to the harness.
//
// A probe is a separate main package, built on its own, that replays a
// workload's request stream through ONE layer's public functions and times
// every call from the outside. No span lives inside the server: this PR
// adds none, and a later one that does can check itself against these.
package probe

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"rdbsc/bench/traffic"
)

// Span is one timed call. Start and End are nanoseconds since the
// recorder was created; Parent is the index of the enclosing span in the
// same recorder's list, -1 at the top; Req is the traffic.Request (or
// Solve) ID the call served.
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// Recorder keeps spans in memory until the probe ends.
type Recorder struct {
	t0    time.Time
	Spans []Span
}

// NewRecorder starts the recorder's clock.
func NewRecorder() *Recorder { return &Recorder{t0: time.Now()} }

// Begin opens a span and returns its index; End closes it.
func (r *Recorder) Begin(name string, parent, req int) int {
	r.Spans = append(r.Spans, Span{Name: name, Parent: parent, Req: req, Start: int64(time.Since(r.t0))})
	return len(r.Spans) - 1
}

// End closes the span Begin returned.
func (r *Recorder) End(i int) { r.Spans[i].End = int64(time.Since(r.t0)) }

// Time records fn as one top-level span.
func (r *Recorder) Time(name string, req int, fn func()) {
	i := r.Begin(name, -1, req)
	fn()
	r.End(i)
}

// Durations returns the durations (ns) of every span with the name.
func (r *Recorder) Durations(name string) []float64 {
	var out []float64
	for _, s := range r.Spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// Overhead measures what one empty Begin/End pair costs, in nanoseconds,
// on a throwaway recorder.
func Overhead() float64 {
	const n = 20000
	r := &Recorder{t0: time.Now(), Spans: make([]Span, 0, n)}
	start := time.Now()
	for i := 0; i < n; i++ {
		r.End(r.Begin("overhead", -1, i))
	}
	return float64(time.Since(start)) / n
}

// Percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// the sample. It refuses — ok is false — when fewer than ten samples lie
// beyond the percentile (n·(1−p/100) < 10), because such a tail does not
// repeat from run to run: p50 needs 20 samples, p90 100, p95 200, p99
// 1000. Failed operations enter the sample as +Inf, so a percentile that
// lands on one reads +Inf instead of hiding it.
func Percentile(sample []float64, p float64) (v float64, ok bool) {
	n := len(sample)
	if p <= 0 || p > 100 {
		return 0, false
	}
	// p·n first: 90·100/100 is exactly 90, 0.9·100 is not.
	rank := int(math.Ceil(p * float64(n) / 100))
	if n-rank < 10 {
		return 0, false
	}
	return NearestRank(sample, p), true
}

// NearestRank is Percentile without the guard, for values that are
// reported but never gated (p99). An empty sample reads 0.
func NearestRank(sample []float64, p float64) float64 {
	if len(sample) == 0 {
		return 0
	}
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s)) / 100))
	return s[max(rank, 1)-1]
}

// Median is the plain median of a small sample (no minimum size): the
// statistic used across repeats — set-up times, solve objectives.
func Median(sample []float64) float64 {
	if len(sample) == 0 {
		return 0
	}
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// Metric is one per-layer value: for a timed call the median per call and
// how many calls were timed.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Count int     `json:"count"`
}

// Result is the file a probe writes for the harness.
type Result struct {
	Metrics map[string]Metric `json:"metrics"`
	// Chain is, per request id, the nanoseconds this layer contributes to
	// the workload's replayed request chain (see bench/README.md).
	Chain map[int]float64 `json:"chain,omitempty"`
	Spans []Span          `json:"spans"`
}

// Args are the flags every probe takes.
type Args struct {
	Spec     traffic.Spec
	Seed     int64
	Requests int    // mutation requests to replay
	Solves   int    // solve-side samples to take
	Dir      string // scratch directory the probe may write in
	Out      string // result file
}

// ParseArgs reads the common probe flags, exiting on a bad workload name.
func ParseArgs() Args {
	var a Args
	name := flag.String("workload", "", "workload name")
	flag.Int64Var(&a.Seed, "seed", 1, "generator seed")
	flag.IntVar(&a.Requests, "requests", 200, "mutation requests to replay")
	flag.IntVar(&a.Solves, "solves", 12, "solve-side samples to take")
	flag.StringVar(&a.Dir, "dir", "", "scratch directory")
	flag.StringVar(&a.Out, "out", "", "result file")
	flag.Parse()
	spec, ok := traffic.ByName(*name)
	if !ok {
		Fatal(fmt.Errorf("unknown workload %q", *name))
	}
	a.Spec = spec
	return a
}

// Fatal reports a probe failure; the harness prints the layer as absent.
func Fatal(err error) {
	fmt.Fprintf(os.Stderr, "probe: %v\n", err)
	os.Exit(1)
}

// NewResult starts an empty result.
func NewResult() *Result {
	return &Result{Metrics: map[string]Metric{}, Chain: map[int]float64{}}
}

// Timed stores the median duration of the named spans under metric, in
// the unit given ("us" or "ms").
func (res *Result) Timed(rec *Recorder, span, metric, unit string) {
	d := rec.Durations(span)
	scale := 1e3
	if unit == "ms" {
		scale = 1e6
	}
	res.Metrics[metric] = Metric{Value: Median(d) / scale, Unit: unit, Count: len(d)}
}

// AddChain charges every span with the name to its request's chain time.
func (res *Result) AddChain(rec *Recorder, span string) {
	for _, s := range rec.Spans {
		if s.Name == span {
			res.Chain[s.Req] += float64(s.End - s.Start)
		}
	}
}

// Write stores the result where the harness asked for it.
func (res *Result) Write(rec *Recorder, path string) {
	res.Spans = rec.Spans
	b, err := json.Marshal(res)
	if err != nil {
		Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		Fatal(err)
	}
}

// Replay is what every probe starts from: the generated population (the
// probe owns it and folds requests into it as it goes), the set-up
// phase's preload requests, and the first Args.Requests requests of the
// mutation stream — the same ones the capacity phase sends first.
type Replay struct {
	State    *traffic.State
	Preload  []traffic.Request
	Requests []traffic.Request
}

// Load generates the workload for the probe.
func Load(a Args) *Replay {
	st, stream, err := traffic.Generate(a.Spec, a.Seed)
	if err != nil {
		Fatal(err)
	}
	rp := &Replay{State: st, Preload: st.Preload()}
	for len(rp.Requests) < a.Requests {
		r, ok := stream.Next()
		if !ok {
			break
		}
		rp.Requests = append(rp.Requests, r)
	}
	return rp
}

// Sample reports whether the state after request i (0-based) is one of the
// Args.Solves evenly spaced states the solve-side probes measure, and
// which one. Every probe samples the same states, so their per-sample
// times add up per sample id.
func (a Args) Sample(i int) (id int, ok bool) {
	stride := max(1, a.Requests/max(a.Solves, 1))
	if (i+1)%stride != 0 {
		return 0, false
	}
	return (i+1)/stride - 1, true
}
