package probe

import (
	"math"
	"testing"
)

func ramp(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(n - i) // descending: Percentile must sort a copy
	}
	return s
}

// A percentile is refused unless at least ten samples lie beyond it.
func TestPercentileRefusesThinTails(t *testing.T) {
	for _, c := range []struct {
		p      float64
		refuse int // largest n still refused
	}{{50, 19}, {90, 99}, {95, 199}, {99, 999}} {
		if _, ok := Percentile(ramp(c.refuse), c.p); ok {
			t.Errorf("p%v of %d samples was not refused", c.p, c.refuse)
		}
		n := c.refuse + 1
		v, ok := Percentile(ramp(n), c.p)
		if !ok {
			t.Errorf("p%v of %d samples was refused", c.p, n)
			continue
		}
		// Nearest rank on 1..n: the value IS the rank.
		if want := math.Ceil(c.p * float64(n) / 100); v != want {
			t.Errorf("p%v of 1..%d = %v, want %v", c.p, n, v, want)
		}
	}
	if _, ok := Percentile(nil, 50); ok {
		t.Error("p50 of an empty sample was not refused")
	}
	if _, ok := Percentile(ramp(5000), 0); ok {
		t.Error("p0 was not refused")
	}
}

// Failed operations enter as +Inf and must surface, not vanish.
func TestPercentileCarriesFailures(t *testing.T) {
	s := ramp(200)
	for i := 0; i < 15; i++ {
		s[i] = math.Inf(1)
	}
	if v, ok := Percentile(s, 95); !ok || !math.IsInf(v, 1) {
		t.Errorf("p95 with 15 failures of 200 = %v, %v; want +Inf", v, ok)
	}
	if v, ok := Percentile(s, 50); !ok || math.IsInf(v, 1) {
		t.Errorf("p50 with 15 failures of 200 = %v, %v; want a finite value", v, ok)
	}
	if in := ramp(30); in[0] != 30 {
		t.Error("ramp changed")
	} else if Percentile(in, 50); in[0] != 30 {
		t.Error("Percentile sorted its argument in place")
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := Median(nil); got != 0 {
		t.Errorf("empty median = %v", got)
	}
}

// Every probe must sample the same states.
func TestSampleSpacing(t *testing.T) {
	a := Args{Requests: 200, Solves: 12}
	var ids []int
	for i := 0; i < a.Requests; i++ {
		if id, ok := a.Sample(i); ok {
			if id != len(ids) {
				t.Fatalf("sample ids not consecutive: got %d after %d samples", id, len(ids))
			}
			ids = append(ids, i)
		}
	}
	if len(ids) < a.Solves {
		t.Errorf("%d samples, want at least %d", len(ids), a.Solves)
	}
}

func TestRecorderSpans(t *testing.T) {
	r := NewRecorder()
	root := r.Begin("request", -1, 7)
	child := r.Begin("call", root, 7)
	r.End(child)
	r.End(root)
	if got := r.Spans[child]; got.Parent != root || got.Req != 7 || got.End < got.Start {
		t.Errorf("child span = %+v", got)
	}
	if r.Spans[root].End < r.Spans[child].End {
		t.Error("parent ended before its child")
	}
	if d := r.Durations("call"); len(d) != 1 {
		t.Errorf("Durations(call) = %v", d)
	}
}
