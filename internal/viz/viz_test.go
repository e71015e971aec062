package viz

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"rdbsc/internal/core"
	"rdbsc/internal/gen"
	"rdbsc/internal/rng"
)

func TestRenderProducesWellFormedSVG(t *testing.T) {
	in := gen.GenerateDense(gen.Default().WithScale(20, 30))
	p := core.NewProblem(in)
	res, err := core.NewGreedy().Solve(context.Background(), p, &core.SolveOptions{Source: rng.New(1)})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	err = Render(&buf, in, res.Assignment, Options{Title: "test <&>", GridEta: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"<svg", "</svg>", "<circle", "<line", "test &lt;&amp;&gt;",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	if strings.Count(out, "<svg") != 1 {
		t.Error("multiple svg roots")
	}
	// One task circle per task plus one dot per worker.
	if got := strings.Count(out, "<circle"); got < len(in.Tasks)+len(in.Workers) {
		t.Errorf("only %d circles for %d tasks + %d workers", got, len(in.Tasks), len(in.Workers))
	}
	// Direction cones are drawn for constrained workers.
	if !strings.Contains(out, "<path") {
		t.Error("no direction cones drawn")
	}
}

func TestRenderNilAssignment(t *testing.T) {
	in := gen.GenerateDense(gen.Default().WithScale(5, 5))
	var buf bytes.Buffer
	if err := Render(&buf, in, nil, Options{}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `stroke="#7a9e7e"`) {
		t.Error("assignment edges drawn without an assignment")
	}
}

func TestRenderEmptyInstance(t *testing.T) {
	var buf bytes.Buffer
	in := gen.GenerateDense(gen.Default().WithScale(0, 0))
	if err := Render(&buf, in, nil, Options{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "</svg>") {
		t.Error("truncated SVG")
	}
}

type failingWriter struct{ after int }

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.after <= 0 {
		return 0, errors.New("disk full")
	}
	f.after--
	return len(p), nil
}

func TestRenderPropagatesWriteErrors(t *testing.T) {
	in := gen.GenerateDense(gen.Default().WithScale(5, 5))
	if err := Render(&failingWriter{after: 2}, in, nil, Options{}); err == nil {
		t.Error("write error swallowed")
	}
}
