package serve_test

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"rdbsc/internal/adaptive"
	"rdbsc/internal/applyloop"
	"rdbsc/internal/core"
	"rdbsc/internal/engine"
	"rdbsc/internal/serve"
	"rdbsc/internal/store"
)

// brokenBackend is a Backend whose every solve runs past the SLO budget
// and then ends in err. It is its own (only) view, with an empty shape so
// the adaptive plan always admits the request.
type brokenBackend struct {
	slow time.Duration
	err  error
}

func (brokenBackend) Enqueue(engine.Mutation, chan<- applyloop.Ack) error { return applyloop.ErrClosed }
func (b brokenBackend) View() serve.View                                  { return b }
func (brokenBackend) Stats() serve.StateStats {
	return serve.StateStats{Rows: []serve.StateRow{{Version: 1}}}
}
func (brokenBackend) Shutdown(context.Context) error { return nil }

func (brokenBackend) State() ([]uint64, uint64)                      { return []uint64{1}, 0 }
func (brokenBackend) Shape() *adaptive.Shape                         { return &adaptive.Shape{} }
func (brokenBackend) PerComponent(s core.Solver, _ bool) core.Solver { return s }
func (b brokenBackend) Solve(context.Context, core.Solver, *core.SolveOptions) (*core.Result, *serve.CoordinatorInfo, error) {
	time.Sleep(b.slow)
	return nil, nil, b.err
}

// TestTerminalSolveErrorTeachesNothing: a solve that ends in a terminal
// error produced no answer, so its duration must not reach the SLO headroom
// loop — neither as a violation (it was slow) nor as compliance (it was
// fast). The adaptive stats block is the controller's whole state.
func TestTerminalSolveErrorTeachesNothing(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
		code int
	}{
		{"server-fault-500", errors.New("boom"), 500},
		{"over-cap-422", core.ErrPopulationTooLarge, 422},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := backend{name: "broken", open: func(int, func() store.Store) (serve.Backend, error) {
				return brokenBackend{slow: 5 * time.Millisecond, err: tc.err}, nil
			}}
			h := start(t, b, serve.Config{Adaptive: true, SLOp99: time.Millisecond}, 0, nil)
			before := h.want(200, "GET", "/v1/stats", "").body["adaptive"]
			h.want(tc.code, "POST", "/v1/solve", `{}`)
			after := h.want(200, "GET", "/v1/stats", "").body
			if !reflect.DeepEqual(before, after["adaptive"]) {
				t.Errorf("a terminal solve error moved the controller:\nbefore %v\n after %v", before, after["adaptive"])
			}
			if after["solves"] != 1.0 {
				t.Errorf("solves = %v, want 1", after["solves"])
			}
		})
	}
}
