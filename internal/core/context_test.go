package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"rdbsc/internal/rng"
)

// slowInstance is large enough that exhaustive enumeration and D&C cannot
// finish within a millisecond, so deadline tests observe a genuine
// interruption rather than a completed solve.
func slowInstance(t *testing.T) *Problem {
	t.Helper()
	in := randomInstance(rng.New(77), 24, 48)
	return NewProblem(in)
}

func cancelledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

func TestAllSolversReturnPromptlyOnCancelledContext(t *testing.T) {
	p := slowInstance(t)
	for _, s := range allSolvers() {
		t.Run(s.Name(), func(t *testing.T) {
			start := time.Now()
			res, err := s.Solve(cancelledCtx(), p, &SolveOptions{Seed: 1})
			if !errors.Is(err, ErrInterrupted) {
				t.Fatalf("err = %v, want ErrInterrupted", err)
			}
			if !errors.Is(err, context.Canceled) {
				t.Errorf("err = %v, want context.Canceled in the chain", err)
			}
			if res == nil || res.Assignment == nil {
				t.Fatal("interrupted solve must return a non-nil partial result")
			}
			if elapsed := time.Since(start); elapsed > time.Second {
				t.Errorf("cancelled solve took %v, want prompt return", elapsed)
			}
		})
	}
}

func TestExhaustiveHonorsDeadline(t *testing.T) {
	// A population in the hundreds of thousands takes far longer than 1ms
	// to enumerate; the solve must stop at a chunk boundary and return the
	// winner of the enumerated prefix.
	in := randomInstance(rng.New(78), 4, 10)
	p := NewProblem(in)
	ex := &Exhaustive{MaxAssignments: 1 << 30}
	pop := ex.Population(p)
	if pop < 1<<16 {
		t.Skipf("population %d too small to observe a deadline", pop)
	}
	if !ex.CanSolve(p) {
		t.Fatalf("population %d exceeds the test cap", pop)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := ex.Solve(ctx, p, nil)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded in the chain", err)
	}
	if res == nil {
		t.Fatal("interrupted exhaustive solve must return a partial result")
	}
	if res.Stats.Samples == 0 {
		t.Error("deadline hit before any assignment was enumerated; expected a partial prefix")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("deadline solve took %v, want prompt return", elapsed)
	}
	if err := in.CheckAssignment(res.Assignment); err != nil {
		t.Errorf("partial assignment invalid: %v", err)
	}
}

func TestDCHonorsDeadline(t *testing.T) {
	in := randomInstance(rng.New(79), 60, 200)
	p := NewProblem(in)
	// A huge sampling budget at every leaf makes the full solve slow.
	dc := &DC{Gamma: 5, Base: &Sampling{FixedK: 200000}}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := dc.Solve(ctx, p, &SolveOptions{Seed: 2})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if res == nil {
		t.Fatal("interrupted D&C solve must return a partial result")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("deadline solve took %v, want prompt return", elapsed)
	}
	if err := in.CheckAssignment(res.Assignment); err != nil {
		t.Errorf("partial assignment invalid: %v", err)
	}
}

func TestGreedyPartialResultGrowsUntilCancel(t *testing.T) {
	// Cancel after the third round via the progress callback: the partial
	// result must contain exactly the assignments committed so far.
	p := slowInstance(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rounds := 0
	res, err := NewGreedy().Solve(ctx, p, &SolveOptions{
		Progress: func(st Stage) {
			rounds++
			if rounds == 3 {
				cancel()
			}
		},
	})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if got := res.Assignment.Len(); got != 3 {
		t.Errorf("partial assignment has %d workers, want 3", got)
	}
	if res.Eval.AssignedWorkers != 3 {
		t.Errorf("partial result not evaluated: %+v", res.Eval)
	}
}

func TestSamplingPartialKeepsEvaluatedPrefix(t *testing.T) {
	p := slowInstance(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	draws := 0
	res, err := (&Sampling{FixedK: 500}).Solve(ctx, p, &SolveOptions{
		Seed: 9,
		Progress: func(st Stage) {
			draws++
			if draws == 10 {
				cancel()
			}
		},
	})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if res.Stats.Samples != 10 {
		t.Errorf("partial sampling evaluated %d samples, want 10", res.Stats.Samples)
	}
	if res.Assignment.Len() == 0 {
		t.Error("partial sampling returned no assignment despite evaluated samples")
	}
}

func TestCompletedSolveReturnsNilError(t *testing.T) {
	// A context with a generous deadline must not leak an error into a
	// solve that finishes in time.
	in := randomInstance(rng.New(80), 6, 15)
	p := NewProblem(in)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, s := range allSolvers() {
		if _, err := s.Solve(ctx, p, &SolveOptions{Seed: 1}); err != nil {
			t.Errorf("%s: unexpected error %v", s.Name(), err)
		}
	}
}
