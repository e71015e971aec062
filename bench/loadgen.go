package main

import (
	"math"
	"time"
)

// classStats is what one request class did in one phase.
type classStats struct {
	sent, failed int
	// latMS has one entry per operation sent; a failed operation enters
	// as +Inf so that it drags every percentile it reaches.
	latMS []float64
	// maxLagMS is how late the generator itself ran: the largest gap
	// between a request's due time and the moment the pacer woke for it,
	// counted only when the connection was idle (the pacer slept). Time
	// spent queued behind a slow response is not lag: it is charged to
	// the queued request's latency instead.
	maxLagMS float64
	// busy is the time the connection spent waiting for responses.
	busy time.Duration
	wall time.Duration
}

func (c *classStats) record(lat time.Duration, ok bool) {
	c.sent++
	if ok {
		c.latMS = append(c.latMS, float64(lat)/float64(time.Millisecond))
		return
	}
	c.failed++
	c.latMS = append(c.latMS, math.Inf(1))
}

// op performs operation k of a phase. sent is false when the class had
// nothing left to send (the phase then ends early); ok reports whether the
// operation that was sent succeeded.
type op func(k int) (ok, sent bool)

// closedLoop sends the next operation as soon as the previous one is
// answered, until the deadline: a slow server receives less load. Each
// operation is timed from its own send.
func closedLoop(until time.Time, do op) classStats {
	var st classStats
	start := time.Now()
	for k := 0; time.Now().Before(until); k++ {
		begin := time.Now()
		ok, sent := do(k)
		if !sent {
			break
		}
		lat := time.Since(begin)
		st.busy += lat
		st.record(lat, ok)
	}
	st.wall = time.Since(start)
	return st
}

// paced sends operation k at start+offset+k·every, on one connection. The
// schedule is fixed before the phase begins and every operation is timed
// FROM WHEN IT WAS DUE: when a response stalls, the operations that came
// due meanwhile are sent late, and their wait behind the stall is part of
// their latency — what an independent client arriving on schedule would
// have seen.
func paced(start time.Time, offset, every time.Duration, until time.Time, do op) classStats {
	var st classStats
	for k := 0; ; k++ {
		due := start.Add(offset + time.Duration(k)*every)
		if !due.Before(until) {
			break
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
			if lag := float64(time.Since(due)) / float64(time.Millisecond); lag > st.maxLagMS {
				st.maxLagMS = lag
			}
		}
		begin := time.Now()
		ok, sent := do(k)
		if !sent {
			break
		}
		st.busy += time.Since(begin)
		st.record(time.Since(due), ok)
	}
	st.wall = time.Since(start)
	return st
}
