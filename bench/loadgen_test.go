package main

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// One slow response must be charged to the requests that came due behind
// it: they are sent late, and timed from when they were due.
func TestPacedChargesStallToQueuedRequests(t *testing.T) {
	const (
		every   = 20 * time.Millisecond
		stall   = 150 * time.Millisecond
		stalled = 3
		total   = 16
	)
	var served atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1)-1 == stalled {
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()
	c := newConn(ts.URL)
	defer c.close()

	start := time.Now()
	st := paced(start, 0, every, start.Add(total*every), func(int) (bool, bool) {
		status, _, err := c.do("GET", "/", nil, time.Second)
		return err == nil && status == http.StatusOK, true
	})
	if st.sent != total || st.failed != 0 {
		t.Fatalf("sent %d failed %d, want %d / 0", st.sent, st.failed, total)
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	for k := 0; k < stalled; k++ {
		if st.latMS[k] > ms(stall)/3 {
			t.Errorf("request %d, before the stall, took %.1f ms", k, st.latMS[k])
		}
	}
	if st.latMS[stalled] < ms(stall) {
		t.Errorf("the stalled request took %.1f ms, less than its %.0f ms stall", st.latMS[stalled], ms(stall))
	}
	// Request stalled+j came due j·every into the stall and waited for the
	// rest of it.
	for j := 1; j <= 4; j++ {
		want := ms(stall) - float64(j)*ms(every)
		if got := st.latMS[stalled+j]; got < want {
			t.Errorf("request %d queued behind the stall took %.1f ms, want at least %.1f", stalled+j, got, want)
		}
	}
	if last := st.latMS[total-1]; last > ms(stall)/3 {
		t.Errorf("the backlog never drained: the last request took %.1f ms", last)
	}
	// Lag is timer lateness on an idle connection, never queueing.
	if st.maxLagMS > ms(stall)/3 {
		t.Errorf("max lag %.1f ms: time queued behind the stall was booked as generator lag", st.maxLagMS)
	}
	if st.busy < stall {
		t.Errorf("busy %v, less than the stall", st.busy)
	}
}

// A closed loop waits for each answer, so a slow server receives less
// load; a failed operation enters the sample as +Inf.
func TestClosedLoopAndFailures(t *testing.T) {
	n := 0
	st := closedLoop(time.Now().Add(80*time.Millisecond), func(k int) (bool, bool) {
		n++
		time.Sleep(10 * time.Millisecond)
		return k != 2, true
	})
	if st.sent != n || st.sent < 4 || st.sent > 9 {
		t.Errorf("closed loop sent %d operations of 10 ms in 80 ms", st.sent)
	}
	if st.failed != 1 || st.latMS[2] < 1e300 {
		t.Errorf("failed=%d latMS[2]=%v, want one failure recorded as +Inf", st.failed, st.latMS[2])
	}
	dry := closedLoop(time.Now().Add(time.Second), func(k int) (bool, bool) { return true, k < 3 })
	if dry.sent != 3 {
		t.Errorf("a class with nothing left to send recorded %d operations, want 3", dry.sent)
	}
}
