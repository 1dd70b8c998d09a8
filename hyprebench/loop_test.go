package main

import (
	"bytes"
	"math/rand"
	"net/http"
	"sync/atomic"
	"testing"
	"time"
)

// An open loop keeps its schedule while the server stalls: arrivals due
// during the stall are sent late, the lateness is reported, and their
// latency is charged from the schedule, not from the late send.
func TestOpenLoopChargesStallToLateArrivals(t *testing.T) {
	const stall = 150 * time.Millisecond
	var n atomic.Int64
	srv, err := startServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 20 {
			time.Sleep(stall)
		}
		w.Write([]byte("ok")) //nolint:errcheck
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.close()
	arr := poissonArrivals(rand.New(rand.NewSource(1)), 200, time.Second, kindQuery)
	var buf bytes.Buffer
	dr := openLoop(1, arr, func(int, int) answer {
		st, err := srv.post("/", nil, "", &buf)
		return answer{failed: err != nil || st != http.StatusOK}
	})
	if len(dr.samples) != len(arr) {
		t.Fatalf("sent %d of %d arrivals", len(dr.samples), len(arr))
	}
	var worstLate, worstLat time.Duration
	lateCount := 0
	for _, s := range dr.samples {
		if s.failed {
			t.Fatal("request failed")
		}
		worstLate = max(worstLate, s.late())
		worstLat = max(worstLat, s.latency())
		if s.late() > 20*time.Millisecond {
			lateCount++
		}
	}
	// About stall × 200/s arrivals were due during the stall.
	if lateCount < 10 {
		t.Errorf("only %d arrivals sent late behind a %v stall", lateCount, stall)
	}
	if worstLate < stall/2 || worstLate > 2*stall {
		t.Errorf("worst lateness %v, want about %v", worstLate, stall)
	}
	if worstLat < stall {
		t.Errorf("worst latency %v does not include the %v stall", worstLat, stall)
	}
	if p99 := lateP99Ms(dr.samples); p99 < 10 {
		t.Errorf("p99 lateness %.2fms hides the stall", p99)
	}
}

// A closed loop stops at its deadline or its request limit, and its
// callers never overlap themselves.
func TestClosedLoopLimitAndDeadline(t *testing.T) {
	var inFlight, peak atomic.Int64
	do := func(c, i int) answer {
		if v := inFlight.Add(1); v > peak.Load() {
			peak.Store(v)
		}
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
		return answer{}
	}
	dr := closedLoop(2, time.Hour, 50, kindQuery, do)
	if len(dr.samples) != 50 {
		t.Fatalf("limit 50 issued %d", len(dr.samples))
	}
	if peak.Load() > 2 {
		t.Fatalf("%d requests in flight with 2 callers", peak.Load())
	}
	seen := make(map[int]bool)
	for _, s := range dr.samples {
		if seen[s.i] {
			t.Fatalf("request %d issued twice", s.i)
		}
		seen[s.i] = true
	}
	dr = closedLoop(2, 50*time.Millisecond, -1, kindQuery, do)
	if dr.wall > 500*time.Millisecond || len(dr.samples) == 0 {
		t.Fatalf("deadline run: wall %v, %d samples", dr.wall, len(dr.samples))
	}
}

func TestMergeArrivalsOrdersBySchedule(t *testing.T) {
	q := poissonArrivals(rand.New(rand.NewSource(1)), 100, time.Second, kindQuery)
	m := poissonArrivals(rand.New(rand.NewSource(2)), 10, time.Second, kindMutate)
	all := mergeArrivals(q, m)
	if len(all) != len(q)+len(m) {
		t.Fatal("merge lost arrivals")
	}
	for i := 1; i < len(all); i++ {
		if all[i].at < all[i-1].at {
			t.Fatal("arrivals out of order")
		}
	}
	again := poissonArrivals(rand.New(rand.NewSource(1)), 100, time.Second, kindQuery)
	for i := range q {
		if q[i] != again[i] {
			t.Fatal("the same seed gave a different schedule")
		}
	}
}

func TestEmitRejectsMissingMetric(t *testing.T) {
	rep := &report{metrics: map[string]float64{"setup_s": 1}, attempt: 1}
	var buf bytes.Buffer
	if err := emit(&buf, rep, false); err == nil {
		t.Fatal("a result missing metrics was emitted")
	}
	if buf.Len() != 0 {
		t.Fatalf("printed a result line: %s", buf.Bytes())
	}
}
