package main

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// reqKind tells the two request classes apart in a drive's ledger.
type reqKind uint8

const (
	kindQuery reqKind = iota
	kindMutate
)

// answer is what a request function reports about one request.
type answer struct {
	hit    bool // the server answered from its result cache
	failed bool // transport error, non-2xx status, or wrong answer
	wrong  bool // the answer failed a correctness check (implies failed)
	// end, when set, is when the last answer byte arrived (a now()
	// reading); checks the request function runs after it are not charged
	// to the request.
	end time.Duration
}

// epoch anchors now(). Ledger times are durations on the monotonic clock
// rather than time.Time values, so a ledger of millions of samples holds
// no pointers and the collector never scans it while the system under
// test runs beside it.
var epoch = time.Now()

// now is the monotonic time since epoch.
func now() time.Duration { return time.Since(epoch) }

// sample is one request's ledger entry. Times are offsets from the drive's
// start: sched is when the request should have been sent (its scheduled
// arrival in an open loop; when its client became free in a closed loop),
// sent is when it was, done is when its last response byte was read, and
// due is where its latency is charged from.
type sample struct {
	sched, due, sent, done time.Duration
	kind                   reqKind
	i                      int // request index within the phase
	answer
}

// latency is the request's charged latency.
func (s sample) latency() time.Duration { return s.done - s.due }

// late is how far behind schedule the generator sent the request.
func (s sample) late() time.Duration { return s.sent - s.sched }

// drive is one measured phase: every sample and the phase's wall time.
type drive struct {
	samples []sample
	wall    time.Duration
}

// doFunc issues request i of a phase from client c and judges the answer.
type doFunc func(c, i int) answer

// closedLoop runs clients callers that each send their next request the
// moment the previous answer lands, taking request indexes 0, 1, 2, ... in
// order, until d has elapsed or n requests were issued (n < 0: no limit).
func closedLoop(clients int, d time.Duration, n int, kind reqKind, do doFunc) drive {
	var next atomic.Int64
	start := now()
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ready := now() - start
			for ready < d {
				i := int(next.Add(1) - 1)
				if n >= 0 && i >= n {
					return
				}
				sent := now() - start
				a := do(c, i)
				done := doneAt(start, a)
				per[c] = append(per[c], sample{sched: ready, due: ready, sent: sent, done: done, kind: kind, i: i, answer: a})
				ready = now() - start
			}
		}()
	}
	wg.Wait()
	return drive{samples: slices.Concat(per...), wall: now() - start}
}

// doneAt is the answer's arrival offset from start: its own end mark if
// it set one.
func doneAt(start time.Duration, a answer) time.Duration {
	if a.end == 0 {
		return now() - start
	}
	return a.end - start
}

// arrival is one scheduled request of an open loop.
type arrival struct {
	at   time.Duration
	kind reqKind
	idx  int // index within its kind's sequence
}

// poissonArrivals draws Poisson arrivals at rate/s over [0, d) for one
// request kind, with seeded exponential gaps.
func poissonArrivals(rng *rand.Rand, rate float64, d time.Duration, kind reqKind) []arrival {
	var out []arrival
	var t time.Duration
	for {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= d {
			return out
		}
		out = append(out, arrival{at: t, kind: kind, idx: len(out)})
	}
}

// mergeArrivals interleaves schedules by arrival time.
func mergeArrivals(scheds ...[]arrival) []arrival {
	all := slices.Concat(scheds...)
	slices.SortStableFunc(all, func(a, b arrival) int {
		switch {
		case a.at < b.at:
			return -1
		case a.at > b.at:
			return 1
		}
		return 0
	})
	return all
}

// spinLead is how long before an arrival's time its caller stops sleeping
// and yields in a loop instead: the runtime's timers wake up to a
// millisecond late, which would be the generator's error, not the server's.
const spinLead = 1500 * time.Microsecond

// openLoop sends each arrival at its scheduled time regardless of how fast
// answers come back, using at most clients concurrent callers. An arrival
// whose time comes while every caller is busy is sent late, and its latency
// is charged from the schedule, so the wait a stall imposes on later
// requests counts. An arrival a free caller took in time is charged from
// its actual send: the timer's wake-up slop (up to a millisecond) is the
// generator's, not the server's. Lateness is recorded either way.
func openLoop(clients int, arrivals []arrival, do doFunc) drive {
	var next atomic.Int64
	start := now()
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(arrivals) {
					return
				}
				a := arrivals[i]
				took := now() - start
				if wait := a.at - took; wait > spinLead {
					time.Sleep(wait - spinLead)
				}
				for now()-start < a.at {
					runtime.Gosched()
				}
				sent := now() - start
				due := a.at
				if took <= a.at {
					due = sent
				}
				ans := do(c, i)
				done := doneAt(start, ans)
				per[c] = append(per[c], sample{sched: a.at, due: due, sent: sent, done: done, kind: a.kind, i: i, answer: ans})
			}
		}()
	}
	wg.Wait()
	return drive{samples: slices.Concat(per...), wall: now() - start}
}

// of returns the samples of one kind.
func (d drive) of(kind reqKind) []sample {
	var out []sample
	for _, s := range d.samples {
		if s.kind == kind {
			out = append(out, s)
		}
	}
	return out
}

// latenciesMs returns the charged latencies in milliseconds, keeping only
// samples keep accepts. A failed request counts as infinitely slow, so it
// misses every latency limit instead of thinning the tail.
func latenciesMs(ss []sample, keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range ss {
		if keep != nil && !keep(s) {
			continue
		}
		if s.failed {
			out = append(out, inf)
			continue
		}
		out = append(out, ms(s.latency()))
	}
	return out
}

// lateP99Ms is the generator's p99 lateness over a set of samples.
func lateP99Ms(ss []sample) float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = ms(s.late())
	}
	return quantiles(xs, 0.99)[0]
}
