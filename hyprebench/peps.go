package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"hypre/internal/combine"
	"hypre/internal/hypre"
	"hypre/internal/topk"
	"hypre/internal/workload"
)

// pepsRun is peps-batch's state: the data, one shared evaluator, the
// warm-up users and the pool of distinct users the phase walks in order.
type pepsRun struct {
	p    params
	d    *data
	ev   *combine.Evaluator
	warm []user
	pool []user
}

// setupPeps builds the data and the shared evaluator and warms it on users
// disjoint from the measured ones.
func setupPeps(p params, seed int64) (*pepsRun, error) {
	d, err := buildData(p.papers, seed)
	if err != nil {
		return nil, err
	}
	r := &pepsRun{p: p, d: d, warm: d.take(p.warm)}
	r.pool = d.users
	r.ev, err = r.warmEvaluator()
	return r, err
}

// warmEvaluator returns a fresh evaluator that has answered the warm-up
// users.
func (r *pepsRun) warmEvaluator() (*combine.Evaluator, error) {
	ev := combine.NewEvaluator(r.d.net.DB, workload.BaseQuery, "dblp.pid")
	for _, u := range r.warm {
		if _, err := pepsQuery(ev, u.canon, nil); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return ev, nil
}

// pepsQuery is the work core.System.TopK does for a profile it has not
// seen: build the pair table, then run PEPS (Complete).
func pepsQuery(ev *combine.Evaluator, canon []hypre.ScoredPred, t *reqTrace) (combine.TopKResult, error) {
	root := t.start("peps.query", -1)
	defer func() { t.end(root); t.flush() }()
	sp := t.start("combine.pair_build", root)
	pt, err := combine.BuildPairTable(canon, ev)
	t.end(sp)
	if err != nil {
		return combine.TopKResult{}, err
	}
	sp = t.start("combine.peps", root)
	defer t.end(sp)
	return combine.PEPS(canon, pt, ev, k, combine.Complete)
}

// phase answers pool users in order on ev until d elapses or limit users
// are done (limit < 0: the whole pool); answers land in the returned slice
// by request index.
func (r *pepsRun) phase(ev *combine.Evaluator, d time.Duration, limit int, rec *recorder) (drive, []combine.TopKResult) {
	n := len(r.pool)
	if limit >= 0 {
		n = min(n, limit)
	}
	got := make([]combine.TopKResult, n)
	dr := closedLoop(r.p.clients, d, n, kindQuery, func(c, i int) answer {
		res, err := pepsQuery(ev, r.pool[i].canon, rec.begin(rec.nextReq()))
		end := now()
		got[i] = res
		return answer{failed: err != nil, end: end}
	})
	return dr, got
}

// verify checks up to n evenly spaced answers against topk.EvaluateOneShot
// on the same evaluator, rank by rank.
func (r *pepsRun) verify(ev *combine.Evaluator, dr *drive, got []combine.TopKResult, n int) error {
	var ok []int
	for j, s := range dr.samples {
		if !s.failed {
			ok = append(ok, j)
		}
	}
	for c := 0; c < n && c < len(ok); c++ {
		s := &dr.samples[ok[c*len(ok)/min(n, len(ok))]]
		want, _, err := topk.EvaluateOneShot(ev, r.pool[s.i].canon, k)
		if err != nil {
			return fmt.Errorf("reference evaluation: %w", err)
		}
		if !pepsMatches(got[s.i].Tuples, want) {
			s.failed, s.wrong = true, true
		}
	}
	return nil
}

// pepsTol is how far PEPS's combined intensity may sit from the TA
// reference's at the same rank: the two fold the same products in
// different orders, so they can differ in the last bits.
const pepsTol = 1e-9

// pepsMatches reports whether a PEPS ranking equals the reference rank by
// rank: scores within pepsTol, and any pid that differs must be tied (within
// pepsTol) with the reference's score for it or with the k-th score.
func pepsMatches(got, want []combine.ScoredTuple) bool {
	if len(got) != len(want) {
		return false
	}
	score := make(map[int64]float64, len(want))
	for _, w := range want {
		score[w.PID] = w.Intensity
	}
	for i, g := range got {
		if math.Abs(g.Intensity-want[i].Intensity) > pepsTol {
			return false
		}
		if g.PID == want[i].PID {
			continue
		}
		ws, ok := score[g.PID]
		if ok && math.Abs(ws-g.Intensity) <= pepsTol {
			continue
		}
		if !ok && math.Abs(g.Intensity-want[len(want)-1].Intensity) <= pepsTol {
			continue
		}
		return false
	}
	return true
}

// runPeps runs peps-batch, untraced (in segments) or traced.
func runPeps(p params, o options) (*report, error) {
	if o.trace {
		return tracePeps(p, o)
	}
	rep := &report{record: map[string]any{}}
	var segs []segment
	var r *pepsRun
	var queried []user
	var touched []int
	for i := range p.setups {
		r = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if r, err = setupPeps(p.share(), o.seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		g := segment{setup: time.Since(t0).Seconds(), heapMB: liveHeapMB()}
		// Every set-up lists the same users in the same order, so a
		// segment goes on where the previous one stopped.
		r.pool = r.pool[len(queried):]
		cpu0 := cpuTime()
		main, got := r.phase(r.ev, r.p.seconds, -1, nil)
		g.cpu = cpuTime() - cpu0
		if err := r.verify(r.ev, &main, got, r.p.verify); err != nil {
			return nil, err
		}
		queried = append(queried, r.pool[:len(main.samples)]...)
		// Session hits and mutate batches go through an App over the same
		// store, after the measured phase.
		st, err := newServeRun(serveHot, r.p, o.seed+int64(i), r.d, nil)
		if err != nil {
			return nil, err
		}
		g.main = main
		g.probes, err = st.probe(r.warm[:min(p.sessions, len(r.warm))])
		st.close()
		if err != nil {
			return nil, err
		}
		touched = append(touched, st.touched...)
		segs = append(segs, g)
	}
	endToEndMetrics(rep, segs)
	r.describe(rep, queried, touched)
	return rep, nil
}

// tracePeps is peps-batch's traced run: an untraced phase, then the same
// users again on a fresh, equally warmed evaluator with spans on.
func tracePeps(p params, o options) (*report, error) {
	rep := &report{record: map[string]any{}}
	r, err := setupPeps(p, o.seed)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	half := max(p.seconds/2, time.Second)
	rt0 := readRuntime()
	a, gotA := r.phase(r.ev, half, -1, nil)
	rt1 := readRuntime()
	if err := r.verify(r.ev, &a, gotA, p.verify); err != nil {
		return nil, err
	}
	ev, err := r.warmEvaluator()
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	b, gotB := r.phase(ev, half, p.traceCap, rec)
	if err := r.verify(ev, &b, gotB, p.verify); err != nil {
		return nil, err
	}
	rep.tally(a, b)

	spans := rec.linked()
	an := analyze(spans, "peps.query")
	lm := layerBase(r.d.stages, an)
	untraced := median(latenciesMs(a.samples, nil))
	lm["runtime.gc_cpu_frac"] = frac(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU)
	lm["runtime.alloc_bytes_per_query"] = frac(rt1.allocBytes-rt0.allocBytes, float64(len(a.samples)))
	lm["trace.overhead_frac"] = frac(median(latenciesMs(b.samples, nil)), untraced) - 1
	lm["driver.late_p99_ms"] = lateP99Ms(a.samples)
	var anchors, combos []float64
	for _, s := range b.samples {
		if !s.failed {
			anchors = append(anchors, float64(gotB[s.i].AnchorsUsed))
			combos = append(combos, float64(gotB[s.i].CombosExpanded))
		}
	}
	lm["combine.anchors_used"] = mean(anchors)
	lm["combine.combos_expanded"] = mean(combos)
	rep.metrics = lm
	rep.spans = spans
	finishTrace(rep, an)
	r.describe(rep, r.pool[:len(a.samples)], nil)
	return rep, nil
}

// describe records the input properties later claims must cite: queried
// are the users the measured phases answered, touched the rows each probe
// batch's sync touched.
func (r *pepsRun) describe(rep *report, queried []user, touched []int) {
	var prefs []float64
	for _, u := range queried {
		prefs = append(prefs, float64(len(u.canon)))
	}
	rep.record["arrival"] = "closed loop, 1 caller, one distinct user per query"
	rep.record["hit_share"] = 0.0
	rep.record["distinct_fingerprints"] = len(queried)
	rep.record["mean_profile_prefs"] = mean(prefs)
	rep.record["base_spans"] = r.d.spans
	rep.record["base_blocks"] = r.d.blocks
	rep.record["ops_per_batch"] = batchOps
	if touched != nil {
		rep.record["touched_rows_per_sync"] = meanInts(touched)
	}
}
