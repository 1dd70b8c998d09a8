package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"hypre/internal/combine"
	"hypre/internal/metrics"
	"hypre/internal/relstore"
	"hypre/internal/topk"
	"hypre/internal/workload"
)

// runServe runs one HTTP workload, untraced (in segments) or traced.
func runServe(kind serveKind, p params, o options) (*report, error) {
	if o.trace {
		return traceServe(kind, p, o)
	}
	rep := &report{record: map[string]any{}}
	var segs []segment
	var st *serveRun
	var touched []int
	var stale int64
	used := 0 // serve-cold pool users queried by earlier segments
	for i := range p.setups {
		st = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if st, err = setupServe(kind, p.share(), o.seed, o.wrap); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		g := segment{setup: time.Since(t0).Seconds(), heapMB: liveHeapMB()}
		// Every set-up lists the same users in the same order, so a
		// segment goes on where the previous one stopped.
		st.poolAt = used
		err = st.measure(&g, o.seed+int64(i))
		st.close()
		if err != nil {
			return nil, err
		}
		used = st.poolAt
		touched = append(touched, st.touched...)
		stale += st.app.Server().Counters().Snapshot().StaleBypasses
		segs = append(segs, g)
	}
	endToEndMetrics(rep, segs)
	st.touched = touched
	st.describe(rep, joinMains(segs))
	rep.record["stale_bypasses"] = stale
	return rep, nil
}

// measure drives one segment's share of the workload's traffic, checks
// the answers, and runs the segment's probes.
func (r *serveRun) measure(g *segment, seed int64) error {
	cpu0 := cpuTime()
	main, got := r.mainPhase(r.srv, nil, r.refs, r.p.seconds, -1, seed)
	g.cpu = cpuTime() - cpu0
	switch r.kind {
	case serveHot:
		bad, err := r.verifyRefs()
		if err != nil {
			return err
		}
		r.markBadRefs(&main, bad)
		if g.probes, err = r.probe(nil); err != nil { // its main phase is all hits
			return err
		}
	case serveCold:
		if err := r.verifyCold(&main, got, r.poolAt, r.p.verify); err != nil {
			return err
		}
		r.poolAt += len(main.samples)
		// The probes run on a fresh App over the same store, so their
		// state does not depend on how many users the phase reached.
		pr, err := newServeRun(serveCold, r.p, seed, r.d, nil)
		if err != nil {
			return err
		}
		defer pr.close()
		if g.probes, err = pr.probe(r.warm[:min(r.p.sessions, len(r.warm))]); err != nil {
			return err
		}
		r.touched = pr.touched
	case serveMixed:
		r.checkBypasses(&main)
		v, err := r.verifyMixed(r.srv, r.p.verify)
		if err != nil {
			return err
		}
		g.probes = []drive{v}
	}
	g.main = main
	return nil
}

// describe records the input properties later claims must cite.
func (r *serveRun) describe(rep *report, main drive) {
	q := main.of(kindQuery)
	hits := 0
	for _, s := range q {
		if s.hit {
			hits++
		}
	}
	rep.record["hit_share"] = frac(float64(hits), float64(len(q)))
	rep.record["base_spans"] = r.d.spans
	rep.record["base_blocks"] = r.d.blocks
	rep.record["ops_per_batch"] = batchOps
	rep.record["touched_rows_per_sync"] = meanInts(r.touched)
	var prefs []float64
	switch r.kind {
	case serveCold:
		rep.record["distinct_fingerprints"] = len(q) // one never-seen user per request
		rep.record["arrival"] = fmt.Sprintf("closed loop, %d clients, inline never-seen profiles", r.p.clients)
		for _, u := range r.pool[:min(len(r.pool), max(r.poolAt, 1))] {
			prefs = append(prefs, float64(len(u.canon)))
		}
	default:
		seen := make(map[int]bool)
		for _, s := range q {
			seen[r.seq[s.i%len(r.seq)]] = true
		}
		rep.record["distinct_fingerprints"] = len(seen)
		rep.record["arrival"] = fmt.Sprintf("closed loop, %d clients, Zipf s=1.3 over %d sessions", r.p.clients, len(r.users))
		if r.kind == serveMixed {
			rep.record["arrival"] = fmt.Sprintf("open loop, Poisson %.0f session queries/s + %.0f mutate batches/s, %d clients", r.p.queryRate, r.p.mutateRate, r.p.clients)
		}
		for _, u := range r.users {
			prefs = append(prefs, float64(len(u.canon)))
		}
	}
	rep.record["mean_profile_prefs"] = mean(prefs)
}

// counters is a reading of every layer counter the traced run diffs.
type counters struct {
	cache         metrics.CacheSnapshot
	queued, offer int64
	shed          int64
	groupBatches  int64
	groupOps      int64
}

func (m *mirror) read(store *relstore.StoreCounters) counters {
	var c counters
	c.cache = m.srv.Counters().Snapshot()
	for _, g := range []*metrics.AdmitCounters{m.queryGate.Counters(), m.mutateGate.Counters()} {
		s := g.Snapshot()
		c.queued += s.Queued
		c.shed += s.Shed
		c.offer += s.Offered()
	}
	s := store.Snapshot()
	c.groupBatches, c.groupOps = s.GroupCommitBatches, s.GroupCommitOps
	return c
}

// traceServe is the traced run: one set-up, an untraced phase against the
// App (runtime figures, the untraced p50, the in-memory handler time),
// then the same request generator against the mirror stack with spans on.
func traceServe(kind serveKind, p params, o options) (*report, error) {
	rep := &report{record: map[string]any{}}
	st, err := setupServe(kind, p, o.seed, o.wrap)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer st.close()
	half := max(p.seconds/2, time.Second)

	rt0 := readRuntime()
	a, got := st.mainPhase(st.srv, nil, st.refs, half, -1, o.seed)
	rt1 := readRuntime()
	all := []drive{a}
	if kind == serveMixed {
		st.checkBypasses(&all[0])
	}
	if kind == serveCold {
		if err := st.verifyCold(&all[0], got, st.poolAt, p.verify); err != nil {
			return nil, err
		}
		st.poolAt += len(a.samples)
	}
	handler := st.handlerProbe(2000, max(p.seconds/8, 200*time.Millisecond))

	rec := newRecorder()
	q, mg := gates(kind, p)
	m, err := newMirror(st.d.net, q, mg, rec)
	if err != nil {
		return nil, err
	}
	mSrv, err := startServer(m.handler())
	if err != nil {
		return nil, err
	}
	defer mSrv.close()
	refs, err := warmMirror(st, mSrv, rec)
	if err != nil {
		return nil, err
	}
	shadowEv := combine.NewEvaluator(st.d.net.DB, workload.BaseQuery, "dblp.pid")
	var shadow []*topk.StreamStats
	var overheads []float64 // per miss: its cache call minus its shadow evaluation, ms
	// checkShadow re-evaluates the kept misses on the shadow evaluator,
	// checks each answer, and pairs each miss's time with its evaluation's.
	checkShadow := func() {
		m.ledgerMu.Lock()
		todo := m.misses
		m.misses = nil
		m.ledgerMu.Unlock()
		for _, x := range todo {
			t := rec.begin(rec.nextReq())
			sp := t.start("topk.eval", -1)
			res, stats, err := topk.EvaluateOneShot(shadowEv, x.canon, k)
			t.end(sp)
			overheads = append(overheads, ms(x.dur-t.dur(sp)))
			t.flush()
			rep.attempt++
			if err != nil || !sameTuples(res, x.res) {
				rep.failed++
				rep.wrong++
			}
			if stats != nil && stats.Streamed {
				shadow = append(shadow, stats)
			}
		}
	}
	// The store has not moved since the mirror's warm-up misses.
	checkShadow()

	c0 := m.read(st.d.store)
	b, gotB := st.mainPhase(mSrv, rec, refs, half, p.traceCap, o.seed+7)
	c1 := m.read(st.d.store)
	all = append(all, b)
	switch kind {
	case serveCold:
		if err := st.verifyCold(&all[1], gotB, st.poolAt, p.verify); err != nil {
			return nil, err
		}
		checkShadow()
	case serveMixed:
		st.checkBypasses(&all[1])
		v, err := st.verifyMixed(mSrv, p.verify)
		if err != nil {
			return nil, err
		}
		all = append(all, v)
	case serveHot:
		bad, err := st.verifyRefs()
		if err != nil {
			return nil, err
		}
		st.markBadRefs(&all[0], bad)
		for i := range refs {
			if !bytes.Equal(refs[i], st.refs[i]) {
				rep.problems = append(rep.problems, fmt.Sprintf("mirror answer for session %d differs from the App's", i))
				break
			}
		}
	}
	if kind != serveMixed {
		// The write path, traced, after the read traffic.
		var buf bytes.Buffer
		all = append(all, closedLoop(1, time.Hour, p.probeBatches, kindMutate, func(int, int) answer {
			return st.mutateOnce(mSrv, rec, &buf)
		}))
	}
	c2 := m.read(st.d.store)
	rep.tally(all...)

	spans := rec.linked()
	an := analyze(spans, "serve.request")
	untraced := median(latenciesMs(a.of(kindQuery), nil))
	traced := median(latenciesMs(b.of(kindQuery), nil))
	lm := layerBase(st.d.stages, an)
	lm["serve.handler_us"] = median(handler)
	lm["http.transport_us"] = transportUs(spans)
	nq := float64(len(a.of(kindQuery)))
	lm["runtime.gc_cpu_frac"] = frac(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU)
	lm["runtime.alloc_bytes_per_query"] = frac(rt1.allocBytes-rt0.allocBytes, nq)
	lm["trace.overhead_frac"] = frac(traced, untraced) - 1
	lm["driver.late_p99_ms"] = lateP99Ms(a.samples)
	shadowMetrics(lm, an, shadow, overheads)

	// Read-path counts over the traced read phase; write-path counts over
	// everything the mirror committed.
	d := c1.cache
	d0 := c0.cache
	misses := d.Misses - d0.Misses
	lm["cache.footprint_scans_per_miss"] = frac(float64(d.FootprintScans-d0.FootprintScans), float64(misses))
	lm["cache.hit_frac"] = frac(float64(d.Hits-d0.Hits), float64(d.Hits-d0.Hits+misses+d.SharedWaits-d0.SharedWaits))
	lm["cache.shared_waits"] = float64(d.SharedWaits - d0.SharedWaits)
	lm["cache.stale_bypasses"] = float64(c2.cache.StaleBypasses)
	lm["admit.queued_frac"] = frac(float64(c1.queued-c0.queued), float64(c1.offer-c0.offer))
	lm["admit.shed_frac"] = frac(float64(c1.shed-c0.shed), float64(c1.offer-c0.offer))
	m.ledgerMu.Lock()
	syncs := m.syncs
	m.ledgerMu.Unlock()
	lm["cache.invalidated_per_mutate"] = frac(float64(c2.cache.Invalidated-c0.cache.Invalidated), float64(len(syncs)))
	lm["relstore.ops_per_group_commit"] = frac(float64(c2.groupOps-c0.groupOps), float64(c2.groupBatches-c0.groupBatches))
	var touched, changed []float64
	rebuilds := 0
	for _, s := range syncs {
		touched = append(touched, float64(s.TouchedRows))
		changed = append(changed, float64(s.ChangedPreds))
		if s.FullRebuild {
			rebuilds++
		}
	}
	lm["delta.touched_rows"] = mean(touched)
	lm["delta.changed_preds"] = mean(changed)
	lm["delta.full_rebuilds"] = float64(rebuilds)
	rep.metrics = lm
	rep.spans = spans
	finishTrace(rep, an)
	st.describe(rep, a)
	return rep, nil
}

// transportUs is the median, over traced requests, of the client's time on
// the request minus the server's: the HTTP client, connection and server
// plumbing outside the handler's layer calls.
func transportUs(spans []span) float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == "serve.request" && s.Parent >= 0 && spans[s.Parent].Name == "client.request" {
			out = append(out, us(spans[s.Parent].dur()-s.dur()))
		}
	}
	return median(out)
}

// warmMirror stores the run's sessions in the mirror over the wire and
// warms them (serve-hot, serve-mixed), or replays the warm-up users
// (serve-cold), all traced. It returns the mirror's reference answers.
func warmMirror(st *serveRun, ms *server, rec *recorder) ([][]byte, error) {
	var buf bytes.Buffer
	if st.kind == serveCold {
		for _, u := range st.warm {
			body := inlineBody(u.canon)
			if code, err := traced(rec, func(rid string) (int, error) { return ms.post("/v1/query", body, rid, &buf) }); err != nil || code != 200 {
				return nil, fmt.Errorf("mirror warm-up: status %d: %v", code, err)
			}
		}
		return nil, nil
	}
	refs := make([][]byte, len(st.users))
	for i, u := range st.users {
		if err := ms.put(st.sessIDs[i], profileBody(u.canon)); err != nil {
			return nil, fmt.Errorf("mirror: %w", err)
		}
		for range 2 {
			if code, err := traced(rec, func(rid string) (int, error) { return ms.post("/v1/query", st.bodies[i], rid, &buf) }); err != nil || code != 200 {
				return nil, fmt.Errorf("mirror warm-up: status %d: %v", code, err)
			}
		}
		refs[i] = append([]byte(nil), buf.Bytes()...)
	}
	return refs, nil
}

// layerBase starts a per-layer metric set with every metric at 0 and fills
// in the span-derived ones.
func layerBase(stages stageTimes, an analysis) map[string]float64 {
	lm := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		lm[d.name] = 0
	}
	lm["combine.canonicalize_us"] = an.p("combine.canonicalize", 0.5)
	lm["cache.hit_us"] = an.p("cache.hit", 0.5)
	lm["hypre.parse_us"] = an.p("hypre.parse", 0.5)
	lm["cache.miss_ms"] = an.p("cache.miss", 0.5) / 1000
	lm["admit.wait_p50_us"] = an.p("admit.wait", 0.5)
	lm["admit.wait_p99_us"] = an.p("admit.wait", 0.99)
	lm["relstore.op_commit_us"] = an.p("relstore.op_commit", 0.5)
	lm["delta.sync_p50_ms"] = an.p("delta.sync", 0.5) / 1000
	lm["delta.sync_p90_ms"] = an.p("delta.sync", 0.9) / 1000
	lm["combine.pair_build_ms"] = an.p("combine.pair_build", 0.5) / 1000
	lm["combine.peps_ms"] = an.p("combine.peps", 0.5) / 1000
	lm["workload.generate_s"] = stages.generate.Seconds()
	lm["workload.extract_s"] = stages.extract.Seconds()
	lm["hypre.graph_build_s"] = stages.graph.Seconds()
	lm["trace.coverage"] = an.coverage
	return lm
}

// shadowMetrics fills the evaluation-engine metrics from the shadow
// evaluations' spans, stream statistics and paired miss overheads.
func shadowMetrics(lm map[string]float64, an analysis, shadow []*topk.StreamStats, overheads []float64) {
	lm["topk.eval_ms"] = an.p("topk.eval", 0.5) / 1000
	lm["cache.miss_overhead_ms"] = median(overheads)
	var scanned, rows, early []float64
	for _, s := range shadow {
		scanned = append(scanned, frac(float64(s.BlocksScanned), float64(s.BlocksTotal)))
		rows = append(rows, float64(s.RowsSeen))
		e := 0.0
		if s.EarlyExit {
			e = 1
		}
		early = append(early, e)
	}
	lm["topk.blocks_scanned_frac"] = mean(scanned)
	lm["topk.rows_seen"] = mean(rows)
	lm["topk.early_exit_frac"] = mean(early)
}

// finishTrace checks the coverage bound and records the layer table and
// the layers this workload never called.
func finishTrace(rep *report, an analysis) {
	if c := an.coverage; c < coverageMin || c > coverageMax {
		rep.problems = append(rep.problems, fmt.Sprintf("trace.coverage %.3f outside [%.2f, 1]", c, coverageMin))
	}
	rep.record["layers"] = an.stats
	var idle []string
	for _, d := range perLayer {
		if rep.metrics[d.name] == 0 {
			idle = append(idle, d.name)
		}
	}
	rep.record["idle_layers"] = idle
}

// sameTuples reports exact equality of two rankings.
func sameTuples(a, b []combine.ScoredTuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
