package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"time"

	"hypre/internal/admit"
	"hypre/internal/serve"
	"hypre/internal/workload"
)

// serveKind selects one of the three HTTP workloads.
type serveKind int

const (
	serveHot serveKind = iota
	serveCold
	serveMixed
)

// serveRun is one HTTP workload's state: the data, the App behind a
// loopback listener, the stored sessions with their reference answers, the
// never-queried user pool, and the mutation plan.
type serveRun struct {
	kind serveKind
	p    params
	seed int64
	d    *data
	app  *serve.App
	srv  *server

	sessIDs []string
	users   []user   // session owners
	bodies  [][]byte // session query bodies
	refs    [][]byte // reference (hit) answer bytes per session
	seq     []int    // Zipf session sequence

	warm   []user // serve-cold warm-up users, disjoint from the pool
	pool   []user // serve-cold users never queried, used in order
	poolAt int

	plan   []workload.Op
	planAt int
	mutMu  sync.Mutex // keeps batches in plan order on the wire

	delMu    sync.Mutex
	deleted  map[int64]time.Duration // pid -> now() at the ack of its delete
	touched  []int                   // touched rows per acknowledged batch
	windows  []window                // send..ack of every mutate batch
	bypasses []window                // send..answer of every query that bypassed the cache
}

// window is a request's time on the wire (now() readings); i is its
// request index.
type window struct {
	i        int
	from, to time.Duration
}

// gates is the admission configuration of a workload: serve-mixed runs
// hypred's default burst, queue and SLO at twice the offered rates; the
// others run ungated.
func gates(kind serveKind, p params) (query, mutate admit.Config) {
	if kind != serveMixed {
		return admit.Config{}, admit.Config{}
	}
	return admit.Config{Rate: 2 * p.queryRate, Burst: 64, MaxQueue: 2048, SLO: 50 * time.Millisecond},
		admit.Config{Rate: 2 * p.mutateRate, Burst: 16, MaxQueue: 512, SLO: 100 * time.Millisecond}
}

// newServeRun boots an App over d behind a loopback listener and plans the
// run's mutations. wrap, when set, wraps the App's handler.
func newServeRun(kind serveKind, p params, seed int64, d *data, wrap func(http.Handler) http.Handler) (*serveRun, error) {
	q, m := gates(kind, p)
	app, err := serve.New(serve.Options{Net: d.net, Query: q, Mutate: m})
	if err != nil {
		return nil, err
	}
	h := app.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	srv, err := startServer(h)
	if err != nil {
		return nil, err
	}
	r := &serveRun{kind: kind, p: p, seed: seed, d: d, app: app, srv: srv, deleted: make(map[int64]time.Duration)}
	stream, err := workload.NewUpdateStream(d.net, workload.StreamConfig{
		Seed: seed, InsertFrac: 0.20, DeleteFrac: 0.15, UpdateFrac: 0.45, LinkFrac: 0.20,
	})
	if err != nil {
		srv.close()
		return nil, err
	}
	r.plan = stream.PlanPartitions(1, p.planBatches()*batchOps)[0]
	return r, nil
}

// setupServe is a serve workload's whole set-up: data, App, sessions and
// warm-up, up to the first timed request.
func setupServe(kind serveKind, p params, seed int64, wrap func(http.Handler) http.Handler) (*serveRun, error) {
	d, err := buildData(p.papers, seed)
	if err != nil {
		return nil, err
	}
	r, err := newServeRun(kind, p, seed, d, wrap)
	if err != nil {
		return nil, err
	}
	if kind == serveCold {
		r.warm = d.take(p.warm)
		var buf bytes.Buffer
		for _, u := range r.warm {
			if st, err := r.srv.post("/v1/query", inlineBody(u.canon), "", &buf); err != nil || st != http.StatusOK {
				r.close()
				return nil, fmt.Errorf("warm-up query: status %d: %v", st, err)
			}
		}
		r.pool = d.users
		return r, nil
	}
	if err := r.addSessions(d.take(p.sessions)); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// addSessions stores users as sessions, warms each, and keeps the hit
// answer as the session's reference; it also draws the Zipf sequence.
func (r *serveRun) addSessions(users []user) error {
	if len(users) == 0 {
		return fmt.Errorf("no users with usable profiles")
	}
	r.users = users
	ids := make([]int64, len(users))
	var buf bytes.Buffer
	for i, u := range users {
		id := "s" + strconv.Itoa(i)
		if _, err := r.app.SeedSession(id, u.canon); err != nil {
			return fmt.Errorf("seed session: %w", err)
		}
		r.sessIDs = append(r.sessIDs, id)
		r.bodies = append(r.bodies, sessionBody(id))
		ids[i] = int64(i)
		for range 2 {
			if st, err := r.srv.post("/v1/query", r.bodies[i], "", &buf); err != nil || st != http.StatusOK {
				return fmt.Errorf("warm session %s: status %d: %v", id, st, err)
			}
		}
		if !bytes.Contains(buf.Bytes(), []byte(`"outcome":"hit"`)) {
			return fmt.Errorf("warm session %s: second query was not a hit: %s", id, buf.Bytes())
		}
		r.refs = append(r.refs, bytes.Clone(buf.Bytes()))
	}
	mix := workload.ZipfProfileSequence(ids, 1<<16, workload.ProfileMixConfig{Seed: r.seed, S: 1.3, Distinct: len(ids)})
	r.seq = make([]int, len(mix.Seq))
	for i, s := range mix.Seq {
		r.seq[i] = int(s)
	}
	return nil
}

func (r *serveRun) close() { r.srv.close() }

// sessionDo queries stored sessions along the Zipf sequence and requires
// each answer to equal its session's reference bytes.
func (r *serveRun) sessionDo(target *server, rec *recorder, refs [][]byte) doFunc {
	bufs := make([]bytes.Buffer, r.p.clients) // one answer buffer per client
	return func(c, i int) answer {
		s := r.seq[i%len(r.seq)]
		st, err := traced(rec, func(rid string) (int, error) {
			return target.post("/v1/query", r.bodies[s], rid, &bufs[c])
		})
		end := now()
		if err != nil || st != http.StatusOK {
			return answer{failed: true, end: end}
		}
		if !bytes.Equal(bufs[c].Bytes(), refs[s]) {
			return answer{failed: true, wrong: true, end: end}
		}
		return answer{hit: true, end: end}
	}
}

// traced runs one client request inside a client.request span.
func traced(rec *recorder, send func(rid string) (int, error)) (int, error) {
	if rec == nil {
		return send("")
	}
	rid := rec.nextReq()
	t := rec.begin(rid)
	sp := t.start("client.request", -1)
	st, err := send(strconv.FormatInt(rid, 10))
	t.end(sp)
	t.flush()
	return st, err
}

// coldDo sends never-queried users' inline profiles from the pool; every
// answer must be an evaluation (a miss). Answers land in got by request
// index for the sampled check against the uncached reference.
func (r *serveRun) coldDo(target *server, rec *recorder, got []queryResponse) doFunc {
	bufs := make([]bytes.Buffer, r.p.clients) // one answer buffer per client
	base := r.poolAt
	return func(c, i int) answer {
		u := r.pool[base+i]
		body := inlineBody(u.canon)
		st, err := traced(rec, func(rid string) (int, error) {
			return target.post("/v1/query", body, rid, &bufs[c])
		})
		end := now()
		if err != nil || st != http.StatusOK {
			return answer{failed: true, end: end}
		}
		if err := json.Unmarshal(bufs[c].Bytes(), &got[i]); err != nil || got[i].Outcome != "miss" {
			return answer{failed: true, wrong: true, end: end}
		}
		return answer{end: end}
	}
}

// mixedDo serves an open-loop schedule of session queries and mutate
// batches. A query answer must not hold a pid whose delete was
// acknowledged before the query was sent.
func (r *serveRun) mixedDo(target *server, rec *recorder, arr []arrival) doFunc {
	bufs := make([]bytes.Buffer, r.p.clients) // one answer buffer per client
	return func(c, i int) answer {
		a := arr[i]
		if a.kind == kindMutate {
			return r.mutateOnce(target, rec, &bufs[c])
		}
		s := r.seq[a.idx%len(r.seq)]
		sent := now()
		st, err := traced(rec, func(rid string) (int, error) {
			return target.post("/v1/query", r.bodies[s], rid, &bufs[c])
		})
		end := now()
		if err != nil || st != http.StatusOK {
			return answer{failed: true, end: end}
		}
		var got queryResponse
		if err := json.Unmarshal(bufs[c].Bytes(), &got); err != nil || len(got.Results) == 0 {
			return answer{failed: true, wrong: true, end: end}
		}
		r.delMu.Lock()
		defer r.delMu.Unlock()
		if got.Outcome == "bypass" {
			r.bypasses = append(r.bypasses, window{i: i, from: sent, to: end})
		}
		for _, row := range got.Results {
			if at, ok := r.deleted[row.PID]; ok && at < sent {
				return answer{failed: true, wrong: true, end: end}
			}
		}
		return answer{hit: got.Outcome == "hit", end: end}
	}
}

// mutateOnce sends the plan's next batch and checks the ack: every op
// applied, and each deleted pid recorded with its ack time.
func (r *serveRun) mutateOnce(target *server, rec *recorder, buf *bytes.Buffer) answer {
	r.mutMu.Lock()
	defer r.mutMu.Unlock()
	if r.planAt+batchOps > len(r.plan) {
		return answer{failed: true} // the plan is sized so this cannot happen
	}
	ops := r.plan[r.planAt : r.planAt+batchOps]
	r.planAt += batchOps
	body, err := mutateBody(ops)
	if err != nil {
		return answer{failed: true}
	}
	sent := now()
	st, err := traced(rec, func(rid string) (int, error) {
		return target.post("/v1/mutate", body, rid, buf)
	})
	end := now()
	r.delMu.Lock()
	r.windows = append(r.windows, window{from: sent, to: end})
	r.delMu.Unlock()
	if err != nil || st != http.StatusOK {
		return answer{failed: true, end: end}
	}
	var ack mutateResponse
	if err := json.Unmarshal(buf.Bytes(), &ack); err != nil || ack.Applied != len(ops) {
		return answer{failed: true, wrong: true, end: end}
	}
	r.delMu.Lock()
	for _, op := range ops {
		if op.Kind == workload.OpDelete {
			r.deleted[op.PID] = end
		}
	}
	r.touched = append(r.touched, ack.TouchedRows)
	r.delMu.Unlock()
	return answer{end: end}
}

// mainPhase is the workload's measured traffic for d against target, cut
// at limit requests (limit < 0: no cut).
func (r *serveRun) mainPhase(target *server, rec *recorder, refs [][]byte, d time.Duration, limit int, seed int64) (drive, []queryResponse) {
	switch r.kind {
	case serveHot:
		return closedLoop(r.p.clients, d, limit, kindQuery, r.sessionDo(target, rec, refs)), nil
	case serveCold:
		n := len(r.pool) - r.poolAt
		if limit >= 0 {
			n = min(n, limit)
		}
		got := make([]queryResponse, n)
		dr := closedLoop(r.p.clients, d, n, kindQuery, r.coldDo(target, rec, got))
		return dr, got
	}
	rng := rand.New(rand.NewSource(seed))
	arr := mergeArrivals(
		poissonArrivals(rng, r.p.queryRate, d, kindQuery),
		poissonArrivals(rand.New(rand.NewSource(seed+1)), r.p.mutateRate, d, kindMutate))
	if limit >= 0 && len(arr) > limit {
		arr = arr[:limit]
	}
	return openLoop(r.p.clients, arr, r.mixedDo(target, rec, arr)), nil
}

// checkBypasses marks wrong every query of dr that bypassed the cache
// while no mutate batch was on the wire. The server bypasses only between
// a batch's commit and its cache repair, and it acknowledges a batch only
// after the repair, so a bypass outside every batch's send..ack window
// means the cache was left stale past an acknowledgement.
func (r *serveRun) checkBypasses(dr *drive) {
	r.delMu.Lock()
	defer r.delMu.Unlock()
	at := make(map[int]int, len(dr.samples))
	for j, s := range dr.samples {
		at[s.i] = j
	}
	for _, b := range r.bypasses {
		covered := false
		for _, w := range r.windows {
			if w.from < b.to && w.to > b.from {
				covered = true
				break
			}
		}
		if j, ok := at[b.i]; ok && !covered {
			dr.samples[j].failed, dr.samples[j].wrong = true, true
		}
	}
	r.bypasses = nil
}

// verifyRefs checks every session's reference answer against the App's
// uncached evaluation; it returns the sessions whose reference is wrong.
func (r *serveRun) verifyRefs() (map[int]bool, error) {
	bad := make(map[int]bool)
	for s, u := range r.users {
		want, err := r.app.Uncached(u.canon, k)
		if err != nil {
			return nil, fmt.Errorf("uncached reference: %w", err)
		}
		var got queryResponse
		if err := json.Unmarshal(r.refs[s], &got); err != nil || !sameAnswer(got.Results, want) {
			bad[s] = true
		}
	}
	return bad, nil
}

// markBadRefs turns every answer served from a wrong reference into a
// wrong answer.
func (r *serveRun) markBadRefs(dr *drive, bad map[int]bool) {
	for i := range dr.samples {
		s := &dr.samples[i]
		if s.kind == kindQuery && !s.failed && bad[r.seq[s.i%len(r.seq)]] {
			s.failed, s.wrong, s.hit = true, true, false
		}
	}
}

// verifyCold compares up to n evenly spaced cold answers with the App's
// uncached evaluation and marks mismatches wrong.
func (r *serveRun) verifyCold(dr *drive, got []queryResponse, base, n int) error {
	var ok []int
	for j, s := range dr.samples {
		if !s.failed {
			ok = append(ok, j)
		}
	}
	for c := 0; c < n && c < len(ok); c++ {
		s := &dr.samples[ok[c*len(ok)/min(n, len(ok))]]
		want, err := r.app.Uncached(r.pool[base+s.i].canon, k)
		if err != nil {
			return fmt.Errorf("uncached reference: %w", err)
		}
		if !sameAnswer(got[s.i].Results, want) {
			s.failed, s.wrong = true, true
		}
	}
	return nil
}

// verifyMixed queries up to n sessions on target once the traffic has
// stopped and compares each answer with the uncached evaluation of the
// mutated store.
func (r *serveRun) verifyMixed(target *server, n int) (drive, error) {
	var buf bytes.Buffer
	var dr drive
	for s := 0; s < n && s < len(r.users); s++ {
		st, err := target.post("/v1/query", r.bodies[s], "", &buf)
		smp := sample{kind: kindQuery, i: s}
		var got queryResponse
		switch {
		case err != nil || st != http.StatusOK:
			smp.failed = true
		case json.Unmarshal(buf.Bytes(), &got) != nil:
			smp.failed, smp.wrong = true, true
		default:
			want, err := r.app.Uncached(r.users[s].canon, k)
			if err != nil {
				return dr, fmt.Errorf("uncached reference: %w", err)
			}
			if !sameAnswer(got.Results, want) {
				smp.failed, smp.wrong = true, true
			}
		}
		dr.samples = append(dr.samples, smp)
	}
	return dr, nil
}

// probe measures what the workload's own traffic does not: session hits
// (serve-cold, peps-batch) over the given users and, for every workload but
// serve-mixed, sequential /v1/mutate batches. Answers are checked as in the
// main phase.
//
// Each probe starts from a collected heap, so whether a collection cycle
// lands inside its short window does not decide its tail.
func (r *serveRun) probe(hitUsers []user) ([]drive, error) {
	var out []drive
	if r.p.probeHits > 0 {
		if err := r.addSessions(hitUsers); err != nil {
			return nil, err
		}
		runtime.GC()
		dr := closedLoop(r.p.clients, r.p.probeHits, -1, kindQuery, r.sessionDo(r.srv, nil, r.refs))
		bad, err := r.verifyRefs()
		if err != nil {
			return nil, err
		}
		r.markBadRefs(&dr, bad)
		out = append(out, dr)
	}
	var buf bytes.Buffer
	runtime.GC()
	out = append(out, closedLoop(1, time.Hour, r.p.probeBatches, kindMutate, func(int, int) answer {
		return r.mutateOnce(r.srv, nil, &buf)
	}))
	return out, nil
}

// handlerProbe times App.Handler().ServeHTTP on an in-memory recorder for
// up to n requests or d, whichever ends first, with no network in the way.
func (r *serveRun) handlerProbe(n int, d time.Duration) []float64 {
	h := r.app.Handler()
	var out []float64
	deadline := time.Now().Add(d)
	for i := 0; i < n && time.Now().Before(deadline); i++ {
		var body []byte
		if r.kind == serveCold {
			if r.poolAt >= len(r.pool) {
				break
			}
			body = inlineBody(r.pool[r.poolAt].canon)
			r.poolAt++
		} else {
			body = r.bodies[r.seq[i%len(r.seq)]]
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body))
		w := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(w, req)
		out = append(out, us(time.Since(t0)))
	}
	return out
}
