package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"hypre/internal/admit"
	"hypre/internal/cache"
	"hypre/internal/combine"
	"hypre/internal/delta"
	"hypre/internal/hypre"
	"hypre/internal/obs"
	"hypre/internal/relstore"
	"hypre/internal/serve"
	"hypre/internal/workload"
)

// mirror is the serving stack the traced run measures: built from the
// layers' public constructors the way serve.New builds its App, and
// answering the same query, session and mutate routes with the same wire
// forms, but with a span around every call into a layer. The spans live
// in the benchmark, so the program carries no tracing of its own.
type mirror struct {
	db         *relstore.DB
	srv        *cache.Server
	maint      *delta.Maintainer
	queryGate  *admit.Gate
	mutateGate *admit.Gate
	rec        *recorder

	sessMu   sync.RWMutex
	sessions map[string][]hypre.ScoredPred

	syncMu sync.Mutex

	// ledger of what the traced run did, for the per-layer counts.
	ledgerMu sync.Mutex
	syncs    []delta.SyncStats
	misses   []miss
}

// miss is one evaluated answer kept for the shadow check, with the time
// its cache call took.
type miss struct {
	canon []hypre.ScoredPred
	res   []combine.ScoredTuple
	dur   time.Duration
}

// maxMisses bounds the misses kept for shadow evaluation. The latest are
// kept, so a shadow evaluation runs close in time to the miss it is
// paired with.
const maxMisses = 32

func newMirror(net *workload.Network, query, mutate admit.Config, rec *recorder) (*mirror, error) {
	reg := obs.NewRegistry()
	ev := combine.NewEvaluator(net.DB, workload.BaseQuery, "dblp.pid")
	srv := cache.NewServer(ev, cache.Config{Registry: reg, SlowLog: obs.NewSlowLog(25*time.Millisecond, 128)})
	maint, err := delta.NewMaintainer(ev, nil)
	if err != nil {
		return nil, err
	}
	maint.AttachObs(reg)
	maint.AttachCache(srv)
	ctrl := admit.NewController(reg)
	return &mirror{
		db:         net.DB,
		srv:        srv,
		maint:      maint,
		queryGate:  ctrl.AddClass("query", query),
		mutateGate: ctrl.AddClass("mutate", mutate),
		rec:        rec,
		sessions:   make(map[string][]hypre.ScoredPred),
	}, nil
}

// handler routes like serve.App and roots every request's spans in a
// serve.request span that its layer spans must tile.
func (m *mirror) handler() http.Handler {
	mux := http.NewServeMux()
	route := func(fn func(http.ResponseWriter, *http.Request, *reqTrace, int)) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			rid, _ := strconv.ParseInt(r.Header.Get(ridHeader), 10, 64) // untagged requests trace as 0
			t := m.rec.begin(rid)
			root := t.start("serve.request", -1)
			fn(w, r, t, root)
			t.end(root)
			t.flush()
		}
	}
	mux.HandleFunc("POST /v1/query", route(m.query))
	mux.HandleFunc("PUT /v1/session/{id}/profile", route(m.putProfile))
	mux.HandleFunc("POST /v1/mutate", route(m.mutate))
	return mux
}

// admit runs the gate inside an admit.wait span; false means the error
// answer is written.
func (m *mirror) admit(w http.ResponseWriter, r *http.Request, g *admit.Gate, t *reqTrace, root int) bool {
	sp := t.start("admit.wait", root)
	_, err := g.Admit(r.Context())
	t.end(sp)
	if err == nil {
		return true
	}
	var shed *admit.ShedError
	if errors.As(err, &shed) {
		w.Header().Set("Retry-After", strconv.Itoa(shed.RetryAfterSeconds()))
		writeJSON(w, http.StatusTooManyRequests, map[string]string{"error": shed.Error()}, t, root)
		return false
	}
	writeJSON(w, serve.StatusClientClosedRequest, map[string]string{"error": "client closed request"}, t, root)
	return false
}

// decode reads a JSON body inside an http.decode span.
func decode(w http.ResponseWriter, r *http.Request, v any, t *reqTrace, root int) bool {
	sp := t.start("http.decode", root)
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	t.end(sp)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()}, t, root)
		return false
	}
	return true
}

// parse turns wire entries into scored predicates inside a hypre.parse span.
func parse(entries []serve.ProfileEntry, t *reqTrace, root int) ([]hypre.ScoredPred, error) {
	sp := t.start("hypre.parse", root)
	defer t.end(sp)
	prefs := make([]hypre.ScoredPred, 0, len(entries))
	for i, e := range entries {
		p, err := hypre.NewScoredPred(e.Pred, e.Intensity)
		if err != nil {
			return nil, fmt.Errorf("profile[%d]: %v", i, err)
		}
		prefs = append(prefs, p)
	}
	return prefs, nil
}

type mirrorQuery struct {
	Session string               `json:"session"`
	Profile []serve.ProfileEntry `json:"profile"`
	K       int                  `json:"k"`
}

// mirrorAnswer has serve's query answer fields in serve's order, so equal
// answers are equal bytes.
type mirrorAnswer struct {
	Outcome     string      `json:"outcome"`
	Fingerprint string      `json:"fingerprint"`
	K           int         `json:"k"`
	Results     []resultRow `json:"results"`
}

func (m *mirror) query(w http.ResponseWriter, r *http.Request, t *reqTrace, root int) {
	if !m.admit(w, r, m.queryGate, t, root) {
		return
	}
	var req mirrorQuery
	if !decode(w, r, &req, t, root) {
		return
	}
	var prefs []hypre.ScoredPred
	if req.Session != "" {
		sp := t.start("serve.session", root)
		m.sessMu.RLock()
		p, ok := m.sessions[req.Session]
		m.sessMu.RUnlock()
		t.end(sp)
		if !ok {
			writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown session"}, t, root)
			return
		}
		prefs = p
	} else {
		var err error
		if prefs, err = parse(req.Profile, t, root); err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()}, t, root)
			return
		}
	}
	sp := t.start("cache.topk", root)
	res, outcome, err := m.srv.TopKContext(r.Context(), prefs, req.K, nil)
	t.end(sp)
	t.rename(sp, "cache."+outcome.String())
	took := t.dur(sp)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()}, t, root)
		return
	}
	sp = t.start("combine.canonicalize", root)
	canon, fp := combine.CanonicalProfile(prefs)
	t.end(sp)
	if outcome == cache.Miss {
		m.ledgerMu.Lock()
		m.misses = append(m.misses, miss{canon: canon, res: res, dur: took})
		if len(m.misses) > maxMisses {
			m.misses = m.misses[1:]
		}
		m.ledgerMu.Unlock()
	}
	rows := make([]resultRow, len(res))
	for i, x := range res {
		rows[i] = resultRow{PID: x.PID, Score: x.Intensity}
	}
	writeJSON(w, http.StatusOK, mirrorAnswer{Outcome: outcome.String(), Fingerprint: fp.String(), K: req.K, Results: rows}, t, root)
}

func (m *mirror) putProfile(w http.ResponseWriter, r *http.Request, t *reqTrace, root int) {
	if !m.admit(w, r, m.queryGate, t, root) {
		return
	}
	var req struct {
		Profile []serve.ProfileEntry `json:"profile"`
	}
	if !decode(w, r, &req, t, root) {
		return
	}
	prefs, err := parse(req.Profile, t, root)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()}, t, root)
		return
	}
	sp := t.start("combine.canonicalize", root)
	canon, _ := combine.CanonicalProfile(prefs)
	t.end(sp)
	sp = t.start("serve.session", root)
	m.sessMu.Lock()
	m.sessions[r.PathValue("id")] = canon
	m.sessMu.Unlock()
	t.end(sp)
	writeJSON(w, http.StatusOK, map[string]int{"prefs": len(canon)}, t, root)
}

func (m *mirror) mutate(w http.ResponseWriter, r *http.Request, t *reqTrace, root int) {
	if !m.admit(w, r, m.mutateGate, t, root) {
		return
	}
	var req struct {
		Ops []workload.Op `json:"ops"`
	}
	if !decode(w, r, &req, t, root) {
		return
	}
	// As in serve: apply and sync under one lock, so the answer implies
	// the caches are repaired.
	m.syncMu.Lock()
	applied := 0
	var err error
	for _, op := range req.Ops {
		sp := t.start("relstore.op_commit", root)
		err = op.Do(m.db)
		t.end(sp)
		if err != nil {
			break
		}
		applied++
	}
	sp := t.start("delta.sync", root)
	stats, syncErr := m.maint.Sync()
	t.end(sp)
	m.syncMu.Unlock()
	if err == nil {
		err = syncErr
	}
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()}, t, root)
		return
	}
	m.ledgerMu.Lock()
	m.syncs = append(m.syncs, stats)
	m.ledgerMu.Unlock()
	writeJSON(w, http.StatusOK, mutateResponse{Applied: applied, TouchedRows: stats.TouchedRows, FullRebuild: stats.FullRebuild}, t, root)
}

// writeJSON encodes an answer inside an http.encode span.
func writeJSON(w http.ResponseWriter, status int, v any, t *reqTrace, root int) {
	sp := t.start("http.encode", root)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v) // the client going away is the client's failure
	t.end(sp)
}
