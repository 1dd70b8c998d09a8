package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Parent is the ID of the span that
// caused it (-1 for a root); spans of one request share Req.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Req    int64         `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps a traced run's spans in memory until the run ends. A nil
// recorder records nothing, so the untraced path pays only nil checks.
type recorder struct {
	t0    time.Time
	reqID atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// nextReq allocates a request id.
func (r *recorder) nextReq() int64 {
	if r == nil {
		return 0
	}
	return r.reqID.Add(1)
}

// reqTrace gathers one request's spans locally and hands them to the
// recorder in one locked append when the request ends.
type reqTrace struct {
	rec   *recorder
	req   int64
	spans []span
}

// begin starts collecting spans for request req (nil when r is nil).
func (r *recorder) begin(req int64) *reqTrace {
	if r == nil {
		return nil
	}
	return &reqTrace{rec: r, req: req}
}

// start opens a span under parent (a local index from start, or -1).
func (t *reqTrace) start(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: t.req, Name: name, Start: time.Since(t.rec.t0)})
	return len(t.spans) - 1
}

// end closes span i.
func (t *reqTrace) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = time.Since(t.rec.t0)
}

// dur is span i's duration (0 without a trace).
func (t *reqTrace) dur(i int) time.Duration {
	if t == nil {
		return 0
	}
	return t.spans[i].dur()
}

// rename relabels span i once its outcome is known.
func (t *reqTrace) rename(i int, name string) {
	if t == nil {
		return
	}
	t.spans[i].Name = name
}

// flush moves the request's spans into the recorder with global ids.
func (t *reqTrace) flush() {
	if t == nil {
		return
	}
	r := t.rec
	r.mu.Lock()
	base := len(r.spans)
	for _, s := range t.spans {
		s.ID += base
		if s.Parent >= 0 {
			s.Parent += base
		}
		r.spans = append(r.spans, s)
	}
	r.mu.Unlock()
}

// linked returns the recorded spans with each server-side request root
// attached to the client span of the same request id, so a request's
// spans form one tree from the client's send to its last child.
func (r *recorder) linked() []span {
	r.mu.Lock()
	spans := slices.Clone(r.spans)
	r.mu.Unlock()
	client := make(map[int64]int)
	for _, s := range spans {
		if s.Name == "client.request" {
			client[s.Req] = s.ID
		}
	}
	for i, s := range spans {
		if s.Name == "serve.request" && s.Parent < 0 {
			if id, ok := client[s.Req]; ok {
				spans[i].Parent = id
			}
		}
	}
	return spans
}

// layerStat summarizes one span name: its count, duration quantiles and
// self time (duration minus the time its child spans cover).
type layerStat struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	P50Us   float64 `json:"p50_us"`
	P99Us   float64 `json:"p99_us"`
	SelfP50 float64 `json:"self_p50_us"`
	SelfSum float64 `json:"self_total_ms"`
}

// analysis is what the per-layer metrics read from a span set.
type analysis struct {
	durs     map[string][]float64 // microseconds by span name
	stats    []layerStat
	coverage float64 // Σ child time / Σ root time over the request roots
}

// analyze computes durations, self times and coverage. root names the
// server-side request span whose children must tile it.
func analyze(spans []span, root string) analysis {
	child := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	a := analysis{durs: make(map[string][]float64)}
	self := make(map[string][]float64)
	var rootSum, childSum time.Duration
	for i, s := range spans {
		a.durs[s.Name] = append(a.durs[s.Name], us(s.dur()))
		self[s.Name] = append(self[s.Name], us(s.dur()-child[i]))
		if s.Name == root {
			rootSum += s.dur()
			childSum += child[i]
		}
	}
	a.coverage = frac(float64(childSum), float64(rootSum))
	names := make([]string, 0, len(a.durs))
	for n := range a.durs {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		q := quantiles(a.durs[n], 0.5, 0.99)
		total := 0.0
		for _, x := range self[n] {
			total += x
		}
		a.stats = append(a.stats, layerStat{Name: n, Count: len(a.durs[n]), P50Us: q[0], P99Us: q[1],
			SelfP50: median(self[n]), SelfSum: total / 1000})
	}
	return a
}

// p is the q-quantile of a span name's durations in microseconds (0 when
// the layer never ran in this workload).
func (a analysis) p(name string, q float64) float64 { return quantiles(a.durs[name], q)[0] }

// coverage bounds: a request root's children must account for most of it
// (the rest is routing glue between layer calls) and never exceed it.
const (
	coverageMin = 0.9
	coverageMax = 1.0 + 1e-9
)

// writeSpans writes one span per line as JSON.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
