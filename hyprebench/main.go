// Command hyprebench is the HYPRE benchmark. It builds the system from its
// packages' public constructors, drives one seeded workload, checks every
// answer it can, and prints one JSON result line as the last line of its
// standard output:
//
//	go run . --workload serve-hot --seed 1 --seconds 35 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 a
// traced run of the same workload reports the per-layer metrics and writes
// its spans under --out. Workloads: serve-hot, serve-cold, serve-mixed and
// peps-batch (see workloads below). A wrong answer, an unknown workload or
// a missing metric exits non-zero.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// params sizes one workload run.
type params struct {
	papers       int           // generated papers (the base table's rows)
	sessions     int           // stored sessions (probe sessions for serve-cold, peps-batch)
	clients      int           // concurrent callers, capped at nproc
	procs        int           // GOMAXPROCS of the run, capped at nproc
	warm         int           // warm-up users, disjoint from the measured ones
	queryRate    float64       // serve-mixed offered session queries/s
	mutateRate   float64       // serve-mixed offered mutate batches/s
	probeHits    time.Duration // how long the probe sends session hits
	probeBatches int           // mutate batches in the probe
	verify       int           // answers checked against an uncached evaluation
	setups       int           // set-ups per run; setup_s is their median
	traceCap     int           // requests the traced phase keeps spans for
	seconds      time.Duration // measured time of the main phase
}

// planBatches sizes the mutation plan with room for Poisson overshoot.
func (p params) planBatches() int {
	return int(p.mutateRate*p.seconds.Seconds()*3) + p.probeBatches + 16
}

// workloads are the benchmark's inputs. Sizes were chosen so the
// structures under test come into play: 131,072 papers span two 64k-id
// bitset spans and 128 zone-map blocks. The probes after the read phases
// (hits on a fresh App, then sequential 8-op mutate batches) give the
// closed-loop workloads the hit and mutate metrics.
//
// The closed loops run one caller on one P. On small shared virtual
// machines two threads are not reliably two cores: in some stretches
// two-thread throughput halves while one-thread work keeps its pace, so
// one P, measuring what one core does, stays comparable from run to run.
var workloads = map[string]params{
	// Every request is a cache hit: HTTP, admission, session, canonicalize
	// and cache-lookup layers only.
	"serve-hot": {papers: 16384, sessions: 48, clients: 1, procs: 1, probeBatches: 9000, verify: 48, setups: 3, traceCap: 20000},
	// Every request is a never-seen inline profile: parse, canonicalize and
	// a full streaming evaluation; the cache never hits. BENCHMARK.json
	// does not gate it: on a shared 2-CPU virtual machine the streaming
	// evaluation's speed drifts with the neighbours over minutes (the same
	// evaluations in one process ran 1.6 to 2.3 times faster in some
	// stretches while PEPS on the same data held within 2%), and ten seeds
	// spread by 0.12 to 0.3, past the largest allowed bound. Compare
	// engine changes on it with alternating runs of both sides.
	"serve-cold": {papers: 131072, sessions: 8, clients: 1, procs: 1, warm: 8, probeHits: 6 * time.Second, probeBatches: 9000, verify: 16, setups: 3, traceCap: 2000},
	// Open-loop Poisson session queries beside 8-op mutate batches, both
	// admission gates on at twice the offered rates, using about a fifth of
	// two CPUs. It runs on two Ps: on one, a hit arriving during a miss
	// evaluation waits out the whole evaluation, and the tail measures the
	// Go scheduler rather than the server. BENCHMARK.json does not gate it:
	// its in-phase mutate latencies rest on about 175 batches per 35 s run
	// and, like its query tails, spread by 0.15 to 0.3 across seeds. It
	// stays runnable by name for studying hits queueing behind
	// re-evaluation misses.
	"serve-mixed": {papers: 16384, sessions: 48, clients: 2, procs: 2, queryRate: 200, mutateRate: 5, verify: 16, setups: 3, traceCap: 20000},
	// The paper's algorithm: pair table + PEPS per distinct user.
	"peps-batch": {papers: 131072, sessions: 4, clients: 1, procs: 1, warm: 8, probeHits: 6 * time.Second, probeBatches: 9000, verify: 16, setups: 3, traceCap: 2000},
}

// report is one run's outcome.
type report struct {
	metrics  map[string]float64
	attempt  int
	failed   int
	wrong    int
	problems []string // failed invariant checks
	record   map[string]any
	spans    []span
}

// tally adds drives' samples to the ledger.
func (r *report) tally(drives ...drive) {
	for _, d := range drives {
		for _, s := range d.samples {
			r.attempt++
			if s.failed {
				r.failed++
			}
			if s.wrong {
				r.wrong++
			}
		}
	}
}

// options are a run's inputs beyond the workload's params.
type options struct {
	seed  int64
	trace bool
	// wrap, when set, wraps the App's handler (tests inject delays).
	wrap func(http.Handler) http.Handler
}

// run executes one workload.
func run(name string, p params, o options) (*report, error) {
	p.clients = max(1, min(p.clients, runtime.NumCPU()))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(1, min(p.procs, runtime.NumCPU()))))
	var rep *report
	var err error
	switch name {
	case "serve-hot":
		rep, err = runServe(serveHot, p, o)
	case "serve-cold":
		rep, err = runServe(serveCold, p, o)
	case "serve-mixed":
		rep, err = runServe(serveMixed, p, o)
	case "peps-batch":
		rep, err = runPeps(p, o)
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if err != nil {
		return nil, err
	}
	rep.record["workload"] = name
	rep.record["seed"] = o.seed
	rep.record["trace"] = o.trace
	rep.record["nproc"] = runtime.NumCPU()
	rep.record["gomaxprocs"] = runtime.GOMAXPROCS(0)
	rep.record["go"] = runtime.Version()
	rep.record["papers"] = p.papers
	rep.record["clients"] = p.clients
	rep.record["attempted"] = rep.attempt
	rep.record["failed"] = rep.failed
	rep.record["wrong"] = rep.wrong
	rep.record["problems"] = rep.problems
	return rep, nil
}

// segment is one set-up of an untraced run and what was measured on it.
// An untraced run sets its workload up p.setups times from scratch and
// measures a 1/p.setups share of the phase and of the probes on each, so
// every figure averages over several memory placements of the data and
// over stretches of machine time apart from each other; one long phase on
// one set-up moves with whichever of both it happened to get.
type segment struct {
	setup  float64       // seconds from nothing to the first timed request
	heapMB float64       // live heap after set-up
	main   drive         // the workload's own traffic
	cpu    time.Duration // process CPU time spent during main
	probes []drive       // hit and mutate probes, post-traffic checks
}

// share is p cut to one segment's share of the measured work.
func (p params) share() params {
	n := time.Duration(p.setups)
	p.seconds /= n
	p.probeHits /= n
	p.probeBatches = (p.probeBatches + p.setups - 1) / p.setups
	p.verify = (p.verify + p.setups - 1) / p.setups
	return p
}

// joinMains joins the segments' main phases into one drive.
func joinMains(segs []segment) drive {
	var d drive
	for _, g := range segs {
		d.samples = append(d.samples, g.main.samples...)
		d.wall += g.main.wall
	}
	return d
}

// endToEndMetrics derives the user-visible metrics from an untraced run's
// segments: traffic metrics over the segments' main phases together, hit
// and mutate latencies over every drive, probes included.
func endToEndMetrics(rep *report, segs []segment) {
	main := joinMains(segs)
	var all []drive
	var setups, heaps []float64
	var cpu time.Duration
	var series []int
	for _, g := range segs {
		all = append(append(all, g.main), g.probes...)
		setups = append(setups, g.setup)
		heaps = append(heaps, g.heapMB)
		cpu += g.cpu
		series = append(series, perSecond(g.main.of(kindQuery))...)
	}
	rep.tally(all...)
	queries := main.of(kindQuery)
	ok := 0
	for _, s := range queries {
		if !s.failed {
			ok++
		}
	}
	worst := ms(main.wall)
	q := quantiles(latenciesMs(queries, nil), 0.5, 0.99)
	var hits, muts []sample
	for _, d := range all {
		for _, s := range d.samples {
			switch {
			case s.kind == kindQuery && s.hit:
				hits = append(hits, s)
			case s.kind == kindMutate:
				muts = append(muts, s)
			}
		}
	}
	mq := quantiles(latenciesMs(muts, nil), 0.5, 0.9)
	rep.metrics = map[string]float64{
		"setup_s":       median(setups),
		"heap_mb":       heaps[0], // later set-ups share the heap with earlier segments' ledgers
		"query_ops_s":   float64(ok) / main.wall.Seconds(),
		"query_p50_ms":  finite(q[0], worst),
		"query_p99_ms":  finite(q[1], worst),
		"hit_p99_ms":    quantiles(latenciesMs(hits, nil), 0.99)[0],
		"mutate_p50_ms": finite(mq[0], worst),
		"mutate_p90_ms": finite(mq[1], worst),
		"ok_frac":       1 - frac(float64(rep.failed), float64(rep.attempt)),
	}
	rep.record["setup_s_each"] = setups
	rep.record["heap_mb_each"] = heaps
	rep.record["cpu_util"] = frac(float64(cpu), float64(main.wall)*float64(runtime.NumCPU()))
	rep.record["samples"] = map[string]int{"query": len(queries), "hit": len(hits), "mutate": len(muts)}
	rep.record["generator_late_p99_ms"] = lateP99Ms(main.samples)
	rep.record["queries_per_second_series"] = series
	shape := func(ss []sample) []float64 {
		return quantiles(latenciesMs(ss, nil), 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99)
	}
	rep.record["latency_p10_p25_p50_p75_p90_p95_p99_ms"] = map[string][]float64{
		"query": shape(queries), "hit": shape(hits), "mutate": shape(muts),
	}
	late := make([]float64, len(main.samples))
	for i, s := range main.samples {
		late[i] = ms(s.late())
	}
	rep.record["late_p10_p25_p50_p75_p90_p95_p99_ms"] = quantiles(late, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99)
}

// perSecond counts completed requests in each second of a phase, to show
// whether the phase ran at a steady state.
func perSecond(ss []sample) []int {
	var out []int
	for _, s := range ss {
		sec := int(s.done / time.Second)
		for len(out) <= sec {
			out = append(out, 0)
		}
		out[sec]++
	}
	return out
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints the result line for the trace mode's metric list and returns
// an error if a metric is missing or an answer was wrong.
func emit(w io.Writer, rep *report, trace bool) error {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	res := result{
		Correct:   rep.wrong == 0 && len(rep.problems) == 0,
		Attempted: rep.attempt,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	var missing []string
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		return fmt.Errorf("missing metrics %v", missing)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	fmt.Fprintln(w, string(b))
	switch {
	case rep.attempt == 0:
		return errors.New("no request was attempted")
	case !res.Correct:
		return fmt.Errorf("%d wrong answers, failed checks %v", rep.wrong, rep.problems)
	}
	return nil
}

// writeRecord stores the run record (and the spans of a traced run) under
// dir and echoes the record to stderr.
func writeRecord(dir string, rep *report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(dir, fmt.Sprintf("%v-seed%v-trace%v", rep.record["workload"], rep.record["seed"], rep.record["trace"]))
	b, err := json.MarshalIndent(rep.record, "", "  ")
	if err != nil {
		return fmt.Errorf("encode record: %w", err)
	}
	fmt.Fprintf(os.Stderr, "hyprebench record: %s\n", b)
	if err := os.WriteFile(stem+".record.json", b, 0o644); err != nil {
		return err
	}
	if rep.spans != nil {
		return writeSpans(stem+".spans.jsonl", rep.spans)
	}
	return nil
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 35, "measured seconds of the main phase")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		out     = flag.String("out", ".bench_build/hyprebench", "directory for run records and span files")
	)
	flag.Parse()
	p, ok := workloads[*name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		slices.Sort(names)
		fmt.Fprintf(os.Stderr, "hyprebench: unknown workload %q (have %v)\n", *name, names)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "hyprebench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	p.seconds = time.Duration(*seconds) * time.Second
	rep, err := run(*name, p, options{seed: *seed, trace: *trace == 1})
	if err != nil {
		fmt.Fprintf(os.Stderr, "hyprebench: %v\n", err)
		os.Exit(1)
	}
	if err := writeRecord(*out, rep); err != nil {
		fmt.Fprintf(os.Stderr, "hyprebench: %v\n", err)
		os.Exit(1)
	}
	if err := emit(os.Stdout, rep, *trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "hyprebench: %v\n", err)
		os.Exit(1)
	}
}
