package main

import (
	"runtime"
	rtm "runtime/metrics"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit. The lists below are
// the benchmark's contract: BENCHMARK.json declares the same names, and a
// run that misses one fails.
type metricDef struct{ name, unit string }

// endToEnd metrics are what a user of the server or the library sees; the
// untraced run prints them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"query_ops_s", "1/s"},
	{"query_p50_ms", "ms"},
	{"query_p99_ms", "ms"},
	{"hit_p99_ms", "ms"},
	{"mutate_p50_ms", "ms"},
	{"mutate_p90_ms", "ms"},
	{"ok_frac", "frac"},
}

// perLayer metrics come from the traced run. A layer the workload never
// calls reports 0 and is listed under idle_layers in the run record.
var perLayer = []metricDef{
	{"serve.handler_us", "us"},
	{"http.transport_us", "us"},
	{"combine.canonicalize_us", "us"},
	{"cache.hit_us", "us"},
	{"runtime.gc_cpu_frac", "frac"},
	{"runtime.alloc_bytes_per_query", "B"},
	{"hypre.parse_us", "us"},
	{"cache.miss_ms", "ms"},
	{"topk.eval_ms", "ms"},
	{"cache.miss_overhead_ms", "ms"},
	{"topk.blocks_scanned_frac", "frac"},
	{"topk.rows_seen", "count"},
	{"topk.early_exit_frac", "frac"},
	{"cache.footprint_scans_per_miss", "count"},
	{"admit.wait_p50_us", "us"},
	{"admit.wait_p99_us", "us"},
	{"admit.queued_frac", "frac"},
	{"admit.shed_frac", "frac"},
	{"cache.hit_frac", "frac"},
	{"cache.invalidated_per_mutate", "count"},
	{"cache.shared_waits", "count"},
	{"cache.stale_bypasses", "count"},
	{"relstore.op_commit_us", "us"},
	{"relstore.ops_per_group_commit", "count"},
	{"delta.sync_p50_ms", "ms"},
	{"delta.sync_p90_ms", "ms"},
	{"delta.touched_rows", "count"},
	{"delta.changed_preds", "count"},
	{"delta.full_rebuilds", "count"},
	{"combine.pair_build_ms", "ms"},
	{"combine.peps_ms", "ms"},
	{"combine.anchors_used", "count"},
	{"combine.combos_expanded", "count"},
	{"workload.generate_s", "s"},
	{"workload.extract_s", "s"},
	{"hypre.graph_build_s", "s"},
	{"trace.coverage", "frac"},
	{"trace.overhead_frac", "frac"},
	{"driver.late_p99_ms", "ms"},
}

// runtimeStats is a reading of the Go runtime's own counters.
type runtimeStats struct {
	gcCPU, totalCPU, allocBytes float64
}

func readRuntime() runtimeStats {
	s := []rtm.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	rtm.Read(s)
	return runtimeStats{gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64(), allocBytes: float64(s[2].Value.Uint64())}
}

// liveHeapMB forces a collection and reads the live heap it left.
func liveHeapMB() float64 {
	runtime.GC()
	s := []rtm.Sample{{Name: "/gc/heap/live:bytes"}}
	rtm.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // the record then shows no CPU use; nothing depends on it
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
