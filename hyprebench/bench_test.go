package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// tiny shrinks a workload to test scale, keeping every check on.
func tiny(name string) params {
	p := workloads[name]
	p.papers = 2048
	p.sessions = min(p.sessions, 8)
	p.warm = min(p.warm, 4)
	p.probeHits = min(p.probeHits, 100*time.Millisecond)
	p.probeBatches = 10
	p.verify = 4
	p.setups = 2
	p.traceCap = 300
	p.seconds = time.Second
	return p
}

func TestTinyRunOfEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range []string{"serve-hot", "serve-cold", "serve-mixed", "peps-batch"} {
		for _, trace := range []bool{false, true} {
			t.Run(name+map[bool]string{false: "/untraced", true: "/traced"}[trace], func(t *testing.T) {
				rep, err := run(name, tiny(name), options{seed: 5, trace: trace})
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				if err := emit(&out, rep, trace); err != nil {
					t.Fatalf("%v (record %v)", err, rep.record)
				}
				var res result
				if err := json.Unmarshal(bytes.TrimSpace(out.Bytes()), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Fatalf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				if !trace {
					for _, d := range defs {
						if res.Metrics[d.name].Value <= 0 {
							t.Errorf("%s = %v, end-to-end metrics are never 0", d.name, res.Metrics[d.name].Value)
						}
					}
					return
				}
				if c := res.Metrics["trace.coverage"].Value; c < coverageMin || c > coverageMax {
					t.Errorf("trace.coverage %v out of bounds", c)
				}
				if len(rep.spans) == 0 {
					t.Error("a traced run recorded no spans")
				}
			})
		}
	}
}

// A fixed delay injected around App.Handler() must move serve-hot's
// query_p50_ms by about that delay: the benchmark times what the handler
// does, not something beside it.
func TestInjectedHandlerDelayMovesHotP50(t *testing.T) {
	if testing.Short() {
		t.Skip("runs serve-hot twice")
	}
	const delay = 5 * time.Millisecond
	p := tiny("serve-hot")
	p.setups = 1
	p.probeBatches = 1
	base, err := run("serve-hot", p, options{seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := run("serve-hot", p, options{seed: 2, wrap: func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/query" {
				time.Sleep(delay)
			}
			h.ServeHTTP(w, r)
		})
	}})
	if err != nil {
		t.Fatal(err)
	}
	moved := slow.metrics["query_p50_ms"] - base.metrics["query_p50_ms"]
	if want := ms(delay); moved < want*0.9 || moved > want*1.5 {
		t.Fatalf("a %v handler delay moved query_p50_ms by %.3fms", delay, moved)
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	if _, err := run("serve-lukewarm", tiny("serve-hot"), options{seed: 1}); err == nil {
		t.Fatal("an unknown workload ran")
	}
}

// BENCHMARK.json and the code name the same workloads and metrics.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command   []string `json:"command"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit string
			Bound      float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	// serve-cold and serve-mixed are runnable by name but not gated (see
	// workloads).
	var gated []string
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not a workload of the code", w.Name)
		}
		gated = append(gated, w.Name)
	}
	if want := []string{"serve-hot", "peps-batch"}; !slices.Equal(gated, want) {
		t.Errorf("BENCHMARK.json gates %v, want %v", gated, want)
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in code", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end[%d] = %+v, code has %+v", i, m, endToEnd[i])
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in code", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %+v, code has %+v", i, m, perLayer[i])
		}
	}
	if !strings.HasSuffix(strings.Join(spec.Command, " "), "hyprebench/run.sh") {
		t.Errorf("command %v does not run hyprebench/run.sh", spec.Command)
	}
}
