package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"dnstrust/internal/dnswire"
)

// tiny is a run small enough for a unit test.
func tiny(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: 7, duration: 300 * time.Millisecond, trace: trace,
		workdir: t.TempDir(), setupReps: 1, names: 400, ops: 10, batch: 4, replay: 200}
}

// runTiny runs cfg and returns its exit code and parsed result line.
func runTiny(t *testing.T, cfg config) (int, result, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(context.Background(), cfg, &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v\nstdout:\n%s\nstderr:\n%s", cfg.workload, err, out.String(), errOut.String())
	}
	return code, res, out.String()
}

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestEveryMetricPrinted runs a tiny pass of every workload in
// BENCHMARK.json, untraced and traced, and requires each metric the
// file names to be printed with the file's unit.
func TestEveryMetricPrinted(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) == 0 || len(bf.EndToEnd) == 0 || len(bf.PerLayer) == 0 {
		t.Fatalf("BENCHMARK.json lists no workloads or metrics: %s", raw)
	}
	for _, w := range bf.Workloads {
		for _, trace := range []bool{false, true} {
			code, res, out := runTiny(t, tiny(t, w.Name, trace))
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: exit %d, result %+v\n%s", w.Name, trace, code, res, out)
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s printed as %+v (present %v), want unit %s", w.Name, trace, m.Name, got, ok, m.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, key := range []string{"provenance", `"gomaxprocs"`, `"seed":7`, "samples"} {
				if !strings.Contains(out, key) {
					t.Errorf("%s trace=%v: output lacks %s", w.Name, trace, key)
				}
			}
			if trace && !strings.Contains(out, "tracing overhead") {
				t.Errorf("%s: traced output lacks the tracing-overhead line", w.Name)
			}
		}
	}
}

// refusedAsNoError answers NOERROR where the proxy refuses.
type refusedAsNoError struct{ inner handler }

func (h refusedAsNoError) ServeDNS(ctx context.Context, req *dnswire.Message) *dnswire.Message {
	resp := h.inner.ServeDNS(ctx, req)
	if resp.RCode == dnswire.RCodeRefused {
		resp.RCode = dnswire.RCodeSuccess
	}
	return resp
}

// refusalsDropped sends no reply where the proxy refuses.
type refusalsDropped struct{ inner handler }

func (h refusalsDropped) ServeDNS(ctx context.Context, req *dnswire.Message) *dnswire.Message {
	if resp := h.inner.ServeDNS(ctx, req); resp.RCode != dnswire.RCodeRefused {
		return resp
	}
	return nil
}

// TestFaultsReportFailure seeds faults into the serving paths; each
// must turn the run into a reported failure with no metrics.
func TestFaultsReportFailure(t *testing.T) {
	wrong := tiny(t, "serve", false)
	wrong.wrapHandler = func(h handler) handler { return refusedAsNoError{h} }
	lost := tiny(t, "serve", false)
	lost.wrapHandler = func(h handler) handler { return refusalsDropped{h} }
	commit := tiny(t, "commit", false)
	commit.dropName = true
	for _, cfg := range []config{wrong, lost, commit} {
		code, res, out := runTiny(t, cfg)
		if code != 1 || res.Correct || res.Failed == 0 || len(res.Metrics) != 0 {
			t.Errorf("%s with a seeded fault: exit %d, result %+v\n%s", cfg.workload, code, res, out)
		}
	}
}

// TestHistogramQuantile checks the serve loop's histogram against exact
// quantiles of the same samples: within the bucket resolution (1/128).
func TestHistogramQuantile(t *testing.T) {
	var exact samples
	h := &histogram{}
	for i := 1; i <= 100000; i++ {
		d := time.Duration(i*i%7919+1) * 37 * time.Nanosecond
		exact = append(exact, d)
		h.add(d)
	}
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999} {
		want, got := exact.quantile(q), h.quantile(q)
		if diff := float64(got-want) / float64(want); diff > 1.0/128 || diff < -1.0/128 {
			t.Errorf("p%g: histogram %v, exact %v", q*100, got, want)
		}
	}
	if h.count() != len(exact) {
		t.Errorf("count %d, want %d", h.count(), len(exact))
	}
}
