// Command perfbench is the end-to-end benchmark of the three serving
// paths: the dnstrustd UDP proxy (workload serve), the dnsmonitord
// commit path (workload commit) and the dnsfleetd merge round
// (workload fleet). Each workload assembles the daemon's path in
// process from the same public calls the daemon makes, drives it for a
// fixed time, checks every output, and prints one JSON result as its
// last line of standard output. With -trace 1 it also wraps the calls
// into each layer in spans and prints the per-layer metrics instead.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload serve|commit|fleet --seed N --seconds S --trace 0|1
//
// See perfbench/README.md for the load models and metric definitions.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"
)

// worldSeed generates the synthetic Internet every workload runs
// against. It is fixed so that the traffic mix (the share of names the
// policy refuses, the depth of their delegation chains) does not change
// with -seed; -seed draws the queries, the held-back names and the
// batch order within that world.
const worldSeed = 1

// metricDef names one printed metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics every untraced run prints. An "op" is one
// UDP query on serve, one commit on commit and one fleet round on fleet.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics every traced run prints. A layer a
// workload does not call reads 0 there; README.md names the workload
// each metric is measured on.
var perLayer = []metricDef{
	{"dnsserver.overhead_us", "us"},
	{"dnswire.unpack_ns", "ns"},
	{"dnswire.pack_ns", "ns"},
	{"dnswire.allocs_per_query", "count"},
	{"proxy.serve_refuse_ns", "ns"},
	{"proxy.serve_resolve_ns", "ns"},
	{"proxy.allocs_refuse", "count"},
	{"proxy.allocs_resolve", "count"},
	{"proxy.refused_share", "ratio"},
	{"verdict.lookup_ns", "ns"},
	{"verdict.hit_ratio", "ratio"},
	{"verdict.advance_ms", "ms"},
	{"verdict.evicted_per_commit", "count"},
	{"verdict.miss_us", "us"},
	{"resolver.resolve_ns", "ns"},
	{"resolver.allocs_per_resolve", "count"},
	{"transport.queries_per_resolve", "count"},
	{"transport.query_ns", "ns"},
	{"transport.queries_per_added_name", "count"},
	{"crawler.walk_ms", "ms"},
	{"crawler.memo_hit_ratio", "ratio"},
	{"core.finish_ms", "ms"},
	{"core.bytes_per_name", "B"},
	{"dnstrust.add_ms", "ms"},
	{"dnstrust.add_self_ms", "ms"},
	{"dnstrust.tcb_us", "us"},
	{"analysis.bottleneck_us", "us"},
	{"analysis.summary_ms", "ms"},
	{"snapshot.write_ms", "ms"},
	{"snapshot.bytes", "B"},
	{"snapshot.read_ms", "ms"},
	{"fleet.fetch_ms", "ms"},
	{"fleet.decode_ms", "ms"},
	{"fleet.union_ms", "ms"},
	{"fleet.bytes_per_round", "B"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_per_kop", "count"},
}

// layerMetrics holds per-layer values by metric name.
type layerMetrics map[string]float64

// config is one run's settings. The size fields default per workload
// (see defaults); tests shrink them.
type config struct {
	workload  string
	seed      int64
	duration  time.Duration
	trace     bool
	workdir   string
	setupReps int

	names  int // corpus size of the generated world
	ops    int // commits or fleet rounds per run, unless time runs out first
	batch  int // names per commit or per fleet round
	replay int // serve: queries replayed in process by the traced run

	// Seeded faults, set only by tests: wrapHandler replaces the
	// handler the UDP server runs, dropName makes the commit writer
	// leave one name out of every batch it hands to Add.
	wrapHandler func(handler) handler
	dropName    bool
}

// defaults fills the workload sizes left zero.
func (c *config) defaults() {
	if c.setupReps == 0 {
		c.setupReps = 3
	}
	switch c.workload {
	case "serve":
		c.names = orDefault(c.names, 5000)
		c.replay = orDefault(c.replay, 6000)
	case "commit":
		c.names = orDefault(c.names, 3500)
		c.ops = orDefault(c.ops, 300)
		c.batch = orDefault(c.batch, 5)
	case "fleet":
		c.names = orDefault(c.names, 2400)
		c.ops = orDefault(c.ops, 150)
		c.batch = orDefault(c.batch, 6)
	}
}

func orDefault(v, def int) int {
	if v != 0 {
		return v
	}
	return def
}

// report is what one workload run measured.
type report struct {
	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string

	setup   samples
	e2e     map[string]float64
	counts  map[string]int // sample count behind each timing metric
	layer   layerMetrics
	notes   []string // extra lines of the traced report
	tr      *tracer
	spansAt string
}

func newReport(trace bool) *report {
	r := &report{e2e: map[string]float64{}, counts: map[string]int{}, layer: layerMetrics{}}
	if trace {
		r.tr = newTracer()
	}
	return r
}

// ok counts one operation whose outputs passed every check.
func (r *report) ok() {
	r.mu.Lock()
	r.attempted++
	r.mu.Unlock()
}

// fail counts one failed operation and keeps its first few reasons.
func (r *report) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// finish sets the metrics every workload reports the same way.
func (r *report) finish(ops int, elapsed, cpu time.Duration, lat distribution) {
	r.e2e["setup_s"] = r.setup.median().Seconds()
	r.counts["setup_s"] = len(r.setup)
	if elapsed > 0 {
		r.e2e["throughput_ops_per_s"] = float64(ops) / elapsed.Seconds()
	}
	n := lat.count()
	r.e2e["latency_p50_ms"] = ms(lat.quantile(0.5))
	r.e2e["latency_p90_ms"] = ms(lat.quantile(0.90))
	r.counts["latency_p50_ms"], r.counts["latency_p90_ms"] = n, n
	// The bounded tail is p90, the steadiest tail on a shared 2-vCPU
	// host; higher quantiles are printed when ten samples lie beyond.
	for _, q := range []float64{0.99, 0.999} {
		if float64(n)*(1-q) >= 10 {
			r.note("latency p%g: %.4f ms over %d ops", q*100, ms(lat.quantile(q)), n)
		}
	}
	if ops > 0 {
		r.e2e["cpu_ms_per_op"] = ms(cpu) / float64(ops)
	}
	r.counts["cpu_ms_per_op"] = ops
	r.e2e["peak_rss_mb"] = peakRSSMB()
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	var cfg config
	var secs float64
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "serve, commit or fleet")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: draws queries, held-back names and batch order")
	flag.Float64Var(&secs, "seconds", 10, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for snapshots and span files")
	flag.Parse()
	cfg.duration = time.Duration(secs * float64(time.Second))
	cfg.trace = trace == 1
	os.Exit(run(context.Background(), cfg, os.Stdout, os.Stderr))
}

// run executes one workload, prints its report and the result line to
// stdout, and returns the exit code: 0 when every check passed, 1 when
// an output check failed, 2 when the run could not be set up.
func run(ctx context.Context, cfg config, stdout, stderr io.Writer) int {
	cfg.defaults()
	var fn func(context.Context, config, *report) error
	switch cfg.workload {
	case "serve":
		fn = runServe
	case "commit":
		fn = runCommit
	case "fleet":
		fn = runFleet
	default:
		fmt.Fprintf(stderr, "perfbench: unknown -workload %q (want serve, commit or fleet)\n", cfg.workload)
		return 2
	}
	if cfg.duration <= 0 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive")
		return 2
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	rep := newReport(cfg.trace)
	if err := fn(ctx, cfg, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 2
	}
	if cfg.trace {
		path := filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
		n, err := rep.tr.save(path)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 2
		}
		rep.spansAt = fmt.Sprintf("%d spans written to %s", n, path)
	}
	return printResult(cfg, rep, stdout)
}

func printResult(cfg config, rep *report, w io.Writer) int {
	defs, values := endToEnd, map[string]float64(rep.e2e)
	if cfg.trace {
		defs, values = perLayer, rep.layer
	}
	fmt.Fprintf(w, "workload %s, seed %d, %s timed, trace %v\n", cfg.workload, cfg.seed, cfg.duration, cfg.trace)
	for _, d := range endToEnd {
		n := ""
		if c, ok := rep.counts[d.name]; ok {
			n = fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Fprintf(w, "  %-34s %14.4f %s%s\n", d.name, rep.e2e[d.name], d.unit, n)
	}
	if cfg.trace {
		fmt.Fprintln(w, "per-layer metrics:")
		for _, d := range perLayer {
			fmt.Fprintf(w, "  %-34s %14.4f %s\n", d.name, rep.layer[d.name], d.unit)
		}
		fmt.Fprintln(w, "self time by span:")
		rep.tr.writeTable(w)
		fmt.Fprintln(w, rep.spansAt)
	}
	for _, n := range rep.notes {
		fmt.Fprintln(w, n)
	}
	for _, f := range rep.failures {
		fmt.Fprintf(w, "FAILED: %s\n", f)
	}
	prov, _ := json.Marshal(provenance(cfg, rep))
	fmt.Fprintf(w, "provenance %s\n", prov)

	res := result{Correct: rep.failed == 0 && rep.attempted > 0, Attempted: rep.attempted,
		Failed: rep.failed, Metrics: map[string]metricOut{}}
	if res.Correct {
		for _, d := range defs {
			res.Metrics[d.name] = metricOut{Value: values[d.name], Unit: d.unit}
		}
	}
	line, _ := json.Marshal(res)
	fmt.Fprintln(w, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func provenance(cfg config, rep *report) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					commit += "+modified"
				}
			}
		}
	}
	keys := make([]string, 0, len(rep.counts))
	for k := range rep.counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	counts := make([]string, len(keys))
	for i, k := range keys {
		counts[i] = fmt.Sprintf("%s=%d", k, rep.counts[k])
	}
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"commit":     commit,
		"names":      cfg.names,
		"ops":        cfg.ops,
		"batch":      cfg.batch,
		"samples":    strings.Join(counts, " "),
	}
}
