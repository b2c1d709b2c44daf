// Command perfbench is the repository benchmark. One run measures one
// workload for a fixed time, checks every output against the dependency
// oracle or pinned values, and prints its metrics as the last line of
// standard output:
//
//	perfbench --workload resolve_gaussian --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, measured untraced. With
// --trace 1 it measures the workload untraced and then traced, prints the
// per-layer metrics and the tracing overhead, and writes the benchmark's
// spans as a Chrome trace under --out. See README.md for the workloads and
// the metric map; run.sh builds and runs it from the repository root.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// heldOutSeed is never used while tuning a change; a claimed gain must
// also hold on it.
const heldOutSeed = 7919

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median.
const setupRepeats = 5

type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: allowed worsening, as a share of the median
}

// endToEnd are the metrics every --trace 0 run prints, on every workload.
// README.md gives what each one measures on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"tasks_per_s", "1/s", "higher", 0.25},
	{"latency_ms.p50", "ms", "lower", 0.25},
	{"latency_ms.high", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer are the metrics every --trace 1 run prints. A layer the
// workload does not exercise reads 0.
var perLayer = []metricDef{
	{"starss.submit_ns_per_task", "ns", "lower", 0},
	{"starss.drain_ms", "ms", "lower", 0},
	{"starss.dispatch_lag_us.p50", "us", "lower", 0},
	{"starss.dispatch_lag_us.p99", "us", "lower", 0},
	{"starss.idle_frac", "ratio", "lower", 0},
	{"starss.efficiency", "ratio", "higher", 0},
	{"starss.allocs_per_task", "count", "lower", 0},
	{"starss.bytes_per_task", "B", "lower", 0},
	{"starss.bank_contended_frac", "ratio", "lower", 0},
	{"starss.hazard_frac", "ratio", "lower", 0},
	{"gc.cycles_per_graph", "count", "lower", 0},
	{"gc.pause_ms", "ms", "lower", 0},
	{"service.submit_ms.p50", "ms", "lower", 0},
	{"service.submit_ms.p99", "ms", "lower", 0},
	{"service.await_ms.p50", "ms", "lower", 0},
	{"service.await_ms.p99", "ms", "lower", 0},
	{"service.refused_frac", "ratio", "lower", 0},
	{"service.wire_bytes_per_task", "B", "lower", 0},
	{"service.gen_late_ms.p99", "ms", "lower", 0},
	{"service.batch_ms_p50.lo", "ms", "lower", 0},
	{"service.batch_ms_p99.lo", "ms", "lower", 0},
	{"service.batch_ms_p50.hi", "ms", "lower", 0},
	{"service.batch_ms_p99.hi", "ms", "lower", 0},
	{"service.max_ok_rate", "1/s", "higher", 0},
	{"sim.run_ms", "ms", "lower", 0},
	{"sim.ns_per_event", "ns", "lower", 0},
	{"sim.events_per_task", "count", "lower", 0},
	{"sim.allocs_per_task", "count", "lower", 0},
	{"workload.gen_ms", "ms", "lower", 0},
	{"depgraph.build_ms", "ms", "lower", 0},
	{"core.makespan_ps", "ps", "lower", 0},
	{"core.dummy_tds", "count", "lower", 0},
	{"core.max_dt_chain", "count", "lower", 0},
	{"oracle.tasks", "count", "lower", 0},
	{"oracle.edges", "count", "lower", 0},
	{"oracle.critical_path_ps", "ps", "lower", 0},
	{"trace_overhead.tasks_per_s", "1/s", "higher", 0},
	{"trace_overhead.latency_ms.p50", "ms", "lower", 0},
	{"trace_overhead.latency_ms.high", "ms", "lower", 0},
}

// phase is what one timed measurement of a workload produced.
type phase struct {
	ops, failed int     // operations attempted; failed operations and output checks
	tasks       int     // tasks completed, the base of the per-task ratios
	tasksPerS   float64 // tasks_per_s
	p50, high   float64 // latency_ms.p50 and latency_ms.high
	highLabel   string  // what high is, over how many samples
	allocLayer  string  // prefix of the allocs/bytes-per-task metrics, "" for none
	layer       map[string]float64
	notes       []string
}

// bench is a workload after set-up.
type bench interface {
	// measure runs the workload for d. rec is nil in the untraced mode.
	measure(ctx context.Context, d time.Duration, rec *recorder) phase
	// exact returns the pinned counts of the workload.
	exact() map[string]float64
	close() error
}

// setupTimes are the parts of a set-up reported per layer.
type setupTimes struct{ gen, build time.Duration }

type workloadDef struct {
	name, why string
	setup     func(seed uint64, nproc int) (bench, setupTimes, error)
}

var workloads = []workloadDef{
	{"resolve_gaussian", "Gaussian elimination n=250 with empty bodies: admission, bank resolution and dispatch in the runtime",
		func(_ uint64, nproc int) (bench, setupTimes, error) { return setupResolve(nproc) }},
	{"grain_randdag", "seeded random DAG with ~50us busy bodies: efficiency and load balance at real grain",
		setupGrain},
	{"service_open", "HTTP batches from one client: open loop at two fixed rates, a closed loop and a rate ladder; wire, admission and scope layers",
		setupService},
	{"sim_gaussian", "Nexus++ model on Gaussian n=500 at 64 cores: simulator speed",
		func(_ uint64, _ int) (bench, setupTimes, error) { return setupSim() }},
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 15, "measured time per phase, in seconds")
	traced := flag.Int("trace", 0, "1 for the traced run with per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the Chrome trace")
	flag.Parse()
	i := slices.IndexFunc(workloads, func(w workloadDef) bool { return w.name == *name })
	if i < 0 || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		names := make([]string, len(workloads))
		for j, w := range workloads {
			names[j] = w.name
		}
		fmt.Fprintf(os.Stderr, "perfbench: need --workload {%s}, --seconds > 0 and --trace 0|1\n", strings.Join(names, "|"))
		return 2
	}
	def := workloads[i]
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	fmt.Printf("workload %s seed %d held-out-seed %d nproc %d gomaxprocs %d workers %d seconds %g trace %d\n",
		def.name, *seed, heldOutSeed, nproc, runtime.GOMAXPROCS(0), nproc, *seconds, *traced)

	b, setupS, st, err := setUp(def, *seed, nproc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: set-up: %v\n", err)
		return 1
	}
	ctx := context.Background()
	d := time.Duration(*seconds * float64(time.Second))

	// A short untimed warm-up lets lazy initialisation, heap growth and
	// connection set-up finish before the timed phases.
	warm := b.measure(ctx, d/10, nil)
	untraced := measure(ctx, b, d, nil)
	exact := b.exact()
	attempted, failed := warm.ops+untraced.ops, warm.failed+untraced.failed
	metrics := map[string]float64{}
	if *traced == 0 {
		metrics["setup_s"] = setupS
		metrics["tasks_per_s"] = untraced.tasksPerS
		metrics["latency_ms.p50"] = untraced.p50
		metrics["latency_ms.high"] = untraced.high
		metrics["peak_rss_mb"] = peakRSSMB()
		printPhase("untraced", untraced)
	} else {
		rec := newRecorder()
		tr := measure(ctx, b, d, rec)
		attempted += tr.ops
		failed += tr.failed
		printPhase("untraced", untraced)
		printPhase("traced", tr)
		for _, m := range perLayer {
			metrics[m.name] = 0
		}
		for k, v := range tr.layer {
			metrics[k] = v
		}
		for _, k := range memKeys {
			if v, ok := untraced.layer[k]; ok {
				metrics[k] = v // allocation and GC counts without the recorder's own
			}
		}
		for k, v := range exact {
			metrics[k] = v
		}
		metrics["workload.gen_ms"] = ms(st.gen)
		metrics["depgraph.build_ms"] = ms(st.build)
		metrics["trace_overhead.tasks_per_s"] = tr.tasksPerS - untraced.tasksPerS
		metrics["trace_overhead.latency_ms.p50"] = tr.p50 - untraced.p50
		metrics["trace_overhead.latency_ms.high"] = tr.high - untraced.high
		path := filepath.Join(*out, fmt.Sprintf("trace-%s-seed%d.json", def.name, *seed))
		if err := saveChrome(path, rec.spans); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			failed++
		} else {
			fmt.Printf("chrome trace: %s (%d spans)\n", path, len(rec.spans))
		}
		printLayerTable(metrics)
	}
	if err := b.close(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: close: %v\n", err)
		failed++
	}
	exactJSON, _ := json.Marshal(exact)
	fmt.Printf("exact %s\n", exactJSON)
	defs := endToEnd
	if *traced == 1 {
		defs = perLayer
	}
	res, bad := result(defs, metrics)
	failed += bad
	if attempted < 1 {
		attempted, failed = 1, failed+1
	}
	line, err := json.Marshal(map[string]any{
		"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": res,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if failed > 0 {
		return 1
	}
	return 0
}

// setUp sets the workload up setupRepeats times, keeps the last and
// returns the median set-up time in seconds and the median set-up parts.
func setUp(def workloadDef, seed uint64, nproc int) (bench, float64, setupTimes, error) {
	var total, gen, build []float64
	var b bench
	for i := 0; i < setupRepeats; i++ {
		if b != nil {
			if err := b.close(); err != nil {
				return nil, 0, setupTimes{}, err
			}
			runtime.GC() // so the discarded set-up does not count in peak_rss_mb
		}
		start := time.Now()
		nb, st, err := def.setup(seed, nproc)
		if err != nil {
			return nil, 0, setupTimes{}, err
		}
		b = nb
		total = append(total, time.Since(start).Seconds())
		gen = append(gen, float64(st.gen))
		build = append(build, float64(st.build))
	}
	return b, median(total), setupTimes{time.Duration(median(gen)), time.Duration(median(build))}, nil
}

// memKeys are the per-layer metrics a trace run takes from its untraced
// phase, so the recorder's allocations do not count.
var memKeys = []string{"gc.cycles_per_graph", "gc.pause_ms",
	"starss.allocs_per_task", "starss.bytes_per_task", "sim.allocs_per_task"}

// measure runs one phase and adds the allocation and GC deltas around it.
func measure(ctx context.Context, b bench, d time.Duration, rec *recorder) phase {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ph := b.measure(ctx, d, rec)
	runtime.ReadMemStats(&after)
	if ph.layer == nil {
		ph.layer = map[string]float64{}
	}
	if ph.ops > 0 {
		ph.layer["gc.cycles_per_graph"] = float64(after.NumGC-before.NumGC) / float64(ph.ops)
		ph.layer["gc.pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6 / float64(ph.ops)
	}
	if ph.tasks > 0 && ph.allocLayer != "" {
		ph.layer[ph.allocLayer+".allocs_per_task"] = float64(after.Mallocs-before.Mallocs) / float64(ph.tasks)
		if ph.allocLayer == "starss" {
			ph.layer["starss.bytes_per_task"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(ph.tasks)
		}
	}
	return ph
}

// result checks metrics against defs: exactly the listed names, each a
// valid name with a finite value. It returns the output map and the
// number of problems found.
func result(defs []metricDef, metrics map[string]float64) (map[string]any, int) {
	out := make(map[string]any, len(defs))
	bad := 0
	for _, m := range defs {
		v, ok := metrics[m.name]
		if err := validMetricName(m.name); err != nil || !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s missing or not finite (%v)\n", m.name, v)
			bad++
			v = 0
		}
		out[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	return out, bad
}

func printPhase(label string, ph phase) {
	fmt.Printf("%s: ops %d failed %d tasks %d tasks_per_s %.6g latency_ms.p50 %.6g latency_ms.high %.6g (%s)\n",
		label, ph.ops, ph.failed, ph.tasks, ph.tasksPerS, ph.p50, ph.high, ph.highLabel)
	for _, n := range ph.notes {
		fmt.Printf("%s: %s\n", label, n)
	}
}

func printLayerTable(metrics map[string]float64) {
	keys := make([]string, 0, len(metrics))
	for k := range metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	unit := map[string]string{}
	for _, m := range perLayer {
		unit[m.name] = m.unit
	}
	fmt.Println("per-layer metrics:")
	for _, k := range keys {
		fmt.Printf("  %-34s %16.6g %s\n", k, metrics[k], unit[k])
	}
}

func saveChrome(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("chrome trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("chrome trace: %w", err)
	}
	if err := writeChrome(f, spans); err != nil {
		f.Close()
		return fmt.Errorf("chrome trace %s: %w", path, err)
	}
	return f.Close()
}

// peakRSSMB is the process's peak resident set size in megabytes.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}
