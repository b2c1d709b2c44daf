package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"nexuspp/internal/depgraph"
	"nexuspp/internal/trace"
	"nexuspp/internal/workload"
)

func TestHighestValidPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 90}, {100, 90}, {99, 50}, {20, 50}, {19, 0}, {0, 0},
	} {
		if got := highestValidPercentile(c.n); got != c.want {
			t.Errorf("highestValidPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestTailFallsBackToValidPercentile(t *testing.T) {
	xs := make([]float64, 150)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	// 150 samples: a p99 would have 1.5 beyond it, so p90 is reported.
	v, used := tail(append([]float64(nil), xs...), 99)
	if used != 90 || v != 135 {
		t.Errorf("tail(150 samples, 99) = %g at p%g, want 135 at p90", v, used)
	}
	if v, used := tail(xs[:10], 90); used != 0 || !math.IsNaN(v) {
		t.Errorf("tail(10 samples) = %g at p%g, want NaN at p0", v, used)
	}
	if got := median([]float64{5, 1, 3, 2}); got != 2 {
		t.Errorf("median = %g, want nearest-rank 2", got)
	}
}

func TestEfficiency(t *testing.T) {
	if got := efficiency(150*time.Millisecond, 2, 100*time.Millisecond); got != 0.75 {
		t.Errorf("efficiency = %g, want 0.75", got)
	}
	if got := efficiency(time.Second, 0, time.Second); got != 0 {
		t.Errorf("efficiency with no workers = %g, want 0", got)
	}
}

func TestMetricNames(t *testing.T) {
	for _, ok := range []string{"setup_s", "latency_ms.p50", "starss.dispatch_lag_us.p99", "9-a_b.c"} {
		if err := validMetricName(ok); err != nil {
			t.Errorf("%q rejected: %v", ok, err)
		}
	}
	for _, bad := range []string{"", ".p50", "_x", "a b", "lat/ms", "a\n", string(make([]byte, 65))} {
		if validMetricName(bad) == nil {
			t.Errorf("%q accepted", bad)
		}
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if err := validMetricName(m.name); err != nil || seen[m.name] {
			t.Errorf("metric %q invalid or duplicated: %v", m.name, err)
		}
		seen[m.name] = true
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric tables the
// program prints from in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: json %q %q, program %q %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("json has %d/%d metrics, program %d/%d", len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range spec.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end %d: json %+v, program %+v", i, m, d)
		}
	}
	for i, m := range spec.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer %d: json %+v, program %+v", i, m, d)
		}
	}
}

// TestOpenLoopCountsStall sends on a schedule to a server that stalls its
// first request while only one connection is allowed: the requests due
// during the stall queue behind it, and their latency, taken from when
// they were due, must include that wait, while the generator itself keeps
// to its schedule.
func TestOpenLoopCountsStall(t *testing.T) {
	const stall = 300 * time.Millisecond
	var once sync.Once
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		once.Do(func() { time.Sleep(stall) })
	}))
	defer srv.Close()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	send := func(ctx context.Context, k int, s *sample) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
		if err == nil {
			var resp *http.Response
			if resp, err = client.Do(req); err == nil {
				resp.Body.Close()
			}
		}
		s.err = err
	}
	const rate = 100.0 // per second: a call every 10ms, 50 in all
	samples := openLoop(context.Background(), rate, 500*time.Millisecond, send)
	if len(samples) != 50 {
		t.Fatalf("%d samples, want 50", len(samples))
	}
	for k, s := range samples {
		if s.err != nil {
			t.Fatalf("call %d: %v", k, s.err)
		}
		if s.late > 100*time.Millisecond {
			t.Errorf("call %d issued %v late: the generator waited on the stalled call", k, s.late)
		}
		// Every call due before the stall ended completes only after it.
		if s.due < stall && s.due+s.latency < stall {
			t.Errorf("call %d due at %v finished at %v, before the stall ended", k, s.due, s.due+s.latency)
		}
	}
	if got := backlog(samples, 150*time.Millisecond); got < 10 {
		t.Errorf("backlog at 150ms = %d calls, want the ~15 queued behind the stall", got)
	}
}

func TestDispatchLags(t *testing.T) {
	// A chain 0 -> 1 -> 2 in one SubmitAll chunk that returned at 10.
	tr := &trace.Trace{Name: "chain", Tasks: []trace.TaskSpec{
		{ID: 0, Params: []trace.Param{{Addr: 1, Size: 8, Mode: trace.Out}}, Exec: 1},
		{ID: 1, Params: []trace.Param{{Addr: 1, Size: 8, Mode: trace.InOut}}, Exec: 1},
		{ID: 2, Params: []trace.Param{{Addr: 1, Size: 8, Mode: trace.In}}, Exec: 1},
	}}
	g := depgraph.Build(workload.FromTrace(tr))
	st := &stamps{start: []int64{5, 30, 45}, end: []int64{20, 40, 50}}
	lags := dispatchLags(nil, g, st, []int64{10})
	// Task 0 started before its SubmitAll returned (0); task 1 became
	// ready when task 0 ended at 20 (10ns); task 2 at 40 (5ns).
	want := []float32{0, 0.01, 0.005}
	for i := range want {
		if math.Abs(float64(lags[i]-want[i])) > 1e-9 {
			t.Errorf("lag %d = %gus, want %gus", i, lags[i], want[i])
		}
	}
}

func TestLanesNestOrSeparate(t *testing.T) {
	spans := []span{
		{name: "graph", start: 0, end: 100, parent: -1},
		{name: "a", start: 10, end: 50, parent: 0},
		{name: "b", start: 20, end: 60, parent: 0}, // overlaps a without nesting
		{name: "c", start: 60, end: 90, parent: 0},
		{name: "d", start: 30, end: 40, parent: 1},
	}
	rows := lanes(spans)
	for i := range spans {
		for j := range spans {
			if i == j || rows[i] != rows[j] {
				continue
			}
			a, b := spans[i], spans[j]
			nested := (a.start <= b.start && b.end <= a.end) || (b.start <= a.start && a.end <= b.end)
			disjoint := a.end <= b.start || b.end <= a.start
			if !nested && !disjoint {
				t.Errorf("spans %s and %s share row %d but overlap", a.name, b.name, rows[i])
			}
		}
	}
	if rows[1] != rows[0] || rows[3] != rows[0] || rows[4] != rows[1] {
		t.Errorf("rows %v: children that fit should stay on their parent's row", rows)
	}
}
