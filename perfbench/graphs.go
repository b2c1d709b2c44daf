package main

import (
	"context"
	"fmt"
	"time"

	"nexuspp/internal/depgraph"
	"nexuspp/internal/sim"
	"nexuspp/internal/starss"
	"nexuspp/internal/workload"
)

// submitChunk is how many tasks one SubmitAll call admits, the default
// batch of the runtime's trace replay.
const submitChunk = 256

// grainMean is the mean body time of grain_randdag: long enough that the
// bodies, not the resolver, use most of the CPU.
const grainMean = 50 * sim.Microsecond

// graphBench repeatedly runs one task graph on the executing runtime:
// resolve_gaussian with empty bodies, grain_randdag with busy ones.
type graphBench struct {
	nproc  int
	g      *depgraph.Graph
	an     depgraph.Analysis
	tasks  []starss.Task // untraced bodies
	traced []starss.Task // bodies that stamp into st
	st     *stamps
	rt     *starss.Runtime
}

// stamps holds the body start and end times of the graph being run, in
// recorder nanoseconds. Each body writes only its own slots; the graph's
// Wait orders those writes before the reads.
type stamps struct {
	rec        *recorder
	start, end []int64
}

func setupResolve(nproc int) (bench, setupTimes, error) {
	return setupGraph(workload.Gaussian(workload.GaussianConfig{N: 250}), false, nproc)
}

func setupGrain(seed uint64, nproc int) (bench, setupTimes, error) {
	return setupGraph(workload.RandomDAG(workload.RandomDAGConfig{
		Tasks: 4096, FanIn: 3, Window: 64, Seed: seed, ExecMean: grainMean,
	}), true, nproc)
}

func setupGraph(src workload.Source, spin bool, nproc int) (bench, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	tr := workload.Collect(src)
	st.gen = time.Since(t0)
	t1 := time.Now()
	g := depgraph.Build(workload.FromTrace(tr))
	an := g.Analyze()
	st.build = time.Since(t1)
	if g.NumTasks() != len(tr.Tasks) {
		return nil, st, fmt.Errorf("oracle has %d tasks, trace %d", g.NumTasks(), len(tr.Tasks))
	}
	b := &graphBench{nproc: nproc, g: g, an: an,
		st: &stamps{start: make([]int64, len(tr.Tasks)), end: make([]int64, len(tr.Tasks))}}
	b.tasks = make([]starss.Task, len(tr.Tasks))
	b.traced = make([]starss.Task, len(tr.Tasks))
	for i, spec := range tr.Tasks {
		// The replay adapter maps the parameter list onto dependencies;
		// its zero-cost body is the empty body resolve_gaussian runs.
		t := starss.TaskFromSpec(spec, starss.ReplayOptions{ZeroCost: true})
		d := time.Duration(0)
		if spin {
			d = time.Duration(spec.Exec / sim.Nanosecond)
			t.Do = func(context.Context) error { busy(d); return nil }
		}
		b.tasks[i] = t
		t.Do = b.st.body(i, d)
		b.traced[i] = t
	}
	b.rt = starss.New(starss.Config{Workers: nproc})
	return b, st, nil
}

// busy spins for d: a body that holds its worker, unlike a sleep.
func busy(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

func (s *stamps) body(i int, d time.Duration) func(context.Context) error {
	return func(context.Context) error {
		start := s.rec.at(time.Now())
		if d > 0 {
			busy(d)
		}
		s.start[i], s.end[i] = start, s.rec.at(time.Now())
		return nil
	}
}

func (b *graphBench) exact() map[string]float64 {
	return map[string]float64{
		"oracle.tasks":            float64(b.g.NumTasks()),
		"oracle.edges":            float64(b.g.NumEdges()),
		"oracle.critical_path_ps": float64(b.an.CriticalPath),
	}
}

func (b *graphBench) close() error { return b.rt.Close() }

// measure submits the whole graph in submitChunk-task SubmitAll calls,
// waits for it, and repeats until d has passed. Traced, it runs on a fresh
// runtime with bank counters, stamps every body, validates each graph's
// body intervals against the oracle and derives the dispatch lags.
func (b *graphBench) measure(ctx context.Context, d time.Duration, rec *recorder) phase {
	n := len(b.tasks)
	rt, tasks := b.rt, b.tasks
	if rec != nil {
		rt = starss.New(starss.Config{Workers: b.nproc, BankCounters: true})
		defer rt.Close()
		tasks = b.traced
		b.st.rec = rec
	}
	ph := phase{allocLayer: "starss", layer: map[string]float64{}}
	chunkRet := make([]int64, (n+submitChunk-1)/submitChunk)
	ivs := make([]depgraph.Interval, n)
	var graphMs, drainMs []float64
	var lags []float32
	var wall, submit, bodies time.Duration
	first := rt.Stats()
	deadline := time.Now().Add(d)
	for id := int64(0); time.Now().Before(deadline); id++ {
		ph.ops++
		if rec != nil {
			clear(b.st.start)
			clear(b.st.end)
		}
		before := rt.Stats()
		gStart := time.Now()
		var children []span
		var err error
		for c := 0; c*submitChunk < n && err == nil; c++ {
			cs := time.Now()
			_, err = rt.SubmitAll(ctx, tasks[c*submitChunk:min(n, (c+1)*submitChunk)])
			ce := time.Now()
			submit += ce.Sub(cs)
			if rec != nil {
				chunkRet[c] = rec.at(ce)
				children = append(children, span{name: "starss.SubmitAll", start: rec.at(cs), end: rec.at(ce), id: id})
			}
		}
		ws := time.Now()
		if werr := rt.Wait(ctx); err == nil {
			err = werr
		}
		gEnd := time.Now()
		wall += gEnd.Sub(gStart)
		graphMs = append(graphMs, ms(gEnd.Sub(gStart)))
		drainMs = append(drainMs, ms(gEnd.Sub(ws)))
		delta := statsDiff(before, rt.Stats())
		if err != nil || delta.Executed != uint64(n) || delta.Failed != 0 || delta.Skipped != 0 {
			ph.failed++
			ph.notes = append(ph.notes, fmt.Sprintf("graph %d: err %v, stats %v", id, err, delta))
			continue
		}
		ph.tasks += n
		if rec == nil {
			continue
		}
		root := rec.add("graph", gStart, gEnd, -1, id)
		for _, c := range children {
			rec.addNS(c.name, c.start, c.end, root, id)
		}
		rec.add("starss.Wait", ws, gEnd, root, id)
		for i := range ivs {
			ivs[i] = depgraph.Interval{Start: sim.Time(b.st.start[i]) * sim.Nanosecond, End: sim.Time(b.st.end[i]) * sim.Nanosecond}
			bodies += time.Duration(b.st.end[i] - b.st.start[i])
		}
		if err := b.g.ValidateSchedule(ivs); err != nil {
			ph.failed++
			ph.notes = append(ph.notes, fmt.Sprintf("graph %d: %v", id, err))
		}
		lags = dispatchLags(lags, b.g, b.st, chunkRet)
		if id == 0 {
			for i := range b.st.start {
				rec.addNS("body", b.st.start[i], b.st.end[i], root, id)
			}
		}
	}
	if ph.ops > 0 {
		ph.tasksPerS = float64(ph.tasks) / wall.Seconds()
		ph.p50 = median(graphMs)
		var used float64
		ph.high, used = tail(graphMs, 90)
		ph.highLabel = fmt.Sprintf("p%g of %d graphs", used, len(graphMs))
	}
	if rec == nil || ph.tasks == 0 {
		return ph
	}
	total := statsDiff(first, rt.Stats())
	eff := efficiency(bodies, b.nproc, wall)
	lagUS := make([]float64, len(lags))
	for i, l := range lags {
		lagUS[i] = float64(l)
	}
	lag99, _ := tail(lagUS, 99)
	ph.layer = map[string]float64{
		"starss.submit_ns_per_task":  float64(submit) / float64(ph.tasks),
		"starss.drain_ms":            median(drainMs),
		"starss.dispatch_lag_us.p50": median(lagUS),
		"starss.dispatch_lag_us.p99": lag99,
		"starss.efficiency":          eff,
		"starss.idle_frac":           1 - eff,
		"starss.hazard_frac":         float64(total.Hazards) / float64(total.Submitted),
		"starss.bank_contended_frac": float64(total.BankContended) / float64(max(1, total.BankAcquisitions)),
	}
	ph.notes = append(ph.notes, fmt.Sprintf("efficiency %.4f over %d graphs, critical path %v, %d edges",
		eff, len(graphMs), b.an.CriticalPath, b.g.NumEdges()))
	return ph
}

// dispatchLags appends, for every task of the graph just run, how long its
// body started after it could have: after both the return of the SubmitAll
// call that admitted it and the end of its latest predecessor's body. A
// body that started while its SubmitAll call was still running counts 0.
func dispatchLags(lags []float32, g *depgraph.Graph, st *stamps, chunkRet []int64) []float32 {
	for i := range st.start {
		ready := chunkRet[i/submitChunk]
		for _, p := range g.Preds(i) {
			ready = max(ready, st.end[p])
		}
		lags = append(lags, float32(max(0, st.start[i]-ready))/1e3)
	}
	return lags
}

// statsDiff is the change of the runtime's monotonic counters.
func statsDiff(a, b starss.Stats) starss.Stats {
	return starss.Stats{
		Submitted:        b.Submitted - a.Submitted,
		Executed:         b.Executed - a.Executed,
		Failed:           b.Failed - a.Failed,
		Skipped:          b.Skipped - a.Skipped,
		Hazards:          b.Hazards - a.Hazards,
		BankAcquisitions: b.BankAcquisitions - a.BankAcquisitions,
		BankContended:    b.BankContended - a.BankContended,
	}
}
