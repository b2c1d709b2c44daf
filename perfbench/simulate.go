package main

import (
	"context"
	"fmt"
	"time"

	"nexuspp/internal/core"
	"nexuspp/internal/depgraph"
	"nexuspp/internal/sim"
	"nexuspp/internal/trace"
	"nexuspp/internal/workload"
)

// The sim_gaussian point: Gaussian elimination n=500 on the default
// Nexus++ configuration with 64 worker cores, one point of Figure 8.
// Its outcome is pinned: a change that alters what the model computes
// fails the benchmark's output check.
const (
	simN        = 500
	simWorkers  = 64
	simTasks    = 125249
	simMakespan = sim.Time(5_760_552_500) // ps
)

type simBench struct {
	tr   *trace.Trace
	g    *depgraph.Graph
	an   depgraph.Analysis
	last *core.Result
}

// setupSim collects the trace and builds its oracle, so the timed runs
// cover only the simulator and the Nexus++ model.
func setupSim() (bench, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	tr := workload.Collect(workload.Gaussian(workload.GaussianConfig{N: simN}))
	st.gen = time.Since(t0)
	t1 := time.Now()
	g := depgraph.Build(workload.FromTrace(tr))
	an := g.Analyze()
	st.build = time.Since(t1)
	return &simBench{tr: tr, g: g, an: an}, st, nil
}

func (b *simBench) close() error { return nil }

func (b *simBench) exact() map[string]float64 {
	m := map[string]float64{
		"oracle.tasks":            float64(b.g.NumTasks()),
		"oracle.edges":            float64(b.g.NumEdges()),
		"oracle.critical_path_ps": float64(b.an.CriticalPath),
	}
	if r := b.last; r != nil {
		m["core.makespan_ps"] = float64(r.Makespan)
		m["sim.events_per_task"] = float64(r.Events) / float64(r.TasksExecuted)
		m["core.dummy_tds"] = float64(r.DummyTDs)
		m["core.max_dt_chain"] = float64(r.MaxDTChain)
	}
	return m
}

// measure simulates the point repeatedly until d has passed.
func (b *simBench) measure(_ context.Context, d time.Duration, rec *recorder) phase {
	ph := phase{allocLayer: "sim"}
	var runMs []float64
	var host time.Duration
	var events uint64
	deadline := time.Now().Add(d)
	for id := int64(0); time.Now().Before(deadline); id++ {
		ph.ops++
		start := time.Now()
		res, err := core.Run(core.DefaultConfig(simWorkers), workload.FromTrace(b.tr))
		end := time.Now()
		rec.add("core.Run", start, end, -1, id)
		if err != nil || res.TasksExecuted != simTasks || res.Makespan != simMakespan {
			ph.failed++
			if err == nil {
				err = fmt.Errorf("executed %d tasks in %d ps, want %d in %d ps",
					res.TasksExecuted, res.Makespan, simTasks, simMakespan)
			}
			ph.notes = append(ph.notes, fmt.Sprintf("run %d: %v", id, err))
			continue
		}
		b.last = res
		host += end.Sub(start)
		runMs = append(runMs, ms(end.Sub(start)))
		ph.tasks += int(res.TasksExecuted)
		events += res.Events
	}
	if len(runMs) == 0 {
		return ph
	}
	ph.tasksPerS = float64(ph.tasks) / host.Seconds()
	ph.p50 = median(runMs)
	// Too few runs fit for a percentile with ten runs beyond it; the
	// upper quartile is steadier than the slowest run.
	ph.high = quantile(runMs, 0.75)
	ph.highLabel = fmt.Sprintf("upper quartile of %d runs", len(runMs))
	ph.layer = map[string]float64{
		"sim.run_ms":       ph.p50,
		"sim.ns_per_event": float64(host) / float64(events),
	}
	return ph
}
