package starss

// This file keeps the single-maestro resolver as a measurable baseline, the
// same way internal/nexus1 and internal/softrts model the systems the paper
// compares against. A maestro runtime is a *Runtime that differs in one
// respect only: every Check Deps and every Handle Finished runs on a single
// resolver goroutine over one bank — the software serialization bottleneck
// the paper's SSI motivation describes and the sharded runtime removes.
// Admission, window accounting, handles, workers, the executor, Scope,
// WaitOn and the event stream are the sharded runtime's, so benchmarks
// that compare the two measure the resolver alone. New code should use
// New; use NewMaestro only to measure against it (nexusbench exp shards,
// BenchmarkShardScalability).

// finished is one task-finished event on its way to the maestro: the node
// and the worker that ran it.
type finished struct {
	node   *taskNode
	worker int
}

// NewMaestro starts the single-maestro baseline: a runtime with one bank
// whose dependence resolution all runs on one goroutine. cfg.Shards is
// ignored.
func NewMaestro(cfg Config) *Runtime {
	cfg.Shards = 1
	return start(cfg, true)
}

// startMaestro creates the resolver's channels and starts it; start calls
// it before the workers exist, so every worker sees doneCh set.
func (rt *Runtime) startMaestro() {
	rt.newCh = make(chan *taskNode)
	// One slot per worker: each has at most one finished task to hand over.
	rt.doneCh = make(chan finished, rt.cfg.Workers)
	rt.maestroDone = make(chan struct{})
	go rt.maestro()
}

// maestro is the software Task Maestro: it runs Check Deps for every
// admitted task, in the order admission sends them, and Handle Finished for
// every finished one, so the finish-side accounting (counters, handle
// completion, window release, barriers, WaitOn wake-ups) is serialized on
// it. It records its events on the external lane, because each worker lane
// must have its worker as sole emitter. It never waits on subMu or on a
// submitter (its readyCh sends fit the window-sized buffer), so admission
// may send on newCh under subMu. A nil node is fenceMaestro's marker and
// is skipped. It exits when Close closes newCh.
func (rt *Runtime) maestro() {
	defer close(rt.maestroDone)
	for {
		select {
		case node, ok := <-rt.newCh:
			switch {
			case !ok:
				return
			case node != nil:
				rt.resolveNew(node)
			}
		case f := <-rt.doneCh:
			rt.resolveFinished(f.node, -1, f.worker)
		}
	}
}

// fenceMaestro returns once the resolver goroutine of a maestro runtime
// has run Check Deps for every task whose Submit returned before the call,
// so a probe of the segments that follows sees those tasks; it is a no-op
// on the sharded runtime, which resolves in the submitter. It sends a nil
// marker on newCh: the channel is unbuffered and the goroutine drains it in
// order, so it takes the marker only after resolving every node sent
// before it. Like admission it sends under subMu and only while the
// runtime runs, because Close closes newCh after stopped; it reports false
// when the runtime is stopped.
func (rt *Runtime) fenceMaestro() bool {
	if rt.newCh == nil {
		return true
	}
	rt.subMu.RLock()
	defer rt.subMu.RUnlock()
	select {
	case <-rt.stopped:
		return false
	default:
	}
	rt.newCh <- nil
	return true
}

// stopMaestro stops the resolver goroutine of a maestro runtime; it is a
// no-op on the sharded runtime. Close calls it once the runtime is idle,
// admission is fenced off and the workers have exited, so neither channel
// has a sender left and doneCh is empty.
func (rt *Runtime) stopMaestro() {
	if rt.newCh == nil {
		return
	}
	close(rt.newCh)
	<-rt.maestroDone
}
