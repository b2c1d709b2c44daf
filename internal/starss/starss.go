// Package starss is a real, executing StarSs-style task-dataflow runtime
// for Go whose scheduler is the Nexus++ dependency-resolution algorithm.
//
// Tasks are Go closures annotated with the data they read and write
// (In/Out/InOut dependencies on user-chosen keys, the analogue of the
// paper's base addresses). The runtime discovers RAW dependencies and
// enforces WAR/WAW hazards without renaming — exactly the semantics of the
// paper's Dependence Table: concurrent readers share a segment, a writer
// waits for all previous readers ("a writer waits" flag), and waiters queue
// in per-segment kick-off lists released by the handle-finished path.
//
// Every submission returns a *Handle — the software analogue of the task ID
// Nexus++ assigns in hardware and tracks from Check Deps through Handle
// Finished. A handle exposes the task's completion channel, its final error,
// and its resolved name and submission index. Task bodies are
// context-aware functions that may fail: a task that returns an error,
// panics, or is cancelled poisons its transitive dependents — they are
// skipped (never run), their handles report ErrDependencyFailed wrapping the
// root cause, and the kick-off lists still drain, so a failure never wedges
// the in-flight window.
//
// Dependency state is sharded into lock-striped banks hashed by key — the
// software analogue of the multiple Dependence Table banks of the Nexus++
// hardware — so independent keys resolve concurrently on both the Submit
// and the handle-finished path instead of funnelling through a single
// resolver goroutine. Multi-key tasks acquire their banks in sorted index
// order, which keeps the runtime deadlock-free. SubmitAll admits a batch of
// tasks under one bank acquisition, amortising the locking.
//
// Per-worker double buffering is provided through the optional
// Task.Prefetch hook: while a worker executes one task, its controller
// goroutine prefetches the next task's inputs, mirroring the paper's Task
// Controllers (Get Inputs overlapping Run Task).
//
// The paper's conclusion notes that parts of Nexus++ "can be reused for
// other programming models"; this package is that reuse, in library form.
package starss

import (
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nexuspp/internal/faults"
	"nexuspp/internal/obs"
	"nexuspp/internal/segtab"
)

// Mode is a dependency direction.
type Mode uint8

const (
	// ModeIn marks data the task only reads.
	ModeIn Mode = iota
	// ModeOut marks data the task only writes.
	ModeOut
	// ModeInOut marks data the task reads and writes.
	ModeInOut
)

// String returns the pragma spelling of the mode.
func (m Mode) String() string {
	switch m {
	case ModeIn:
		return "in"
	case ModeOut:
		return "out"
	case ModeInOut:
		return "inout"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// Key identifies a piece of data. Keys are compared with ==; any comparable
// value works (strings, ints, pointers, small structs). A task with a key
// that is not comparable (a slice, a map, a func) is rejected at Submit.
type Key = any

// Dep declares one data access of a task.
type Dep struct {
	Key  Key
	Mode Mode
}

// In declares a read-only dependency.
func In(k Key) Dep { return Dep{Key: k, Mode: ModeIn} }

// Out declares a write-only dependency.
func Out(k Key) Dep { return Dep{Key: k, Mode: ModeOut} }

// InOut declares a read-write dependency.
func InOut(k Key) Dep { return Dep{Key: k, Mode: ModeInOut} }

// Task is a unit of work with declared dependencies.
type Task struct {
	// Name is optional and used in diagnostics and Handle.Name.
	Name string
	// Deps declares the data the task accesses. Duplicate keys are merged
	// (read + write on the same key becomes inout).
	Deps []Dep
	// Do executes the task. The context is the one the task was submitted
	// with; bodies should honour its cancellation. A non-nil error marks
	// the task failed and poisons its transitive dependents. Required.
	Do func(ctx context.Context) error
	// Prefetch, when set, runs on the worker's controller before the task
	// body may start, overlapping the previous task's execution (double
	// buffering). It must only touch the task's declared In/InOut data.
	// It does not run for skipped or cancelled tasks.
	Prefetch func()
	// WriteBack, when set, runs after a successful task body on the worker
	// (the Put Outputs phase). The task's outputs are only visible to
	// dependents after it. It does not run when the body fails.
	WriteBack func()
	// MaxRetries re-arms a failed attempt (body error, panic, or Timeout
	// overrun) up to this many extra times before the failure sticks and
	// poisons dependents. The re-arm happens on the worker before the
	// handle-finished path runs, so a recovered task never taints its
	// dependents. A dead submission context is final and never retried.
	MaxRetries int
	// RetryBackoff is the base delay between attempts; backoff grows
	// exponentially per attempt with full jitter, capped by
	// RetryMaxBackoff. 0 selects 1ms.
	RetryBackoff time.Duration
	// RetryMaxBackoff caps the per-attempt backoff. 0 selects 250ms.
	RetryMaxBackoff time.Duration
	// Timeout bounds each execution attempt of the body: the attempt's
	// context expires after this budget and the failure surfaces as an
	// error wrapping ErrTaskTimeout (retryable — each attempt gets a fresh
	// budget). 0 means no per-task deadline.
	Timeout time.Duration
	// onDone, when set, is invoked exactly once with the task's final error
	// after its handle completes (executed, failed, or skipped). It is
	// unexported: only this package wires it (Scope uses it for per-session
	// accounting), so user code cannot observe half-published state.
	onDone func(err error)
}

// Config parameterises a Runtime.
type Config struct {
	// Workers is the number of worker goroutines; 0 selects GOMAXPROCS.
	Workers int
	// BufferingDepth is the per-worker task buffer: 1 disables the
	// prefetch overlap, 2 (the default) is double buffering.
	BufferingDepth int
	// Window bounds the number of in-flight (submitted, unfinished) tasks,
	// the analogue of the Task Pool size; Submit blocks when it is full.
	// 0 selects 1024.
	Window int
	// Shards is the number of dependency-table banks the key space is
	// hashed across — the software analogue of the Nexus++ Dependence
	// Table banks. Tasks on keys in different banks resolve concurrently;
	// 1 is a single bank. Values are rounded up to a power of two; 0
	// selects a default scaled to Workers. NewMaestro ignores it.
	Shards int
	// EventBuffer enables the lifecycle event stream (submit/ready/run/
	// finish/poison) and sets the per-lane ring capacity; 0 (the default)
	// disables it, leaving a single nil check on every emission point.
	// Drain the stream via Events.
	EventBuffer int
	// BankCounters enables per-bank lock instrumentation (acquisitions,
	// contended acquisitions, max kick-off queue depth), surfaced through
	// Stats. Off by default: the counting replaces the plain bank Lock with
	// a TryLock-then-Lock pair on every acquisition.
	BankCounters bool
	// Faults injects deterministic, seeded faults into task execution and
	// dispatch (see internal/faults): task_error/task_panic/task_hang on
	// bodies, kickoff_delay on the ready→run path. Nil (the default)
	// disables injection; the hot path then pays one nil check, the same
	// discipline as the event stream.
	Faults *faults.Injector
}

// Stats reports runtime counters.
type Stats struct {
	Submitted uint64
	// Executed counts tasks whose body ran to completion successfully.
	Executed uint64
	// Failed counts tasks whose body returned an error, panicked, or was
	// cancelled before running — the root causes of poisoning.
	Failed uint64
	// Skipped counts tasks that never ran because a transitive dependency
	// failed; their handles report ErrDependencyFailed.
	Skipped uint64
	// Retried counts re-armed execution attempts: a task with MaxRetries
	// whose attempt failed and ran again. A task retried twice counts 2.
	Retried uint64
	// MaxInFlight is the high-water mark of submitted-but-unfinished tasks.
	MaxInFlight int
	// Hazards counts tasks that had to wait at least once (DC > 0).
	Hazards uint64
	// BankAcquisitions counts dependence-bank lock acquisitions; zero
	// unless Config.BankCounters is set.
	BankAcquisitions uint64
	// BankContended counts the subset of BankAcquisitions that had to
	// block because another goroutine held the bank.
	BankContended uint64
	// BankMaxQueue is the high-water mark of any single segment's kick-off
	// list — the deepest dependence queue observed on any bank.
	BankMaxQueue uint64
}

// String renders the counters in one line, for reports and logs.
func (s Stats) String() string {
	return fmt.Sprintf(
		"submitted=%d executed=%d failed=%d skipped=%d retried=%d hazards=%d max-in-flight=%d",
		s.Submitted, s.Executed, s.Failed, s.Skipped, s.Retried, s.Hazards, s.MaxInFlight)
}

// Handle tracks one submitted task — the software analogue of the task ID
// the Nexus++ hardware assigns at submission and tracks through Handle
// Finished. Handles are returned by Submit/SubmitAll and stay valid after
// the runtime is closed.
type Handle struct {
	name   string
	index  uint64
	done   chan struct{}
	err    error // written before done is closed
	onDone func(err error)
}

// Done returns a channel closed when the task completes: executed, failed,
// or skipped because a dependency failed.
func (h *Handle) Done() <-chan struct{} { return h.done }

// Err returns the task's final status: nil while the task is still pending
// or after success; the body's error (or panic, or cancellation cause) on
// failure; an error wrapping ErrDependencyFailed and the root cause when
// the task was skipped.
func (h *Handle) Err() error {
	select {
	case <-h.done:
		return h.err
	default:
		return nil
	}
}

// Index is the task's submission index, assigned in admission order — the
// task-ID analogue.
func (h *Handle) Index() uint64 { return h.index }

// Name is the task's resolved name: Task.Name, or "task<index>" when the
// task was submitted nameless.
func (h *Handle) Name() string { return h.name }

// Wait blocks until the task completes or ctx is cancelled, returning the
// task's final error or ctx.Err().
func (h *Handle) Wait(ctx context.Context) error {
	select {
	case <-h.done:
		return h.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// complete publishes the task's outcome; err is visible to any Handle
// reader ordered after the close. The onDone hook fires after the close,
// so callbacks observe a completed handle.
func (h *Handle) complete(err error) {
	h.err = err
	close(h.done)
	if h.onDone != nil {
		h.onDone(err)
	}
}

// bank is one lock-striped slice of the dependence table. The pad brings
// the struct to 64 bytes so adjacent hot bank locks sit on separate cache
// lines. The counters are only written when Config.BankCounters is set
// (acquisitions/contended under TryLock knowledge, maxQueue under the bank
// lock) but are always read atomically by Stats.
type bank struct {
	mu           sync.Mutex
	segs         segtab.Table[Key, *taskNode]
	acquisitions atomic.Uint64
	contended    atomic.Uint64
	maxQueue     atomic.Uint64
	_            [24]byte
}

// Runtime schedules and executes tasks.
type Runtime struct {
	cfg      Config
	banks    []bank
	mask     uint64
	window   chan struct{}
	readyCh  chan *taskNode
	stopOnce sync.Once
	stopped  chan struct{}
	workerWG sync.WaitGroup

	// subMu fences admission against Close: submitters hold it shared
	// while they admit and resolve; Close takes it exclusively to close
	// stopped, so no submitter can be left mid-admission with a send to
	// readyCh pending when the channel is closed.
	subMu sync.RWMutex
	// batchMu serialises SubmitAll's multi-token window acquisition: a
	// chunk takes its tokens one at a time, and two batches each holding a
	// fraction of the window would deadlock without it. Plain Submit takes
	// a single token and needs no serialisation.
	batchMu sync.Mutex

	submitted   atomic.Uint64
	executed    atomic.Uint64
	failed      atomic.Uint64
	skipped     atomic.Uint64
	retried     atomic.Uint64
	hazards     atomic.Uint64
	inFlight    atomic.Int64
	maxInFlight atomic.Int64
	firstErr    atomic.Pointer[taskFailure]

	// coord serialises barrier and WaitOn bookkeeping; it is only taken on
	// the finish path when a waiter is registered or in-flight hits zero,
	// so it stays off the steady-state hot path.
	coord       sync.Mutex
	barriers    []chan struct{}
	waiters     []waitReq
	waiterCount atomic.Int32

	// newCh and doneCh feed the single-maestro baseline's resolver
	// goroutine (maestro.go): admission sends every admitted node on newCh
	// and workers send every finished task on doneCh. Both are nil on the
	// sharded runtime, which resolves in the caller.
	newCh  chan *taskNode
	doneCh chan finished
	// maestroDone is closed when the resolver goroutine has exited.
	maestroDone chan struct{}

	// rec is the lifecycle event stream (nil unless Config.EventBuffer is
	// set); bankStats gates the per-bank lock counters. Both are fixed at
	// construction, so emission points pay one predictable branch.
	rec       *obs.Recorder
	bankStats bool

	// exec runs task bodies: fault injection, per-task deadlines, retry
	// policy. Fixed at construction; with Config.Faults nil the execution
	// path pays one nil check.
	exec executor
}

// taskFailure is the boxed root-cause record behind firstErr.
type taskFailure struct {
	err error
}

type taskNode struct {
	task   Task
	ctx    context.Context
	handle *Handle
	deps   []Dep // normalised
	// keyHash[i] is the hash of deps[i].Key, computed once by makeNode;
	// the sharded runtime derives deps[i]'s bank from it. banks is the
	// sorted, deduplicated bank set — the per-task acquisition order.
	keyHash []uint64
	banks   []int
	dc      atomic.Int32
	// poison carries the root-cause error of a failed transitive
	// dependency. Set (first failure wins, see inherit) when the task joins
	// a still-poisoned segment or is released from one, before this node
	// can reach a worker.
	poison atomic.Pointer[taskFailure]
	// prefetchErr records a panic recovered from Task.Prefetch on the
	// controller goroutine; the worker converts it into the task's
	// failure instead of running the body.
	prefetchErr error
	// err and wasSkipped are the node's outcome, written by its worker
	// before resolveFinished and published through the handle.
	err        error
	wasSkipped bool
}

// ErrStopped is returned by Submit, Wait and WaitOn after Close.
var ErrStopped = errors.New("starss: runtime is shut down")

// ErrDependencyFailed marks a task skipped because a transitive dependency
// failed; Handle.Err wraps it together with the root cause.
var ErrDependencyFailed = errors.New("starss: dependency failed")

// ErrTaskPanicked marks a task whose body panicked; the recovered value is
// in the wrapping error, and dependents are poisoned as for any failure.
var ErrTaskPanicked = errors.New("starss: task panicked")

// defaultShards picks a bank count that gives low collision probability at
// full worker concurrency.
func defaultShards(workers int) int {
	n := 4 * workers
	if n < 8 {
		n = 8
	}
	if n > 512 {
		n = 512
	}
	return n
}

// nextPow2 rounds n up to a power of two.
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// withDefaults fills the zero values of the fields both engines use.
func (cfg Config) withDefaults() Config {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.BufferingDepth <= 0 {
		cfg.BufferingDepth = 2
	}
	if cfg.Window <= 0 {
		cfg.Window = 1024
	}
	return cfg
}

// New starts a runtime with the given configuration.
func New(cfg Config) *Runtime { return start(cfg, false) }

// start builds and starts a runtime; maestro selects the single-maestro
// baseline's resolver goroutine (NewMaestro).
func start(cfg Config, maestro bool) *Runtime {
	cfg = cfg.withDefaults()
	if cfg.Shards <= 0 {
		cfg.Shards = defaultShards(cfg.Workers)
	}
	cfg.Shards = nextPow2(cfg.Shards)
	rt := &Runtime{
		cfg:     cfg,
		banks:   make([]bank, cfg.Shards),
		mask:    uint64(cfg.Shards - 1),
		window:  make(chan struct{}, cfg.Window),
		readyCh: make(chan *taskNode, cfg.Window),
		stopped: make(chan struct{}),
	}
	if cfg.EventBuffer > 0 {
		rt.rec = obs.NewRecorder(cfg.Workers, cfg.EventBuffer)
	}
	rt.bankStats = cfg.BankCounters
	rt.exec = executor{
		faults: cfg.Faults,
		onRetry: func(node *taskNode, worker, _ int) {
			rt.retried.Add(1)
			rt.emit(worker, obs.KindRetry, node, worker)
		},
		onFault: func(node *taskNode, worker int) {
			rt.emit(worker, obs.KindFault, node, worker)
		},
	}
	if maestro {
		rt.startMaestro()
	}
	rt.startWorkers()
	return rt
}

// Events returns the lifecycle event recorder, or nil when
// Config.EventBuffer was zero. Drain it while the runtime is idle (or
// after Close) for a complete, ordered log; draining mid-run is safe but
// may split a task's run/finish pair across drains.
func (rt *Runtime) Events() *obs.Recorder { return rt.rec }

// firstBank is the first dependence bank in the node's sorted acquisition
// order, or -1 for tasks with no dependencies — the bank identity recorded
// on the node's lifecycle events.
func (node *taskNode) firstBank() int {
	if len(node.banks) == 0 {
		return -1
	}
	return node.banks[0]
}

// emit records one lifecycle transition for node when the event stream is
// on. lane -1 selects the submit-side lane.
func (rt *Runtime) emit(lane int, kind obs.Kind, node *taskNode, worker int) {
	if rt.rec == nil {
		return
	}
	rt.rec.Emit(lane, kind, node.handle.index, len(node.deps), node.firstBank(), worker)
}

// keySeed is the one seed every dependency key is hashed with, so a key's
// bank is a pure function of the key.
var keySeed = maphash.MakeSeed()

// keyHash hashes k, or reports that k is not comparable — a key no
// dependence table could look up.
func keyHash(k Key) (h uint64, err error) {
	defer func() {
		if recover() != nil {
			err = fmt.Errorf("key of type %T is not comparable", k)
		}
	}()
	return maphash.Comparable(keySeed, k), nil
}

// bankIndex hashes a key to its bank. It panics for keys that are not
// comparable.
func (rt *Runtime) bankIndex(k Key) int {
	return int(maphash.Comparable(keySeed, k) & rt.mask)
}

// bankOf is the bank index of node.deps[i].
func (rt *Runtime) bankOf(node *taskNode, i int) int {
	return int(node.keyHash[i] & rt.mask)
}

// prepare computes the node's sorted bank acquisition order.
func (rt *Runtime) prepare(node *taskNode) {
	if len(node.deps) == 0 {
		return
	}
	banks := make([]int, len(node.deps))
	for i := range banks {
		banks[i] = rt.bankOf(node, i)
	}
	node.banks = sortedUnique(banks)
}

// sortedUnique sorts ints in place and drops duplicates — the canonical
// bank-acquisition order shared by Submit and SubmitAll, whose global
// ascending total order is what keeps multi-bank locking deadlock-free.
func sortedUnique(ints []int) []int {
	if len(ints) == 0 {
		return ints
	}
	sort.Ints(ints)
	uniq := ints[:1]
	for _, v := range ints[1:] {
		if v != uniq[len(uniq)-1] {
			uniq = append(uniq, v)
		}
	}
	return uniq
}

// lockBanks acquires the given sorted bank set; the global ascending order
// makes multi-bank acquisition deadlock-free. With BankCounters on, each
// acquisition first tries the uncontended fast path so blocked acquisitions
// can be counted separately; the acquisition order is identical.
func (rt *Runtime) lockBanks(banks []int) {
	if rt.bankStats {
		for _, i := range banks {
			b := &rt.banks[i]
			b.acquisitions.Add(1)
			if b.mu.TryLock() {
				continue
			}
			b.contended.Add(1)
			b.mu.Lock()
		}
		return
	}
	for _, i := range banks {
		b := &rt.banks[i]
		b.mu.Lock()
	}
}

func (rt *Runtime) unlockBanks(banks []int) {
	for _, i := range banks {
		rt.banks[i].mu.Unlock()
	}
}

// Submit enqueues a task and returns its handle. It blocks while the
// in-flight window is full — cancelling ctx unblocks it — and returns an
// error for invalid tasks, a cancelled context, or after Close. The ctx is
// also the context the task body receives: cancelling it after admission
// fails the task (and poisons its dependents) if it has not started yet,
// and is observable from inside Do once it has. A nil ctx means
// context.Background().
//
// Dependency resolution happens synchronously in the caller (on the
// resolver goroutine, in admission order, for NewMaestro): tasks submitted
// from one goroutine acquire segments in exact program order (the StarSs
// sequential-semantics contract). Tasks submitted concurrently from
// several goroutines are ordered by bank acquisition.
func (rt *Runtime) Submit(ctx context.Context, t Task) (*Handle, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	node, err := makeNode(ctx, t)
	if err != nil {
		return nil, err
	}
	rt.prepare(node)
	// Check cancellation before racing the window send, so a dead context
	// is rejected deterministically rather than sometimes admitted.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	select {
	case <-rt.stopped:
		return nil, ErrStopped
	case <-ctx.Done():
		return nil, ctx.Err()
	case rt.window <- struct{}{}:
	}
	rt.subMu.RLock()
	select {
	case <-rt.stopped:
		rt.subMu.RUnlock()
		<-rt.window
		return nil, ErrStopped
	default:
	}
	rt.admit(node)
	if rt.newCh != nil {
		rt.newCh <- node
	} else {
		rt.resolveNew(node)
	}
	rt.subMu.RUnlock()
	return node.handle, nil
}

// SubmitAll enqueues a batch of tasks in order, amortising bank locking:
// each chunk of the batch is admitted under a single acquisition of the
// banks it touches. It blocks while the window is full (cancelling ctx
// unblocks it) and returns the first validation error before admitting
// anything, or ErrStopped/ctx.Err() mid-batch; the returned handles cover
// the prefix that was admitted (all tasks on success).
func (rt *Runtime) SubmitAll(ctx context.Context, tasks []Task) ([]*Handle, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	nodes := make([]*taskNode, len(tasks))
	for i, t := range tasks {
		node, err := makeNode(ctx, t)
		if err != nil {
			return nil, fmt.Errorf("task %d: %w", i, err)
		}
		rt.prepare(node)
		nodes[i] = node
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// After Close every admission path must uniformly report ErrStopped —
	// including a zero-length batch, which would otherwise skip the chunk
	// loop (where submitChunk performs this check) and return success.
	select {
	case <-rt.stopped:
		return nil, ErrStopped
	default:
	}
	// Chunk so one batch can never hold more window tokens than exist, and
	// so bank locks are not held for unboundedly long.
	chunkMax := rt.cfg.Window
	if chunkMax > 256 {
		chunkMax = 256
	}
	handles := make([]*Handle, 0, len(nodes))
	for len(nodes) > 0 {
		n := len(nodes)
		if n > chunkMax {
			n = chunkMax
		}
		if err := rt.submitChunk(ctx, nodes[:n]); err != nil {
			return handles, err
		}
		for _, node := range nodes[:n] {
			handles = append(handles, node.handle)
		}
		nodes = nodes[n:]
	}
	return handles, nil
}

func (rt *Runtime) submitChunk(ctx context.Context, nodes []*taskNode) error {
	// Chunks take their window tokens one at a time; batchMu makes that
	// acquisition all-or-nothing across batches, so two concurrent
	// SubmitAll calls cannot each hold a fraction of the window and wait
	// forever for the rest.
	rt.batchMu.Lock()
	for taken := 0; taken < len(nodes); taken++ {
		var err error
		select {
		case <-rt.stopped:
			err = ErrStopped
		case <-ctx.Done():
			err = ctx.Err()
		case rt.window <- struct{}{}:
			continue
		}
		for ; taken > 0; taken-- {
			<-rt.window
		}
		rt.batchMu.Unlock()
		return err
	}
	rt.batchMu.Unlock()
	rt.subMu.RLock()
	select {
	case <-rt.stopped:
		rt.subMu.RUnlock()
		for range nodes {
			<-rt.window
		}
		return ErrStopped
	default:
	}
	for _, node := range nodes {
		rt.admit(node)
	}
	if rt.newCh != nil {
		for _, node := range nodes {
			rt.newCh <- node
		}
		rt.subMu.RUnlock()
		return nil
	}
	var banks []int
	for _, node := range nodes {
		banks = append(banks, node.banks...)
	}
	uniq := sortedUnique(banks)
	ready := make([]*taskNode, 0, len(nodes))
	rt.lockBanks(uniq)
	for _, node := range nodes {
		if rt.checkDeps(node) == 0 {
			ready = append(ready, node)
		} else {
			rt.hazards.Add(1)
		}
	}
	rt.unlockBanks(uniq)
	for _, node := range ready {
		rt.emit(-1, obs.KindReady, node, -1)
		rt.readyCh <- node
	}
	rt.subMu.RUnlock()
	return nil
}

// makeNode validates and normalises one task. Both engines call it before
// they take a window token or a lock, so a rejected task leaves no state
// behind.
func makeNode(ctx context.Context, t Task) (*taskNode, error) {
	if t.Do == nil {
		return nil, errors.New("starss: task has no Do function")
	}
	deps, hash, err := normalizeDeps(t.Deps)
	if err != nil {
		return nil, err
	}
	return &taskNode{task: t, ctx: ctx, deps: deps, keyHash: hash}, nil
}

// bind gives the node its task ID — the submission index idx — and creates
// its handle.
func (node *taskNode) bind(idx uint64) {
	name := node.task.Name
	if name == "" {
		name = fmt.Sprintf("task%d", idx)
	}
	node.handle = &Handle{name: name, index: idx, done: make(chan struct{}), onDone: node.task.onDone}
}

// admit binds the node to the next task ID and accounts for it in the
// window. The caller must already hold the node's window token.
func (rt *Runtime) admit(node *taskNode) {
	node.bind(rt.submitted.Add(1) - 1)
	// The high-water mark is the smaller of inFlight and the window
	// occupancy. Each can read high on its own: a finisher returns its
	// token before it decrements inFlight, and the window also holds the
	// tokens of submitters not yet admitted. The minimum is bounded by
	// both, so it exceeds neither Window nor the admitted tasks.
	n := rt.inFlight.Add(1)
	if w := int64(len(rt.window)); w < n {
		n = w
	}
	for {
		max := rt.maxInFlight.Load()
		if n <= max || rt.maxInFlight.CompareAndSwap(max, n) {
			break
		}
	}
	rt.emit(-1, obs.KindSubmit, node, -1)
}

// resolveNew runs Check Deps (Listing 2) for one task against its banks.
func (rt *Runtime) resolveNew(node *taskNode) {
	rt.lockBanks(node.banks)
	dc := rt.checkDeps(node)
	rt.unlockBanks(node.banks)
	if dc == 0 {
		rt.emit(-1, obs.KindReady, node, -1)
		rt.readyCh <- node
	} else {
		rt.hazards.Add(1)
	}
}

// noteQueueDepth raises the bank's kick-off high-water mark. The caller
// holds the bank lock, so the load/store pair has a single writer; the
// atomic lets Stats read it without the lock.
func (rt *Runtime) noteQueueDepth(b *bank, depth int) {
	if !rt.bankStats {
		return
	}
	if d := uint64(depth); d > b.maxQueue.Load() {
		b.maxQueue.Store(d)
	}
}

// checkDeps joins every segment of the node (Check Deps, Listing 2) and
// returns the resulting dependence count. The caller holds all of
// node.banks.
func (rt *Runtime) checkDeps(node *taskNode) int {
	dc := 0
	for i, d := range node.deps {
		b := &rt.banks[rt.bankOf(node, i)]
		queued, poison := b.segs.Join(d.Key, d.Mode != ModeIn, node)
		node.inherit(poison)
		if queued > 0 {
			dc++
			rt.noteQueueDepth(b, queued)
		}
	}
	// The count must be published before the banks are released: a
	// finisher may pop this node from a kick-off list the moment the
	// bank unlocks.
	node.dc.Store(int32(dc))
	return dc
}

// inherit records err as the node's poison unless the node already carries
// one: the first failure wins.
func (node *taskNode) inherit(err error) {
	if err != nil {
		node.poison.CompareAndSwap(nil, &taskFailure{err: err})
	}
}

// release applies one grant of the handle-finished path to its waiter: the
// poison it inherits, then one fewer outstanding dependence. It reports
// whether the waiter is now ready to run.
func release(g segtab.Grant[*taskNode]) bool {
	g.Waiter.inherit(g.Poison)
	return g.Waiter.dc.Add(-1) == 0
}

// rootCause is the error a finished node propagates to its dependents: its
// own failure, or — when the node itself was skipped — the original root
// cause it was poisoned with, so chains report the first failure, not a
// nest of skip wrappers.
func (node *taskNode) rootCause() error {
	if node.err == nil {
		return nil
	}
	if p := node.poison.Load(); p != nil {
		return p.err
	}
	return node.err
}

// resolveFinished runs the Handle Finished path (SSIII-B) for one task:
// leaves its segments and dispatches every waiter whose dependence count
// reaches zero. A failed (or skipped) finisher poisons the segments it
// leaves, so every waiter released behind it — now or by a later finisher
// — is skipped as a transitive dependent while the kick-off lists drain
// normally. worker is the finishing worker's index and lane the event lane
// its releases are recorded on: the worker's own lane when the worker
// resolves, the external lane (-1) when the maestro does.
func (rt *Runtime) resolveFinished(node *taskNode, lane, worker int) {
	root := node.rootCause()
	var buf [8]segtab.Grant[*taskNode]
	granted := buf[:0]
	rt.lockBanks(node.banks)
	for i, d := range node.deps {
		granted = rt.banks[rt.bankOf(node, i)].segs.Leave(d.Key, d.Mode != ModeIn, root, granted)
	}
	rt.unlockBanks(node.banks)
	for _, g := range granted {
		if release(g) {
			rt.emit(lane, obs.KindReady, g.Waiter, worker)
			rt.readyCh <- g.Waiter
		}
	}
	switch {
	case node.wasSkipped:
		rt.skipped.Add(1)
	case node.err != nil:
		rt.failed.Add(1)
		rt.firstErr.CompareAndSwap(nil, &taskFailure{err: node.err})
	default:
		rt.executed.Add(1)
	}
	node.handle.complete(node.err)
	<-rt.window
	n := rt.inFlight.Add(-1)
	if n == 0 || rt.waiterCount.Load() > 0 {
		rt.coord.Lock()
		// Re-read under coord: the pre-lock n may be stale — a task
		// submitted (and a barrier registered for it) after the decrement
		// must not be signalled past.
		if rt.inFlight.Load() == 0 {
			for _, b := range rt.barriers {
				close(b)
			}
			rt.barriers = rt.barriers[:0]
		}
		rt.checkWaitersLocked()
		rt.coord.Unlock()
	}
}

// MustSubmit is Submit with a background context that panics on submission
// error, for straight-line example code.
func (rt *Runtime) MustSubmit(t Task) *Handle {
	h, err := rt.Submit(context.Background(), t)
	if err != nil {
		panic(err)
	}
	return h
}

// Wait blocks until every task submitted before the call has completed —
// the css barrier pragma — and returns the first task failure recorded so
// far (the root cause, not a skip wrapper), nil when all tasks succeeded,
// ctx.Err() if the context is cancelled first, or ErrStopped when the
// runtime is already closed.
func (rt *Runtime) Wait(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-rt.stopped:
		return ErrStopped
	default:
	}
	rt.coord.Lock()
	if rt.inFlight.Load() == 0 {
		rt.coord.Unlock()
		return rt.failure()
	}
	reply := make(chan struct{})
	rt.barriers = append(rt.barriers, reply)
	rt.coord.Unlock()
	select {
	case <-reply:
		return rt.failure()
	case <-ctx.Done():
		// The abandoned reply channel is closed and dropped by the next
		// idle transition; nothing leaks beyond it.
		return ctx.Err()
	}
}

// failure returns the first recorded root-cause task failure, or nil.
func (rt *Runtime) failure() error {
	if f := rt.firstErr.Load(); f != nil {
		return f.err
	}
	return nil
}

// waitIdle blocks until the in-flight count reaches zero. Unlike Wait it
// works after stopped is closed, which Close needs to drain last-moment
// admissions before closing readyCh.
func (rt *Runtime) waitIdle() {
	rt.coord.Lock()
	if rt.inFlight.Load() == 0 {
		rt.coord.Unlock()
		return
	}
	reply := make(chan struct{})
	rt.barriers = append(rt.barriers, reply)
	rt.coord.Unlock()
	<-reply
}

// quiet reports whether none of the keys has a live segment. Keys are
// inspected one bank at a time; a key observed quiet has completed every
// access submitted before the observation.
func (rt *Runtime) quiet(keys []Key) bool {
	for _, k := range keys {
		b := &rt.banks[rt.bankIndex(k)]
		//nexusvet:ignore lockorder single-bank probe: one mutex held at a time, released before the next key, so no acquisition order exists to violate
		b.mu.Lock()
		busy := b.segs.Live(k)
		b.mu.Unlock()
		if busy {
			return false
		}
	}
	return true
}

// checkWaitersLocked wakes WaitOn callers whose keys have gone quiet. The
// caller holds coord.
func (rt *Runtime) checkWaitersLocked() {
	if len(rt.waiters) == 0 {
		return
	}
	kept := rt.waiters[:0]
	for _, w := range rt.waiters {
		if rt.quiet(w.keys) {
			close(w.reply)
			rt.waiterCount.Add(-1)
		} else {
			kept = append(kept, w)
		}
	}
	rt.waiters = kept
}

// InFlight returns the current number of submitted-but-unfinished tasks —
// the live window occupancy, for service /debug endpoints.
func (rt *Runtime) InFlight() int { return int(rt.inFlight.Load()) }

// QueueDepth returns the number of ready tasks currently queued for a
// worker (dependence count zero, body not yet started).
func (rt *Runtime) QueueDepth() int { return len(rt.readyCh) }

// WindowSize returns the configured in-flight window capacity.
func (rt *Runtime) WindowSize() int { return rt.cfg.Window }

// Stats returns a snapshot of the runtime counters. After Close it returns
// the final counters. The Bank* fields stay zero unless Config.BankCounters
// was set.
func (rt *Runtime) Stats() Stats {
	s := Stats{
		Submitted:   rt.submitted.Load(),
		Executed:    rt.executed.Load(),
		Failed:      rt.failed.Load(),
		Skipped:     rt.skipped.Load(),
		Retried:     rt.retried.Load(),
		MaxInFlight: int(rt.maxInFlight.Load()),
		Hazards:     rt.hazards.Load(),
	}
	for i := range rt.banks {
		b := &rt.banks[i]
		s.BankAcquisitions += b.acquisitions.Load()
		s.BankContended += b.contended.Load()
		if q := b.maxQueue.Load(); q > s.BankMaxQueue {
			s.BankMaxQueue = q
		}
	}
	return s
}

// Close waits for all submitted tasks, stops the workers and returns the
// first task failure (nil when every task succeeded). The runtime cannot
// be reused afterwards; further Submit/Wait/WaitOn calls return ErrStopped
// and further Close calls return the same failure.
func (rt *Runtime) Close() error {
	rt.waitIdle()
	rt.stopOnce.Do(func() {
		// Closing stopped under the exclusive fence guarantees no
		// submitter is mid-admission; any Submit that raced past the drain
		// above has either fully admitted (drained by waitIdle below) or
		// will observe stopped under its shared lock and back out. Only
		// then is readyCh safe to close.
		rt.subMu.Lock()
		close(rt.stopped)
		rt.subMu.Unlock()
		rt.waitIdle()
		close(rt.readyCh)
		rt.workerWG.Wait()
		rt.stopMaestro()
	})
	return rt.failure()
}

// normalizeDeps hashes every key and merges duplicate keys: any read + any
// write on the same key becomes inout, duplicate same-mode entries
// collapse. hash[i] is the hash of the returned deps[i].Key. A key that is
// not comparable is an error naming its index in deps.
func normalizeDeps(deps []Dep) (out []Dep, hash []uint64, err error) {
	if len(deps) == 0 {
		return deps, nil, nil
	}
	hash = make([]uint64, len(deps))
	for i, d := range deps {
		if hash[i], err = keyHash(d.Key); err != nil {
			return nil, nil, fmt.Errorf("starss: dep %d: %w", i, err)
		}
	}
	if len(deps) == 1 {
		return deps, hash, nil
	}
	out = make([]Dep, 0, len(deps))
	index := make(map[Key]int, len(deps))
	for i, d := range deps {
		j, seen := index[d.Key]
		if !seen {
			index[d.Key] = len(out)
			hash[len(out)] = hash[i] // compacts in place: len(out) <= i
			out = append(out, d)
			continue
		}
		a, b := out[j].Mode, d.Mode
		switch {
		case a == b:
		case a == ModeInOut:
		default:
			out[j].Mode = ModeInOut
		}
	}
	return out, hash[:len(out)], nil
}

// startWorkers starts cfg.Workers workers on readyCh and adds them to
// workerWG; each exits once readyCh is closed and drained. A worker is one
// worker core plus its Task Controller: a small pipeline that prefetches
// the inputs of up to BufferingDepth-1 upcoming tasks while the current one
// executes (runBody).
func (rt *Runtime) startWorkers() {
	cfg, ready, wg := rt.cfg, rt.readyCh, &rt.workerWG
	wg.Add(cfg.Workers)
	for id := 0; id < cfg.Workers; id++ {
		go func() {
			defer wg.Done()
			if cfg.BufferingDepth <= 1 {
				// No buffering: fetch, run and write back serially.
				for node := range ready {
					prefetchNode(node)
					rt.runBody(node, id)
				}
				return
			}
			// The controller goroutine prefetches into a bounded local
			// buffer; this goroutine executes. Buffer capacity depth-1 means
			// up to depth tasks are resident per worker (one executing,
			// depth-1 prefetched).
			local := make(chan *taskNode, cfg.BufferingDepth-1)
			var ctlWG sync.WaitGroup
			ctlWG.Add(1)
			go func() {
				defer ctlWG.Done()
				defer close(local)
				for node := range ready {
					prefetchNode(node)
					local <- node
				}
			}()
			for node := range local {
				rt.runBody(node, id)
			}
			ctlWG.Wait()
		}()
	}
}

// prefetchNode runs the Get Inputs phase unless the task will not run. A
// panicking Prefetch is recorded on the node and fails the task when the
// worker picks it up, instead of killing the controller goroutine.
func prefetchNode(node *taskNode) {
	if node.task.Prefetch == nil {
		return
	}
	if node.poison.Load() != nil || node.ctx.Err() != nil {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			node.prefetchErr = fmt.Errorf("%w: task %q (in Prefetch): %v", ErrTaskPanicked, node.handle.name, r)
		}
	}()
	node.task.Prefetch()
}

// runBody executes one node on worker id and resolves its completion,
// bracketing the body with run and finish (or poison, for skipped tasks)
// events on the worker's own lane — the per-worker ordering the Chrome
// exporter's timeline nesting relies on. Execution itself (fault injection,
// deadlines, retries) lives in executor.runNode (exec.go).
func (rt *Runtime) runBody(node *taskNode, id int) {
	if rt.exec.faults != nil {
		// A slow bank: the task is ready but its kick-off is delayed.
		if d := rt.exec.faults.Delay(faults.SiteKickoffDelay, node.handle.index); d > 0 {
			time.Sleep(d)
		}
	}
	rt.emit(id, obs.KindRun, node, id)
	rt.exec.runNode(node, id)
	if node.wasSkipped {
		rt.emit(id, obs.KindPoison, node, id)
	} else {
		rt.emit(id, obs.KindFinish, node, id)
	}
	if rt.doneCh != nil {
		rt.doneCh <- finished{node: node, worker: id}
		return
	}
	rt.resolveFinished(node, id, id)
}
