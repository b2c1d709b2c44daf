// Package service is the long-lived, multi-tenant task service over the
// sharded executing runtime: the software analogue of the paper's hardware
// task manager serving many master cores concurrently. A single shared
// starss.Runtime resolves dependencies for every client, while each client
// session gets an isolated namespace (its own keyspace prefix via
// starss.Scope), its own admission window with 429 backpressure, and its
// own per-session Stats. Sessions drain gracefully on explicit close or
// idle expiry: cancelling the session context fails its unstarted tasks
// and the runtime's poisoning propagates through its graph without ever
// wedging the shared resolver.
//
// The wire format deliberately reuses the traced-task shape of
// internal/trace: a task is a parameter list of (addr, size, mode) plus a
// synthesized execution time, so any traced workload can be shipped to a
// live daemon with a trivial transform (see cmd/nexusbench serve).
package service

import (
	"context"
	"fmt"
	"math"
	"time"

	"nexuspp/internal/starss"
	"nexuspp/internal/trace"
)

// TaskSpec is one task in a submission request — the JSON projection of
// trace.TaskSpec onto the service API. Keys are the parameter base
// addresses, namespaced per session by the server.
type TaskSpec struct {
	// Name is optional and surfaces in error messages.
	Name string `json:"name,omitempty"`
	// Params is the input/output list; addresses are the dependency keys.
	Params []Param `json:"params"`
	// ExecUS synthesizes the task body: sleep this many microseconds
	// (honouring cancellation). Zero or negative means an empty body; a
	// value whose duration overflows is rejected.
	ExecUS int64 `json:"exec_us,omitempty"`
	// TimeoutMS bounds each execution attempt of the task body; an attempt
	// exceeding it fails with the runtime's task-timeout error. 0 means no
	// per-task deadline (the session deadline, if any, still applies); a
	// negative or overflowing value is rejected.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// MaxRetries re-arms a failed body up to this many times (with the
	// runtime's capped exponential backoff) before the failure sticks and
	// poisons dependents. 0 means fail fast.
	MaxRetries int `json:"max_retries,omitempty"`
}

// Param is one entry of a task's input/output list.
type Param struct {
	Addr uint64 `json:"addr"`
	Size uint32 `json:"size,omitempty"`
	// Mode is "in", "out" or "inout" (the StarSs pragma spellings).
	Mode string `json:"mode"`
}

// FromTraceSpec converts a traced task into its wire form, so traced
// workloads can be submitted to a live daemon.
func FromTraceSpec(spec trace.TaskSpec) TaskSpec {
	ts := TaskSpec{
		Params: make([]Param, len(spec.Params)),
		ExecUS: int64(spec.Exec.Microseconds()),
	}
	for i, p := range spec.Params {
		ts.Params[i] = Param{Addr: p.Addr, Size: p.Size, Mode: p.Mode.String()}
	}
	return ts
}

// task converts the wire form into an executable runtime task.
func (ts TaskSpec) task() (starss.Task, error) {
	if len(ts.Params) == 0 {
		return starss.Task{}, fmt.Errorf("task %q has no params", ts.Name)
	}
	deps := make([]starss.Dep, len(ts.Params))
	for i, p := range ts.Params {
		switch p.Mode {
		case "in":
			deps[i] = starss.In(p.Addr)
		case "out":
			deps[i] = starss.Out(p.Addr)
		case "inout":
			deps[i] = starss.InOut(p.Addr)
		default:
			return starss.Task{}, fmt.Errorf("task %q param %d: unknown mode %q (valid: in, out, inout)", ts.Name, i, p.Mode)
		}
	}
	if ts.MaxRetries < 0 || ts.MaxRetries > 16 {
		return starss.Task{}, fmt.Errorf("task %q: max_retries %d out of range [0,16]", ts.Name, ts.MaxRetries)
	}
	timeout, err := wireDuration(ts.TimeoutMS, time.Millisecond)
	if err != nil {
		return starss.Task{}, fmt.Errorf("task %q: timeout_ms %w", ts.Name, err)
	}
	t := starss.Task{
		Name:       ts.Name,
		Deps:       deps,
		MaxRetries: ts.MaxRetries,
		Timeout:    timeout,
	}
	if ts.ExecUS > 0 {
		d, err := wireDuration(ts.ExecUS, time.Microsecond)
		if err != nil {
			return starss.Task{}, fmt.Errorf("task %q: exec_us %w", ts.Name, err)
		}
		t.Do = func(ctx context.Context) error { return sleepFor(ctx, d) }
	} else {
		t.Do = func(ctx context.Context) error { return ctx.Err() }
	}
	return t, nil
}

// wireDuration converts a wire count of unit into a Duration. Negative
// counts and counts whose duration overflows int64 nanoseconds are errors,
// so no wire value can wrap into a tiny, negative or disabled duration.
func wireDuration(v int64, unit time.Duration) (time.Duration, error) {
	if limit := int64(math.MaxInt64 / unit); v < 0 || v > limit {
		return 0, fmt.Errorf("%d out of range [0, %d]", v, limit)
	}
	return time.Duration(v) * unit, nil
}

// sleepFor blocks for d, honouring cancellation — the synthesized task
// body, mirroring the replay adapter's timed bodies.
func sleepFor(ctx context.Context, d time.Duration) error {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// SubmitRequest is the body of POST /v1/sessions/{id}/submit.
type SubmitRequest struct {
	Tasks []TaskSpec `json:"tasks"`
	// IdempotencyKey, when set, makes the submit exactly-once per session:
	// a repeat of a key whose batch was admitted returns the original IDs
	// (Deduped=true) without re-executing anything. Failed submits are not
	// memoized, so a retry after a 429 gets a fresh admission attempt.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
}

// SubmitResponse returns the session-local IDs assigned to the admitted
// tasks, in submission order.
type SubmitResponse struct {
	IDs []uint64 `json:"ids"`
	// Deduped reports that the idempotency key matched an earlier admitted
	// batch and IDs are its original assignment.
	Deduped bool `json:"deduped,omitempty"`
}

// AwaitRequest is the body of POST /v1/sessions/{id}/await. Empty IDs
// means every task the session has submitted so far.
type AwaitRequest struct {
	IDs []uint64 `json:"ids,omitempty"`
	// TimeoutMS bounds the server-side wait; 0 or negative selects 30s, and
	// anything above 120s (including an overflowing value) is capped there.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Task states reported by await.
const (
	StateOK      = "ok"      // body ran to completion
	StateFailed  = "failed"  // body errored, panicked, or was cancelled
	StateSkipped = "skipped" // a transitive dependency failed
	StatePending = "pending" // not finished within the await timeout
)

// TaskStatus is one task's outcome in an await response.
type TaskStatus struct {
	ID    uint64 `json:"id"`
	State string `json:"state"`
	Error string `json:"error,omitempty"`
}

// AwaitResponse reports the awaited tasks; Done is true when none of them
// is still pending.
type AwaitResponse struct {
	Done  bool         `json:"done"`
	Tasks []TaskStatus `json:"tasks"`
}

// CreateSessionRequest is the optional body of POST /v1/sessions.
type CreateSessionRequest struct {
	// DeadlineMS bounds the session's total lifetime; past it every
	// unstarted task fails and the session drains exactly as on expiry.
	// 0 means no deadline; a negative or overflowing value is rejected.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// SessionInfo is the response to POST /v1/sessions.
type SessionInfo struct {
	Session string `json:"session"`
	// Window is the session's admission window: the maximum number of
	// in-flight (submitted, unfinished) tasks before submits get 429.
	Window int `json:"window"`
	// DeadlineMS echoes the session deadline, when one was requested.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// SessionStats is the response to GET /v1/sessions/{id}/stats.
type SessionStats struct {
	Session     string `json:"session"`
	Window      int    `json:"window"`
	InFlight    int64  `json:"in_flight"`
	Submitted   uint64 `json:"submitted"`
	Executed    uint64 `json:"executed"`
	Failed      uint64 `json:"failed"`
	Skipped     uint64 `json:"skipped"`
	MaxInFlight int    `json:"max_in_flight"`
}

// ShedRetryAfterS is the Retry-After hint (seconds) carried by a 503
// overload-shed response.
const ShedRetryAfterS = 1

// RuntimeDebug is the shared runtime's slice of the /debug report. The
// bank_* fields are the dependence-bank lock counters (the service enables
// starss.Config.BankCounters), also exported through GET /metrics.
type RuntimeDebug struct {
	Submitted        uint64 `json:"submitted"`
	Executed         uint64 `json:"executed"`
	Failed           uint64 `json:"failed"`
	Skipped          uint64 `json:"skipped"`
	Retried          uint64 `json:"retried"`
	Hazards          uint64 `json:"hazards"`
	InFlight         int    `json:"in_flight"`
	QueueDepth       int    `json:"queue_depth"`
	Window           int    `json:"window"`
	BankAcquisitions uint64 `json:"bank_acquisitions"`
	BankContended    uint64 `json:"bank_contended"`
	BankMaxQueue     uint64 `json:"bank_max_queue"`
}

// DebugInfo is the response to GET /debug: server-wide counters plus one
// entry per live session.
type DebugInfo struct {
	UptimeS    float64        `json:"uptime_s"`
	Goroutines int            `json:"goroutines"`
	Sessions   int            `json:"sessions"`
	Runtime    RuntimeDebug   `json:"runtime"`
	PerSession []SessionStats `json:"per_session"`
}

// ErrorResponse is the JSON body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}
