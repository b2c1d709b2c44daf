package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"nexuspp/internal/service"
)

// service_open drives an in-process service over loopback HTTP from one
// client process with at most nproc connections. Batches go out on a
// fixed schedule (open loop); a batch's latency runs from when it was due
// until Await reports it done, so a stall also delays the batches queued
// behind it.
const (
	batchTasks      = 64
	serviceSessions = 8   // sessions of an open-loop phase; batch k goes to session k mod 8
	closedLoops     = 8   // clients of the closed-loop phase, one session each
	keyPool         = 256 // dependency keys, shared by every session
	batchPool       = 512 // distinct batches drawn from the seed
	opTimeout       = 5 * time.Second
	// rateLo and rateHi are the two fixed offered loads, in tasks per
	// second: about 15% and 45% of the closed-loop capacity on 2 cores.
	rateLo = 16000
	rateHi = 48000
	// rounds is how many times a run repeats its lo, hi and closed-loop
	// phases; the end-to-end metrics are medians over rounds, so a few
	// seconds of host noise move one round, not the metric.
	rounds = 5
	// latencyLimit is the p99 batch latency a rung of the ladder must meet.
	latencyLimit = 50 * time.Millisecond
	// probeBatches is the least number of batches a ladder probe sends:
	// enough for ten beyond its p99.
	probeBatches = 1000
)

// closedPerClient sizes a round's closed loop to take about 8% of d at
// 100,000 tasks/s; with the round's open-loop phases, five rounds take
// about d.
func closedPerClient(d time.Duration) int {
	return max(1, int(d.Seconds()*0.08*100000/batchTasks/closedLoops))
}

// ladder is the fixed set of offered loads, in tasks per second, that the
// capacity search (max_ok_rate) chooses from: 5% apart.
var ladder = func() []float64 {
	var r []float64
	for x := float64(2 * rateLo); x < 8*rateLo; x *= 1.05 {
		r = append(r, math.Round(x))
	}
	return r
}()

type serviceBench struct {
	srv     *service.Server
	hs      *http.Server
	served  chan error
	tr      *http.Transport
	wire    *wireCounter
	client  *service.Client
	batches [][]service.TaskSpec
}

// wireCounter counts the request and response body bytes that pass
// through the client's transport.
type wireCounter struct {
	base  http.RoundTripper
	bytes atomic.Int64
}

func (w *wireCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.ContentLength > 0 {
		w.bytes.Add(req.ContentLength)
	}
	resp, err := w.base.RoundTrip(req)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &w.bytes}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (c *countingBody) Read(p []byte) (int, error) {
	k, err := c.ReadCloser.Read(p)
	c.n.Add(int64(k))
	return k, err
}

// serviceBatches draws the batches from seed: tasks of one to three
// parameters over a shared key pool, each in, inout or out.
func serviceBatches(seed uint64) [][]service.TaskSpec {
	rng := rand.New(rand.NewPCG(seed, 0x5e55))
	modes := []string{"in", "inout", "out"}
	out := make([][]service.TaskSpec, batchPool)
	for i := range out {
		batch := make([]service.TaskSpec, batchTasks)
		for j := range batch {
			params := make([]service.Param, 1+rng.IntN(3))
			for p := range params {
				addr := 0x1000 + 64*uint64(rng.IntN(keyPool))
				for slices.ContainsFunc(params[:p], func(q service.Param) bool { return q.Addr == addr }) {
					addr = 0x1000 + 64*uint64(rng.IntN(keyPool))
				}
				params[p] = service.Param{Addr: addr, Size: 64, Mode: modes[rng.IntN(len(modes))]}
			}
			batch[j] = service.TaskSpec{Params: params}
		}
		out[i] = batch
	}
	return out
}

func setupService(seed uint64, nproc int) (bench, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	batches := serviceBatches(seed)
	st.gen = time.Since(t0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, st, fmt.Errorf("listen: %w", err)
	}
	b := &serviceBench{
		srv:     service.New(service.Config{Workers: nproc}),
		served:  make(chan error, 1),
		batches: batches,
		tr:      &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc, DisableCompression: true},
	}
	b.hs = &http.Server{Handler: b.srv.Handler()}
	go func() { b.served <- b.hs.Serve(ln) }()
	b.wire = &wireCounter{base: b.tr}
	b.client = service.NewClient("http://" + ln.Addr().String())
	b.client.HTTP = &http.Client{Transport: b.wire}
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	if !b.client.Healthy(ctx) {
		b.close()
		return nil, st, errors.New("service did not become healthy")
	}
	return b, st, nil
}

func (b *serviceBench) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	err := b.hs.Shutdown(ctx)
	b.tr.CloseIdleConnections()
	if serr := <-b.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := b.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

func (b *serviceBench) exact() map[string]float64 { return map[string]float64{} }

// sample is one batch. In an open loop, due and late are offsets from the
// phase start and latency runs from due to done; in the closed loop,
// latency runs from the send.
type sample struct {
	dueAt              time.Time
	due, late, latency time.Duration
	submit, await      time.Duration
	refused, timedOut  bool
	err                error
}

func (s *sample) ok() bool { return !s.refused && !s.timedOut && s.err == nil }

// openLoop calls send at perSecond for d, each call on its own goroutine,
// and returns when every call has returned. late is how far behind its
// schedule the generator issued a call.
func openLoop(ctx context.Context, perSecond float64, d time.Duration, send func(ctx context.Context, k int, s *sample)) []sample {
	samples := make([]sample, int(d.Seconds()*perSecond))
	var wg sync.WaitGroup
	start := time.Now()
	for k := range samples {
		due := time.Duration(float64(k) / perSecond * float64(time.Second))
		if wait := due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		s := &samples[k]
		s.dueAt, s.due, s.late = start.Add(due), due, time.Since(start)-due
		wg.Add(1)
		go func() {
			defer wg.Done()
			send(ctx, k, s)
			s.latency = time.Since(start) - due
		}()
	}
	wg.Wait()
	return samples
}

// backlog counts the calls still outstanding when the schedule ended.
func backlog(samples []sample, d time.Duration) int {
	n := 0
	for i := range samples {
		if samples[i].due+samples[i].latency > d {
			n++
		}
	}
	return n
}

// rateRun is one phase of batches on a set of fresh sessions.
type rateRun struct {
	samples []sample
	failed  int           // checks failed: task states, session balance, errors
	tasks   int           // tasks accepted
	wall    time.Duration // from the first send until the last batch completed
}

func (r *rateRun) latencies() []float64 {
	var xs []float64
	for i := range r.samples {
		if r.samples[i].ok() {
			xs = append(xs, ms(r.samples[i].latency))
		}
	}
	return xs
}

// meetsLimit reports whether every batch was accepted and completed, the
// p99 latency is within latencyLimit, and the backlog left when the
// schedule ended is no more than the limit allows at this rate.
func (r *rateRun) meetsLimit(perSecond float64, d time.Duration) bool {
	lat := r.latencies()
	if len(lat) != len(r.samples) || len(lat) == 0 {
		return false
	}
	p99, _ := tail(lat, 99)
	return p99 <= ms(latencyLimit) && float64(backlog(r.samples, d)) <= perSecond*latencyLimit.Seconds()+1
}

// sendBatch submits batch k on sess and awaits it, filling s; start is
// when the batch's latency starts. It returns the number of tasks the
// service accepted.
func (b *serviceBench) sendBatch(ctx context.Context, sess *service.Session, k int, start time.Time, s *sample, rec *recorder, id int64) int64 {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	t0 := time.Now()
	ids, err := sess.Submit(ctx, b.batches[k%batchPool])
	t1 := time.Now()
	s.submit = t1.Sub(t0)
	var sts []service.TaskStatus
	if err == nil {
		sts, err = sess.Await(ctx, ids)
		s.await = time.Since(t1)
	}
	var bp *service.BackpressureError
	var api *service.APIError
	switch {
	case errors.As(err, &bp), errors.As(err, &api) && api.Status == http.StatusServiceUnavailable:
		s.refused = true
	case errors.Is(err, context.DeadlineExceeded):
		s.timedOut = true
	case err != nil:
		s.err = err
	case len(sts) != len(ids):
		s.err = fmt.Errorf("await returned %d statuses for %d tasks", len(sts), len(ids))
	default:
		for _, st := range sts {
			if st.State != service.StateOK {
				s.err = fmt.Errorf("task %d: %s %s", st.ID, st.State, st.Error)
				break
			}
		}
	}
	if rec != nil {
		root := rec.add("batch", start, time.Now(), -1, id)
		rec.add("service.Submit", t0, t1, root, id)
		if s.await > 0 {
			rec.add("service.Await", t1, t1.Add(s.await), root, id)
		}
	}
	return int64(len(ids))
}

// withSessions opens n fresh sessions, lets drive send batches on them,
// then drains and checks every session.
func (b *serviceBench) withSessions(ctx context.Context, n int, drive func([]*service.Session, []atomic.Int64) []sample) rateRun {
	var r rateRun
	sessions := make([]*service.Session, n)
	for i := range sessions {
		s, err := b.client.Open(ctx)
		if err != nil {
			r.failed++
			fmt.Printf("service: open session: %v\n", err)
			return r
		}
		sessions[i] = s
	}
	accepted := make([]atomic.Int64, n)
	start := time.Now()
	r.samples = drive(sessions, accepted)
	r.wall = time.Since(start)
	for i, sess := range sessions {
		if err := b.checkSession(ctx, sess, accepted[i].Load()); err != nil {
			r.failed++
			fmt.Printf("service: session %d: %v\n", i, err)
		}
		r.tasks += int(accepted[i].Load())
	}
	for i := range r.samples {
		if r.samples[i].err != nil {
			r.failed++
		}
	}
	return r
}

// runRate offers tasksPerS for d in an open loop over serviceSessions
// sessions. Batch ids in spans start at idBase.
func (b *serviceBench) runRate(ctx context.Context, tasksPerS float64, d time.Duration, rec *recorder, idBase int64) rateRun {
	return b.withSessions(ctx, serviceSessions, func(sessions []*service.Session, accepted []atomic.Int64) []sample {
		return openLoop(ctx, tasksPerS/batchTasks, d, func(ctx context.Context, k int, s *sample) {
			i := k % len(sessions)
			accepted[i].Add(b.sendBatch(ctx, sessions[i], k, s.dueAt, s, rec, idBase+int64(k)))
		})
	})
}

// runClosed runs closedLoops clients, each on its own session, sending
// perClient batches one after another: each goes out when the previous
// one is done. A fixed count, not a fixed time, keeps the handles the
// sessions hold, and so the peak memory, the same from run to run.
func (b *serviceBench) runClosed(ctx context.Context, perClient int, rec *recorder, idBase int64) rateRun {
	return b.withSessions(ctx, closedLoops, func(sessions []*service.Session, accepted []atomic.Int64) []sample {
		all := make([]sample, len(sessions)*perClient)
		var wg sync.WaitGroup
		for l := range sessions {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := l; k < len(all); k += len(sessions) {
					s := &all[k]
					t := time.Now()
					accepted[l].Add(b.sendBatch(ctx, sessions[l], k, t, s, rec, idBase+int64(k)))
					s.latency = time.Since(t)
				}
			}()
		}
		wg.Wait()
		return all
	})
}

// checkSession waits for every task of the session, checks that its
// counters balance with what the client saw accepted, and closes it.
func (b *serviceBench) checkSession(ctx context.Context, sess *service.Session, accepted int64) error {
	ctx, cancel := context.WithTimeout(ctx, 4*opTimeout)
	defer cancel()
	defer sess.Close(ctx)
	if accepted > 0 {
		if _, err := sess.Await(ctx, nil); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
	}
	st, err := sess.Stats(ctx)
	if err != nil {
		return err
	}
	if st.InFlight != 0 || st.Submitted != uint64(accepted) || st.Executed != st.Submitted || st.Failed != 0 || st.Skipped != 0 {
		return fmt.Errorf("stats do not balance: %+v, %d accepted", *st, accepted)
	}
	return nil
}

// measure runs rounds of three phases, an open loop at rateLo, one at
// rateHi and a closed loop. Traced, it then spends another quarter of d
// searching the ladder for the highest open-loop rate that meets
// latencyLimit; max_ok_rate is a per-layer metric, and the overload the
// search causes stays out of the untraced run. A refused or timed-out
// batch in the phases counts as failed; on the ladder it only fails the
// rung.
func (b *serviceBench) measure(ctx context.Context, d time.Duration, rec *recorder) phase {
	ph := phase{layer: map[string]float64{}}
	var loP50, hiP50, capacity, loAll, hiAll, submitMs, awaitMs, lateMs []float64
	var sent, refused int
	var wire int64
	id := int64(0)
	for round := 0; round < rounds; round++ {
		wire0 := b.wire.bytes.Load()
		lo := b.runRate(ctx, rateLo, d*7/100, rec, id)
		hi := b.runRate(ctx, rateHi, d*5/100, rec, id+1<<20)
		wire += b.wire.bytes.Load() - wire0
		closed := b.runClosed(ctx, closedPerClient(d), rec, id+2<<20)
		id += 3 << 20
		for _, r := range []*rateRun{&lo, &hi, &closed} {
			ph.failed += r.failed
			ph.tasks += r.tasks
			ph.ops += len(r.samples)
			for i := range r.samples {
				s := &r.samples[i]
				if s.refused {
					refused++
				}
				if !s.ok() && s.err == nil {
					ph.failed++ // refused or timed out: counted, not retried
				}
				if r == &closed {
					continue
				}
				sent++
				lateMs = append(lateMs, ms(s.late))
				if s.ok() {
					submitMs = append(submitMs, ms(s.submit))
					awaitMs = append(awaitMs, ms(s.await))
				}
			}
		}
		loLat, hiLat := lo.latencies(), hi.latencies()
		loAll, hiAll = append(loAll, loLat...), append(hiAll, hiLat...)
		loP50, hiP50 = append(loP50, median(loLat)), append(hiP50, median(hiLat))
		capacity = append(capacity, float64(closed.tasks)/closed.wall.Seconds())
	}

	maxOK := 0.0
	if rec != nil {
		var sentL, refusedL, failedL int
		maxOK, sentL, refusedL, failedL = b.searchLadder(ctx, d/4, rec, id)
		ph.ops += sentL
		refused += refusedL
		ph.failed += failedL
	}

	ph.tasksPerS = median(capacity)
	ph.p50 = median(loP50)
	ph.high = median(hiP50)
	ph.highLabel = fmt.Sprintf("median over %d rounds of the p50 at %d tasks/s, %d batches", rounds, rateHi, len(hiAll))
	lo99, _ := tail(loAll, 99)
	hi99, _ := tail(hiAll, 99)
	sub99, _ := tail(submitMs, 99)
	aw99, _ := tail(awaitMs, 99)
	late99, _ := tail(lateMs, 99)
	ph.layer = map[string]float64{
		"service.batch_ms_p50.lo":     median(loAll),
		"service.batch_ms_p99.lo":     lo99,
		"service.batch_ms_p50.hi":     median(hiAll),
		"service.batch_ms_p99.hi":     hi99,
		"service.max_ok_rate":         maxOK,
		"service.submit_ms.p50":       median(submitMs),
		"service.submit_ms.p99":       sub99,
		"service.await_ms.p50":        median(awaitMs),
		"service.await_ms.p99":        aw99,
		"service.refused_frac":        float64(refused) / float64(max(1, ph.ops)),
		"service.wire_bytes_per_task": float64(wire) / float64(max(1, sent*batchTasks)),
		"service.gen_late_ms.p99":     late99,
	}
	ph.notes = append(ph.notes, fmt.Sprintf("closed-loop capacity %.0f tasks/s, per round %.0f; batch p99 lo %.3g ms hi %.3g ms",
		ph.tasksPerS, capacity, lo99, hi99))
	if rec != nil {
		ph.notes = append(ph.notes, fmt.Sprintf("max_ok_rate %g tasks/s (p99 within %v)", maxOK, latencyLimit))
	}
	return ph
}

// searchLadder binary-searches the ladder for the highest rate that meets
// latencyLimit, each probe on fresh sessions after the previous probe
// drained, in about d overall. It returns that rate (0 if none), the batches
// sent, how many of them were refused, and the failed output checks.
func (b *serviceBench) searchLadder(ctx context.Context, d time.Duration, rec *recorder, id int64) (rate float64, sent, refused, failed int) {
	levels := int(math.Ceil(math.Log2(float64(len(ladder) + 1))))
	okIdx, badIdx := -1, len(ladder)
	for badIdx-okIdx > 1 {
		mid := (okIdx + badIdx) / 2
		perSecond := ladder[mid] / batchTasks
		probeD := max(d/time.Duration(levels), time.Duration(probeBatches/perSecond*float64(time.Second)))
		r := b.runRate(ctx, ladder[mid], probeD, rec, id)
		id += 1 << 20
		sent += len(r.samples)
		failed += r.failed
		for i := range r.samples {
			if r.samples[i].refused {
				refused++
			}
		}
		if r.failed == 0 && r.meetsLimit(perSecond, probeD) {
			okIdx = mid
		} else {
			badIdx = mid
		}
	}
	if okIdx >= 0 {
		rate = ladder[okIdx]
	}
	return rate, sent, refused, failed
}
