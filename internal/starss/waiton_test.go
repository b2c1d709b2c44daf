package starss

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestWaitOnKeys(t *testing.T) {
	rt := New(Config{Workers: 4})
	defer mustClose(t, rt)
	var aDone, bDone atomic.Bool
	block := make(chan struct{})
	rt.MustSubmit(Task{
		Deps: []Dep{Out("a")},
		Do:   func(context.Context) error { aDone.Store(true); return nil },
	})
	rt.MustSubmit(Task{
		Deps: []Dep{Out("b")},
		Do:   func(context.Context) error { <-block; bDone.Store(true); return nil },
	})
	// Waiting on "a" must not wait for the blocked "b" task.
	rt.WaitOn(context.Background(), "a")
	if !aDone.Load() {
		t.Fatal("WaitOn(a) returned before a's task finished")
	}
	if bDone.Load() {
		t.Fatal("b finished unexpectedly early")
	}
	close(block)
	rt.WaitOn(context.Background(), "b")
	if !bDone.Load() {
		t.Fatal("WaitOn(b) returned before b's task finished")
	}
}

func TestWaitOnUnusedKeyReturnsImmediately(t *testing.T) {
	rt := New(Config{Workers: 1})
	defer mustClose(t, rt)
	rt.WaitOn(context.Background(), "never-used") // must not hang
	rt.WaitOn(context.Background())               // empty key set is a no-op
}

func TestWaitOnAfterClose(t *testing.T) {
	// Regression: WaitOn used to return silently after shutdown; it must
	// report ErrStopped instead of pretending the keys went quiet.
	rt := New(Config{Workers: 1})
	mustClose(t, rt)
	if err := rt.WaitOn(context.Background(), "x"); err != ErrStopped {
		t.Fatalf("WaitOn after Close = %v, want ErrStopped", err)
	}
	if err := rt.Wait(context.Background()); err != ErrStopped {
		t.Fatalf("Wait after Close = %v, want ErrStopped", err)
	}
}

// TestWaitOnSeesTaskJustSubmitted pins WaitOn's "observes every Submit that
// returned before the call" on both engines. On the maestro, Submit returns
// once the resolver goroutine has received the task, before Check Deps has
// joined it to its segment, so WaitOn must not probe the key before then.
func TestWaitOnSeesTaskJustSubmitted(t *testing.T) {
	for name, rt := range newRuntimes(Config{Workers: 2, Window: 8}) {
		t.Run(name, func(t *testing.T) {
			defer mustClose(t, rt)
			for i := 0; i < 50; i++ {
				gate := make(chan struct{})
				h := rt.MustSubmit(Task{
					Deps: []Dep{Out("a")},
					Do:   func(context.Context) error { <-gate; return nil },
				})
				ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
				err := rt.WaitOn(ctx, "a")
				cancel()
				close(gate)
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("round %d: WaitOn(a) with a's task gated = %v, want %v", i, err, context.DeadlineExceeded)
				}
				if err := h.Wait(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
