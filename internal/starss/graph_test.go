package starss

import (
	"bytes"
	"context"
	"strings"
	"sync/atomic"
	"testing"
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

func TestGraphRecording(t *testing.T) {
	rt := New(Config{Workers: 2, RecordGraph: true})
	rt.MustSubmit(Task{Name: "w", Deps: []Dep{Out("k")}, Do: func(context.Context) error { return nil }})
	rt.MustSubmit(Task{Name: "r1", Deps: []Dep{In("k")}, Do: func(context.Context) error { return nil }})
	rt.MustSubmit(Task{Name: "r2", Deps: []Dep{In("k")}, Do: func(context.Context) error { return nil }})
	rt.MustSubmit(Task{Name: "w2", Deps: []Dep{Out("k")}, Do: func(context.Context) error { return nil }})
	rt.Wait(context.Background())
	names, edges := rt.Graph()
	if len(names) != 4 || names[0] != "w" || names[3] != "w2" {
		t.Fatalf("names = %v", names)
	}
	// Expected edges: r1<-w, r2<-w, w2<-w (WAW), w2<-r1, w2<-r2 (WAR).
	if len(edges) != 5 {
		t.Fatalf("edges = %v", edges)
	}
	has := func(from, to int) bool {
		for _, e := range edges {
			if e.From == from && e.To == to {
				return true
			}
		}
		return false
	}
	for _, e := range [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 3}, {2, 3}} {
		if !has(e[0], e[1]) {
			t.Errorf("missing edge %d->%d in %v", e[0], e[1], edges)
		}
	}
	mustClose(t, rt)
	// The graph stays readable after shutdown.
	names2, edges2 := rt.Graph()
	if len(names2) != 4 || len(edges2) != 5 {
		t.Fatalf("post-shutdown graph %v %v", names2, edges2)
	}
}

func TestGraphDisabledIsEmpty(t *testing.T) {
	rt := New(Config{Workers: 1})
	rt.MustSubmit(Task{Deps: []Dep{Out("k")}, Do: func(context.Context) error { return nil }})
	rt.Wait(context.Background())
	names, edges := rt.Graph()
	if len(names) != 0 || len(edges) != 0 {
		t.Fatalf("recording disabled but graph = %v %v", names, edges)
	}
	mustClose(t, rt)
}

func TestExportDOT(t *testing.T) {
	rt := New(Config{Workers: 1, RecordGraph: true})
	rt.MustSubmit(Task{Name: "producer", Deps: []Dep{Out("k")}, Do: func(context.Context) error { return nil }})
	rt.MustSubmit(Task{Deps: []Dep{In("k")}, Do: func(context.Context) error { return nil }})
	rt.Wait(context.Background())
	var buf bytes.Buffer
	if err := rt.ExportDOT(&buf); err != nil {
		t.Fatal(err)
	}
	mustClose(t, rt)
	out := buf.String()
	for _, want := range []string{"digraph starss {", `t0 [label="producer"]`, `t1 [label="task1"]`, "t0 -> t1;", "}"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT missing %q:\n%s", want, out)
		}
	}
}

func TestGraphMatchesHazardSemantics(t *testing.T) {
	// Inout chains record one edge per link.
	rt := New(Config{Workers: 4, RecordGraph: true})
	for i := 0; i < 10; i++ {
		rt.MustSubmit(Task{Deps: []Dep{InOut("c")}, Do: func(context.Context) error { return nil }})
	}
	rt.Wait(context.Background())
	_, edges := rt.Graph()
	mustClose(t, rt)
	if len(edges) != 9 {
		t.Fatalf("chain of 10 should record 9 edges, got %d", len(edges))
	}
}
