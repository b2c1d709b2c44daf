package segtab

import (
	"errors"
	"slices"
	"testing"

	"nexuspp/internal/depgraph"
	"nexuspp/internal/trace"
	"nexuspp/internal/workload"
)

var (
	errRoot  = errors.New("root failure")
	errOther = errors.New("second failure")
)

// step is one operation on a Table[string, string] keyed "k": a join
// (check queued and poison) or a leave (check the grants, in order, with
// the poison each inherits).
type step struct {
	leave  bool
	who    string
	write  bool
	root   error           // leave only
	queued int             // join only
	poison error           // join only
	grants []Grant[string] // leave only
}

func join(who string, write bool, queued int) step {
	return step{who: who, write: write, queued: queued}
}

func leave(who string, write bool, grants ...string) step {
	s := step{leave: true, who: who, write: write}
	for _, g := range grants {
		s.grants = append(s.grants, Grant[string]{Waiter: g})
	}
	return s
}

func TestProtocol(t *testing.T) {
	const r, w = false, true
	cases := []struct {
		name  string
		steps []step
	}{
		{"readers share", []step{
			join("r1", r, 0), join("r2", r, 0), join("r3", r, 0),
			leave("r2", r), leave("r1", r), leave("r3", r),
		}},
		{"writer waits for readers and holds back later readers", []step{
			join("r1", r, 0), join("r2", r, 0),
			join("w", w, 1), // sets ww
			join("r3", r, 2),
			leave("r1", r),
			leave("r2", r, "w"),
			leave("w", w, "r3"),
			leave("r3", r),
		}},
		{"WAW in kick-off order", []step{
			join("w1", w, 0), join("w2", w, 1), join("w3", w, 2),
			leave("w1", w, "w2"),
			leave("w2", w, "w3"),
			leave("w3", w),
		}},
		{"reader run released behind a writer", []step{
			join("w1", w, 0),
			join("r1", r, 1), join("r2", r, 2),
			join("w2", w, 3), join("r3", r, 4),
			leave("w1", w, "r1", "r2"), // w2 stays queued; ww is set
			leave("r2", r),
			leave("r1", r, "w2"),
			leave("w2", w, "r3"),
			leave("r3", r),
		}},
		{"poison reaches later pops and joins", []step{
			join("w1", w, 0), join("r1", r, 1), join("w2", w, 2),
			{leave: true, who: "w1", write: w, root: errRoot,
				grants: []Grant[string]{{Waiter: "r1", Poison: errRoot}}},
			{who: "r2", write: r, queued: 2, poison: errRoot},
			// The first root sticks: a second failure does not replace it.
			{leave: true, who: "r1", write: r, root: errOther,
				grants: []Grant[string]{{Waiter: "w2", Poison: errRoot}}},
			{leave: true, who: "w2", write: w,
				grants: []Grant[string]{{Waiter: "r2", Poison: errRoot}}},
			leave("r2", r),
		}},
		{"a drained segment is deleted and its poison dies with it", []step{
			join("w1", w, 0),
			{leave: true, who: "w1", write: w, root: errRoot},
			join("r1", r, 0), // fresh segment: no poison
			leave("r1", r),
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var tab Table[string, string]
			for i, s := range tc.steps {
				if !s.leave {
					q, p := tab.Join("k", s.write, s.who)
					if q != s.queued || p != s.poison {
						t.Fatalf("step %d: Join(%s) = %d, %v; want %d, %v", i, s.who, q, p, s.queued, s.poison)
					}
					continue
				}
				got := tab.Leave("k", s.write, s.root, nil)
				if !slices.Equal(got, s.grants) {
					t.Fatalf("step %d: Leave(%s) granted %v, want %v", i, s.who, got, s.grants)
				}
			}
			if tab.Live("k") || tab.Len() != 0 {
				t.Fatalf("segment not deleted on drain: live=%v len=%d", tab.Live("k"), tab.Len())
			}
		})
	}
}

func TestLeaveAppendsToBuffer(t *testing.T) {
	var tab Table[int, int]
	tab.Join(1, true, 10)
	tab.Join(1, true, 11)
	tab.Join(2, true, 20)
	tab.Join(2, true, 21)
	if !tab.Live(1) || !tab.Live(2) || tab.Live(3) || tab.Len() != 2 {
		t.Fatalf("live segments wrong: len=%d", tab.Len())
	}
	out := tab.Leave(1, true, nil, make([]Grant[int], 0, 4))
	out = tab.Leave(2, true, nil, out)
	if want := []Grant[int]{{Waiter: 11}, {Waiter: 21}}; !slices.Equal(out, want) {
		t.Fatalf("grants = %v, want %v", out, want)
	}
}

func TestLeaveUnknownKeyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Leave on a key with no live segment did not panic")
		}
	}()
	var tab Table[string, int]
	tab.Leave("missing", false, nil, nil)
}

// FuzzTable drives a Table with a random access sequence whose tasks
// finish in a random order among those the table has granted, and checks
// the table against the depgraph oracle: no task may be granted while an
// oracle predecessor is unfinished, every task must eventually be granted,
// and the table must be empty at the end.
//
// The input is read as: byte 0 sets the task count; per task one byte of
// access count and key choices plus one byte per access of mode; then a
// schedule of bytes, each choosing between submitting the next task and
// finishing one of the granted ones.
func FuzzTable(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{12, 0x31, 1, 2, 0x22, 0, 1, 0x13, 2, 0, 0x40, 1})
	f.Add([]byte{30, 0xff, 0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70, 0x80, 0x90, 0xa0, 0xb0})
	f.Add([]byte{20, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{40, 0x55, 0xaa, 0x0f, 0xf0, 0x33, 0xcc, 0x99, 0x66, 0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &input{data: data}
		tr := randomTrace(in)
		g := depgraph.Build(workload.FromTrace(tr))
		n := len(tr.Tasks)

		var tab Table[uint64, int32]
		dc := make([]int, n)
		finished := make([]bool, n)
		var granted []int32 // granted, not yet finished
		grant := func(id int32) {
			for _, p := range g.Preds(int(id)) {
				if !finished[p] {
					t.Fatalf("task %d granted before its oracle predecessor %d finished", id, p)
				}
			}
			granted = append(granted, id)
		}
		submitted, done := 0, 0
		for done < n {
			if submitted < n && (len(granted) == 0 || in.next()%2 == 0) {
				id := int32(submitted)
				submitted++
				for _, p := range tr.Tasks[id].Params {
					if q, _ := tab.Join(p.Addr, p.Mode.Writes(), id); q > 0 {
						dc[id]++
					}
				}
				if dc[id] == 0 {
					grant(id)
				}
				continue
			}
			if len(granted) == 0 {
				t.Fatalf("deadlock: %d of %d tasks finished, none granted", done, n)
			}
			i := int(in.next()) % len(granted)
			id := granted[i]
			granted = slices.Delete(granted, i, i+1)
			finished[id] = true
			done++
			var out []Grant[int32]
			for _, p := range tr.Tasks[id].Params {
				out = tab.Leave(p.Addr, p.Mode.Writes(), nil, out)
			}
			for _, gr := range out {
				if dc[gr.Waiter]--; dc[gr.Waiter] == 0 {
					grant(gr.Waiter)
				}
			}
		}
		if tab.Len() != 0 {
			t.Fatalf("%d segments left after every task finished", tab.Len())
		}
	})
}

// input hands out fuzz bytes, then zeros once they run out.
type input struct {
	data []byte
	pos  int
}

func (in *input) next() byte {
	if in.pos >= len(in.data) {
		return 0
	}
	b := in.data[in.pos]
	in.pos++
	return b
}

// randomTrace builds up to 64 tasks over 5 keys, each with one to three
// distinct keys — callers merge duplicate keys of a task before they join.
func randomTrace(in *input) *trace.Trace {
	n := int(in.next()) % 65
	tr := &trace.Trace{Name: "fuzz"}
	for id := 0; id < n; id++ {
		b := in.next()
		spec := trace.TaskSpec{ID: uint64(id)}
		used := map[uint64]bool{}
		for a := 0; a <= int(b%3); a++ {
			key := uint64(b>>(2+a)) % 5
			if used[key] {
				continue
			}
			used[key] = true
			mode := []trace.AccessMode{trace.In, trace.Out, trace.InOut}[in.next()%3]
			spec.Params = append(spec.Params, trace.Param{Addr: key, Mode: mode})
		}
		tr.Tasks = append(tr.Tasks, spec)
	}
	return tr
}
