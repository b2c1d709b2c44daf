package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"io"
	"slices"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into
// a layer, or inside one of its own task bodies.
type span struct {
	name       string
	start, end int64 // nanoseconds since the recorder's base
	parent     int32 // index of the enclosing span, -1 for a root
	id         int64 // graph, batch or run the span belongs to
}

// recorder keeps spans in memory until the run ends. A nil *recorder is
// the untraced mode: add records nothing.
type recorder struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

// at converts a wall-clock instant to recorder nanoseconds.
func (r *recorder) at(t time.Time) int64 { return int64(t.Sub(r.base)) }

// add records a span and returns its index, for use as a parent.
func (r *recorder) add(name string, start, end time.Time, parent int32, id int64) int32 {
	if r == nil {
		return -1
	}
	s := span{name: name, start: r.at(start), end: r.at(end), parent: parent, id: id}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, s)
	return int32(len(r.spans) - 1)
}

// addNS records a span whose ends are already in recorder nanoseconds.
func (r *recorder) addNS(name string, start, end int64, parent int32, id int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, start: start, end: end, parent: parent, id: id})
}

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// lanes assigns every span a row so that spans sharing a row are either
// nested or disjoint, as the Trace Event Format requires of complete
// events on one thread. A span goes to its parent's row when it fits there.
func lanes(spans []span) []int {
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		if spans[a].start != spans[b].start {
			return cmp.Compare(spans[a].start, spans[b].start)
		}
		return cmp.Compare(spans[b].end, spans[a].end) // enclosing span first
	})
	lane := make([]int, len(spans))
	var stacks [][]int // per row: indices of the spans still open on it
	fits := func(row, i int) bool {
		st := stacks[row]
		for len(st) > 0 && spans[st[len(st)-1]].end <= spans[i].start {
			st = st[:len(st)-1]
		}
		stacks[row] = st
		return len(st) == 0 || spans[i].end <= spans[st[len(st)-1]].end
	}
	for _, i := range order {
		row := -1
		if p := spans[i].parent; p >= 0 && fits(lane[p], i) {
			row = lane[p]
		}
		for r := 0; row < 0 && r < len(stacks); r++ {
			if fits(r, i) {
				row = r
			}
		}
		if row < 0 {
			row = len(stacks)
			stacks = append(stacks, nil)
		}
		lane[i] = row
		stacks[row] = append(stacks[row], i)
	}
	return lane
}

// writeChrome writes spans as Trace Event Format JSON, loadable in
// Perfetto and chrome://tracing.
func writeChrome(w io.Writer, spans []span) error {
	rows := lanes(spans)
	bw := bufio.NewWriter(w)
	if _, err := io.WriteString(bw, `{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return err
	}
	enc := json.NewEncoder(bw)
	for i, s := range spans {
		if i > 0 {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
		}
		args := map[string]any{"id": s.id}
		if s.parent >= 0 {
			args["parent"] = spans[s.parent].name
		}
		ev := chromeEvent{Name: s.name, Ph: "X", TS: float64(s.start) / 1e3,
			Dur: float64(s.end-s.start) / 1e3, PID: 1, TID: rows[i], Args: args}
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(bw, "]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
