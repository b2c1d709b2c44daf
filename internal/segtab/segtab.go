// Package segtab is the software Dependence Table: the paper's per-segment
// access state (isOut, readers count, "writer waits" flag, kick-off list)
// and the two operations over it, Check Deps (Listing 2) and Handle
// Finished (SSIII-B). It is unbounded — software tables grow — and not
// safe for concurrent use; callers serialise access to one Table (the
// sharded starss runtime holds a bank lock, the maestro baseline and the
// softrts model own theirs from a single goroutine).
//
// Readers share a segment. A writer waits for the segment's current owner
// and, behind readers, sets the ww flag so later readers queue behind it
// instead of overtaking — WAR and WAW are enforced without renaming, the
// paper's "safe guard" choice. Waiters are released in kick-off order.
//
// A Table also carries failure poison: a Leave with a non-nil root marks
// the segment, every waiter released afterwards inherits that root, and so
// does every access that joins the segment while it is live. Poison dies
// with the segment: once the key drains and its segment is deleted, later
// joins start clean.
//
// The bounded hardware table, with slots, dummy segments and access
// cycles, is internal/core's DepTable; the reference the two are checked
// against is internal/depgraph.
package segtab

import "fmt"

// Table maps keys to the live segments of in-flight accesses; W is the
// caller's waiter identity (a task node, a task ID). The zero value is an
// empty table ready to use.
type Table[K comparable, W any] struct {
	segs map[K]*segment[W]
}

// Grant is one waiter released by Leave, with the poison it inherits (nil
// when the segment is clean).
type Grant[W any] struct {
	Waiter W
	Poison error
}

type segment[W any] struct {
	isOut  bool
	rdrs   int
	ww     bool
	ko     []entry[W]
	poison error
}

// entry is one queued access in a kick-off list.
type entry[W any] struct {
	waiter W
	write  bool
}

// Join runs Check Deps for one access of waiter to key: write is true for
// out and inout accesses. It returns queued 0 when the access is granted at
// once, otherwise the length of the segment's kick-off list after waiter
// was appended to it. poison is the root cause a live poisoned segment
// passes to every access that joins it, granted or queued: without it a
// reader sharing the segment with already-skipped readers would run
// against data the failed producer never wrote.
func (t *Table[K, W]) Join(key K, write bool, waiter W) (queued int, poison error) {
	seg := t.segs[key]
	if seg == nil {
		if t.segs == nil {
			t.segs = make(map[K]*segment[W])
		}
		seg = &segment[W]{}
		t.segs[key] = seg
		if write {
			seg.isOut = true
		} else {
			seg.rdrs = 1
		}
		return 0, nil
	}
	if !write && !seg.isOut && !seg.ww {
		seg.rdrs++
		return 0, seg.poison
	}
	seg.ko = append(seg.ko, entry[W]{waiter: waiter, write: write})
	if write && !seg.isOut {
		seg.ww = true
	}
	return len(seg.ko), seg.poison
}

// Leave runs Handle Finished for one granted access to key (write as given
// to Join). A non-nil root poisons the segment if it is still clean. Each
// waiter the release grants is appended to out, in kick-off order, with the
// poison it inherits; the extended slice is returned. A drained segment is
// deleted. Leave panics when key has no live segment: that is a caller bug.
func (t *Table[K, W]) Leave(key K, write bool, root error, out []Grant[W]) []Grant[W] {
	seg := t.segs[key]
	if seg == nil {
		panic(fmt.Sprintf("segtab: Leave on key %v with no live segment", key))
	}
	if root != nil && seg.poison == nil {
		seg.poison = root
	}
	if !write {
		seg.rdrs--
		if seg.rdrs > 0 {
			return out
		}
		if !seg.ww {
			delete(t.segs, key)
			return out
		}
		// The last reader hands the segment to the writer that set ww.
		seg.isOut = true
		seg.ww = false
		return seg.pop(out)
	}
	seg.isOut = false
	if len(seg.ko) == 0 {
		delete(t.segs, key)
		return out
	}
	if seg.ko[0].write {
		seg.isOut = true
		return seg.pop(out)
	}
	// Release the run of readers at the head; a writer behind them waits
	// for all of them.
	for len(seg.ko) > 0 && !seg.ko[0].write {
		seg.rdrs++
		out = seg.pop(out)
	}
	if len(seg.ko) > 0 {
		seg.ww = true
	}
	return out
}

// pop releases the head of the kick-off list.
func (seg *segment[W]) pop(out []Grant[W]) []Grant[W] {
	e := seg.ko[0]
	seg.ko = seg.ko[1:]
	return append(out, Grant[W]{Waiter: e.waiter, Poison: seg.poison})
}

// Live reports whether key has a live segment, i.e. an access to it has
// joined and not yet left.
func (t *Table[K, W]) Live(key K) bool {
	_, ok := t.segs[key]
	return ok
}

// Len returns the number of live segments.
func (t *Table[K, W]) Len() int { return len(t.segs) }
