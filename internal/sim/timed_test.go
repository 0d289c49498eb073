package sim

import (
	"sort"
	"testing"
)

// drainTimed pops every pending event and asserts they come back in
// exactly the (at, seq) order of want.
func drainTimed(t *testing.T, q *timedQueue, want []event) {
	t.Helper()
	sort.Slice(want, func(i, j int) bool { return want[i].before(want[j]) })
	for i, w := range want {
		if q.n != len(want)-i {
			t.Fatalf("pop %d: %d pending, want %d", i, q.n, len(want)-i)
		}
		got := q.popMin()
		if got.at != w.at || got.seq != w.seq {
			t.Fatalf("pop %d: got (%d, %d), want (%d, %d)", i, got.at, got.seq, w.at, w.seq)
		}
	}
	if q.n != 0 || len(q.rest) != 0 {
		t.Fatalf("queue not drained: n=%d, heap %d", q.n, len(q.rest))
	}
}

// TestTimedQueueHeadDisplacement pins the push path that replaces the
// cached head: a push earlier than every pending event must become the
// new head immediately (one field read for the engine's peek), and the
// displaced head must re-enter the heap without losing its place in
// the total order.
func TestTimedQueueHeadDisplacement(t *testing.T) {
	var q timedQueue
	var pushed []event
	seq := uint64(0)
	push := func(at Time) {
		seq++
		ev := event{at: at, seq: seq}
		q.push(ev)
		pushed = append(pushed, ev)
	}
	// Fill far ahead of t=0, then push successively earlier heads,
	// including one tie pair at the very front: the second 777 sorts
	// after the first, so only the first displaces the head.
	for i := 0; i < 300; i++ {
		push(Time(1_000_000 + i*64))
	}
	for _, c := range []struct{ at, head Time }{{500_000, 500_000}, {10_000, 10_000}, {777, 777}, {777, 777}, {3, 3}} {
		push(c.at)
		if q.head.at != c.head {
			t.Fatalf("push %d: head at %d, want %d", c.at, q.head.at, c.head)
		}
	}
	if q.head.seq != seq {
		t.Fatalf("head seq %d, want the last push %d", q.head.seq, seq)
	}
	drainTimed(t, &q, pushed)
}

// TestTimedQueueCapacityFollowsPeak bounds the memory the timed store
// keeps: after a workload that alternates same-instant bursts with
// spread-out events, its retained backing capacity must stay within
// twice the peak standing population, plus a small constant, and every
// pop must still come back in (at, seq) order. A store that keeps
// per-slot or per-phase capacity (one bucket grown by each burst, a
// second array per geometry) fails it.
func TestTimedQueueCapacityFollowsPeak(t *testing.T) {
	var q timedQueue
	rng := NewRNG(11)
	var last event
	var seq uint64
	peak := 0
	push := func(at Time) {
		seq++
		q.push(event{at: at, seq: seq})
		if q.n > peak {
			peak = q.n
		}
	}
	pop := func() {
		ev := q.popMin()
		if ev.before(last) {
			t.Fatalf("out of order: (%d, %d) after (%d, %d)", ev.at, ev.seq, last.at, last.seq)
		}
		last = ev
	}
	for round := 0; round < 8; round++ {
		// A burst of same-instant events, drained.
		burst := last.at + 1 + Time(rng.Intn(1<<16))
		for i := 0; i < 3000; i++ {
			push(burst)
		}
		for q.n > 0 {
			pop()
		}
		// A hold phase over widely spread events, then drained.
		for q.n < 1000 {
			push(last.at + 1 + Time(rng.Intn(1<<20)))
		}
		for i := 0; i < 5000; i++ {
			push(last.at + 1 + Time(rng.Intn(1<<20)))
			pop()
		}
		for q.n > 0 {
			pop()
		}
	}
	if retained, bound := cap(q.rest)+1, 2*peak+64; retained > bound {
		t.Fatalf("retains %d event slots for a peak of %d pending (bound %d)", retained, peak, bound)
	}
}
