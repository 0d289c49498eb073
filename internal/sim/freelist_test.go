package sim

import (
	"reflect"
	"testing"
	"unsafe"
)

func TestFreeListRecyclesZeroed(t *testing.T) {
	type rec struct {
		n   int
		sig *Signal
	}
	var f FreeList[rec]
	a := f.Get()
	a.n, a.sig = 7, NewSignal()
	f.Put(a)
	if f.Len() != 1 {
		t.Fatalf("Len after Put = %d, want 1", f.Len())
	}
	b := f.Get()
	if b != a {
		t.Fatal("Get did not reuse the retired record")
	}
	if *b != (rec{}) {
		t.Fatalf("reused record not zeroed: %+v", *b)
	}
	if c := f.Get(); c == b {
		t.Fatal("an empty free list handed out a live record")
	}
}

// thenOrder runs one event at t=5 that pushes a marker, completes a
// target through either a fired one-callback signal or Then.Run, then
// pushes a second marker, and returns the execution order and event
// count.
func thenOrder(direct bool, mk func(e *Engine, log *[]string) (Then, func(*Signal))) ([]string, uint64) {
	e := NewEngine()
	var log []string
	then, register := mk(e, &log)
	e.At(5, func() {
		e.At(5, func() { log = append(log, "before") })
		if direct {
			then.Run(e)
		} else {
			s := NewSignal()
			register(s)
			s.Fire(e)
		}
		e.At(5, func() { log = append(log, "after") })
	})
	e.At(5, func() { log = append(log, "queued") })
	e.Run()
	return log, e.EventsExecuted()
}

// TestThenMatchesSingleCallbackSignal pins the direct-form contract:
// Then.Run pushes exactly what firing a signal holding that one
// callback pushes, so the order and count of events are unchanged.
func TestThenMatchesSingleCallbackSignal(t *testing.T) {
	forms := map[string]func(e *Engine, log *[]string) (Then, func(*Signal)){
		"ThenFire": func(e *Engine, log *[]string) (Then, func(*Signal)) {
			dst := NewSignal()
			dst.OnFire(e, func() { *log = append(*log, "target") })
			return ThenFire(dst), func(s *Signal) { s.Chain(e, dst) }
		},
		"ThenCall": func(e *Engine, log *[]string) (Then, func(*Signal)) {
			fn := func() { *log = append(*log, "target") }
			return ThenCall(fn), func(s *Signal) { s.OnFire(e, fn) }
		},
		"ThenArg": func(e *Engine, log *[]string) (Then, func(*Signal)) {
			fn := func(_ *Engine, arg unsafe.Pointer) { *log = append(*log, *(*string)(arg)) }
			target := "target"
			arg := unsafe.Pointer(&target)
			return ThenArg(fn, arg), func(s *Signal) { s.OnFireArg(e, fn, arg) }
		},
	}
	for name, mk := range forms {
		viaSignal, nSignal := thenOrder(false, mk)
		direct, nDirect := thenOrder(true, mk)
		if !reflect.DeepEqual(viaSignal, direct) || nSignal != nDirect {
			t.Errorf("%s: signal path ran %v in %d events, direct path %v in %d", name, viaSignal, nSignal, direct, nDirect)
		}
		if len(direct) != 4 {
			t.Errorf("%s: direct path ran %v, want four events", name, direct)
		}
	}
	var zero Then
	e := NewEngine()
	zero.Run(e)
	if !e.Idle() {
		t.Error("the zero Then scheduled an event")
	}
}

// TestSignalFireOrderWithOverflow checks that waiters and callbacks
// beyond the inline slots still run in registration order, waiters
// first.
func TestSignalFireOrderWithOverflow(t *testing.T) {
	e := NewEngine()
	s := NewSignal()
	var log []string
	for _, name := range []string{"p0", "p1", "p2"} {
		name := name
		e.Spawn(name, func(p *Proc) {
			p.Wait(s)
			log = append(log, name)
		})
	}
	e.Run()
	for _, name := range []string{"c0", "c1", "c2", "c3"} {
		name := name
		s.OnFire(e, func() { log = append(log, name) })
	}
	e.At(1, func() { s.Fire(e) })
	e.Run()
	want := []string{"p0", "p1", "p2", "c0", "c1", "c2", "c3"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("fire order %v, want %v", log, want)
	}
	if size := unsafe.Sizeof(Signal{}); size != 64 {
		t.Errorf("Signal is %d bytes, want 64", size)
	}
}
