package sim

import "unsafe"

// Then is one completion action in event payload form: fire a signal
// (ThenFire), call a func() (ThenCall) or call an ArgFunc with a record
// (ThenArg). A signal stores its registered callbacks this way, and a
// recycled record whose caller only chains or gates on its completion
// stores its target this way instead of a signal of its own: Run
// pushes exactly the event that firing a signal holding this one
// callback would push, at the same point, so taking the target
// directly changes neither the event order nor the event count. The
// zero Then does nothing.
type Then struct {
	fn  unsafe.Pointer // nil fires (*Signal)(arg)
	arg unsafe.Pointer // nil with fn set calls the func() in fn
}

// ThenFire returns the action that fires s — what Chain(e, s) registers.
// A nil s gives the zero Then.
func ThenFire(s *Signal) Then { return Then{arg: unsafe.Pointer(s)} }

// ThenCall returns the action that calls fn — what OnFire(e, fn)
// registers.
func ThenCall(fn func()) Then { return Then{fn: fnToPtr(fn)} }

// ThenArg returns the action that calls fn with arg — what
// OnFireArg(e, fn, arg) registers. arg must be non-nil.
func ThenArg(fn ArgFunc, arg unsafe.Pointer) Then {
	if arg == nil {
		panic("sim: ThenArg requires a non-nil arg")
	}
	return Then{fn: argFnToPtr(fn), arg: arg}
}

// Run schedules the action at the current time.
//
//gat:hotpath
func (t Then) Run(e *Engine) {
	if t != (Then{}) {
		e.push(e.now, t.fn, t.arg)
	}
}

// Signal is a one-shot broadcast: it starts unfired, fires exactly once,
// and wakes every waiting proc and runs every registered callback when it
// does. Waiting on an already-fired signal completes immediately.
//
// Signals are the completion primitive used throughout the simulator:
// GPU events, network transfer completions, and request objects all
// expose Signals.
// Signal stores its first waiter and first two callbacks inline: one
// each is the common case throughout the simulator (a request with one
// waiting rank, a transfer with one completion callback), and two
// callbacks is the next most common (an accounting hook plus the
// transfer start on one gate signal), so the inline slots make both
// allocation-free. Registration order is preserved — the inline slots
// are always the earliest registrations. The rarer overflow lives
// behind one pointer, which keeps a Signal at 64 bytes: most signals
// are allocated per operation, so their size is felt in every run.
type Signal struct {
	fired    bool
	w0       *Proc
	ga       *waitAll
	cb0, cb1 Then
	more     *sigMore
}

// sigMore holds a signal's second and later waiters and third and
// later callbacks.
type sigMore struct {
	waiters   []*Proc
	callbacks []Then
}

// NewSignal returns an unfired signal. Signals are owned by the
// garbage collector: a caller may hold one for as long as it likes.
func NewSignal() *Signal { return &Signal{} }

// firedSignal is the shared already-fired signal. Safe to share across
// engines and goroutines: every Signal method is a pure read once fired
// (Fire is a no-op, Wait returns, OnFire and Chain only schedule).
var firedSignal = &Signal{fired: true}

// FiredSignal returns a signal that has already fired, useful as a
// no-op dependency. The same shared instance is returned every time;
// fired signals are immutable.
func FiredSignal() *Signal { return firedSignal }

// Fired reports whether the signal has fired.
func (s *Signal) Fired() bool { return s.fired }

// Fire marks the signal fired, schedules all waiting procs to resume at
// the current time, and runs callbacks in registration order. Firing an
// already-fired signal is a no-op.
//
// Waiters resume through the shared procResume dispatch and callbacks
// are re-queued in their stored payload form, so firing a signal
// allocates nothing regardless of fan-out.
//
//gat:hotpath
func (s *Signal) Fire(e *Engine) {
	if s.fired {
		return
	}
	s.fired = true
	if s.w0 != nil {
		e.push(e.now, procResumePtr, unsafe.Pointer(s.w0))
		s.w0 = nil
	}
	more := s.more
	s.more = nil
	if more != nil {
		for _, p := range more.waiters {
			e.push(e.now, procResumePtr, unsafe.Pointer(p))
		}
	}
	if g := s.ga; g != nil {
		// Group wait: decrement at fire time, in the waiter slot of the
		// push order, so the group's single resume is pushed at exactly
		// the position a plain waiter's resume would occupy on the last
		// signal to fire (see Proc.WaitAll).
		s.ga = nil
		g.n--
		if g.n == 0 {
			e.push(e.now, procResumePtr, unsafe.Pointer(g.p))
			e.waitAlls.Put(g)
		}
	}
	s.cb0.Run(e)
	s.cb0 = Then{}
	s.cb1.Run(e)
	s.cb1 = Then{}
	if more != nil {
		for _, cb := range more.callbacks {
			e.push(e.now, cb.fn, cb.arg)
		}
	}
}

// addCB appends a callback in registration order, filling the inline
// slots first.
func (s *Signal) addCB(cb Then) {
	if s.more == nil || len(s.more.callbacks) == 0 {
		if s.cb0 == (Then{}) {
			s.cb0 = cb
			return
		}
		if s.cb1 == (Then{}) {
			s.cb1 = cb
			return
		}
	}
	m := s.overflow()
	m.callbacks = append(m.callbacks, cb)
}

// overflow returns the signal's overflow record, creating it on first
// use.
func (s *Signal) overflow() *sigMore {
	if s.more == nil {
		s.more = &sigMore{}
	}
	return s.more
}

// OnFire registers cb to run (as a scheduled event) when the signal
// fires. If the signal already fired, cb is scheduled immediately.
func (s *Signal) OnFire(e *Engine, cb func()) {
	if s.fired {
		e.At(e.now, cb)
		return
	}
	s.addCB(ThenCall(cb))
}

// OnFireArg registers a static callback with a record argument, the
// allocation-free form of OnFire for recycled records: the
// (fn, arg) pair is stored and later scheduled verbatim, no closure is
// created at any point. arg must be non-nil — a nil arg would make the
// stored pair ambiguous with the other payload forms.
//
//gat:hotpath
func (s *Signal) OnFireArg(e *Engine, fn ArgFunc, arg unsafe.Pointer) {
	if arg == nil {
		panic("sim: OnFireArg requires a non-nil arg")
	}
	if s.fired {
		e.push(e.now, argFnToPtr(fn), arg)
		return
	}
	s.addCB(Then{fn: argFnToPtr(fn), arg: arg})
}

// Chain arranges for dst to fire (as its own scheduled event) when s
// fires; if s has already fired, dst's firing is scheduled at the
// current time. Either way the link is carried in the fire-signal
// payload form, so chaining allocates nothing.
func (s *Signal) Chain(e *Engine, dst *Signal) {
	if s.fired {
		e.FireAt(e.now, dst)
		return
	}
	s.addCB(ThenFire(dst))
}

// FireAt schedules s to fire at absolute time t. It is the
// allocation-free form of At(t, func() { s.Fire(e) }), the completion
// idiom of every transfer model (pipes, NICs, staging): the event
// carries the signal pointer directly instead of a closure.
//
//gat:hotpath
func (e *Engine) FireAt(t Time, s *Signal) { e.push(t, nil, unsafe.Pointer(s)) }

// delayOp carries one AfterSignal link: when the source signal fires,
// the op schedules its out signal to fire d later and is recycled.
type delayOp struct {
	d   Time
	out *Signal
}

// delayOpFire is the ArgFunc behind AfterSignal.
func delayOpFire(e *Engine, arg unsafe.Pointer) {
	op := (*delayOp)(arg)
	e.FireAt(e.now+op.d, op.out)
	e.delayOps.Put(op)
}

// AfterSignal returns a signal that fires d after sig fires. A
// non-positive delay returns sig itself. The link record is recycled
// once sig fires; only the returned signal outlives it.
func (e *Engine) AfterSignal(sig *Signal, d Time) *Signal {
	if d <= 0 {
		return sig
	}
	out := NewSignal()
	op := e.delayOps.Get()
	op.d, op.out = d, out
	sig.OnFireArg(e, delayOpFire, unsafe.Pointer(op))
	return out
}

func (s *Signal) addWaiter(p *Proc) {
	if s.w0 == nil && (s.more == nil || len(s.more.waiters) == 0) {
		s.w0 = p
		return
	}
	m := s.overflow()
	m.waiters = append(m.waiters, p)
}

// AllOf returns a signal that fires once every input signal has fired.
// With no inputs it returns an already-fired signal.
func AllOf(e *Engine, sigs ...*Signal) *Signal {
	out := NewSignal()
	remaining := 0
	for _, s := range sigs {
		if !s.Fired() {
			remaining++
		}
	}
	if remaining == 0 {
		out.fired = true
		return out
	}
	n := remaining
	for _, s := range sigs {
		if s.Fired() {
			continue
		}
		s.OnFire(e, func() {
			n--
			if n == 0 {
				out.Fire(e)
			}
		})
	}
	return out
}

// Counter fires a signal after a fixed number of Add calls. It is used
// for completion reductions ("all chares reported done").
type Counter struct {
	remaining int
	sig       *Signal
}

// NewCounter returns a counter that fires after n calls to Add. n must
// be positive.
func NewCounter(n int) *Counter {
	if n <= 0 {
		panic("sim: counter needs positive count")
	}
	return &Counter{remaining: n, sig: NewSignal()}
}

// Add decrements the counter by one and fires the signal at zero.
// Calling Add more times than the initial count panics: it indicates a
// double-completion bug in the caller.
func (c *Counter) Add(e *Engine) {
	if c.remaining <= 0 {
		panic("sim: counter over-released")
	}
	c.remaining--
	if c.remaining == 0 {
		c.sig.Fire(e)
	}
}

// Remaining returns the number of outstanding Add calls.
func (c *Counter) Remaining() int { return c.remaining }

// Done returns the signal fired when the count reaches zero.
func (c *Counter) Done() *Signal { return c.sig }

// Queue is a FIFO queue with blocking Pop for procs. Push may be called
// from event or proc context.
//
// Items live in a slice with an explicit head index rather than being
// re-sliced off the front: re-slicing leaks capacity with every pop, so
// a steady push/pop cycle would reallocate continuously. With the head
// index the backing array is reused and the steady state allocates
// nothing. Waiters are woken through the shared procResume dispatch and
// removed by copy-down for the same reason.
type Queue[T any] struct {
	items   []T
	head    int // index of the queue front within items
	waiters []*Proc
}

// NewQueue returns an empty queue.
func NewQueue[T any]() *Queue[T] { return &Queue[T]{} }

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }

// Push appends v and wakes the longest-waiting proc, if any. Wakeups
// are one-per-push: a push never wakes more than one waiter, and a
// woken waiter that finds the queue emptied (an event callback stole
// the item via TryPop) re-enters the wait list at the tail.
//
//gat:hotpath
func (q *Queue[T]) Push(e *Engine, v T) {
	q.items = append(q.items, v)
	if len(q.waiters) > 0 {
		p := q.waiters[0]
		copy(q.waiters, q.waiters[1:])
		q.waiters = q.waiters[:len(q.waiters)-1]
		e.push(e.now, procResumePtr, unsafe.Pointer(p))
	}
}

// TryPop removes and returns the head item if present.
//
//gat:hotpath
func (q *Queue[T]) TryPop() (T, bool) {
	var zero T
	if q.head == len(q.items) {
		return zero, false
	}
	v := q.items[q.head]
	q.items[q.head] = zero // release the slot for GC
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return v, true
}

// Pop blocks the proc until an item is available, then removes and
// returns the head item.
func (q *Queue[T]) Pop(p *Proc) T {
	for {
		if v, ok := q.TryPop(); ok {
			return v
		}
		q.waiters = append(q.waiters, p)
		p.park()
	}
}
