package gpu

import (
	"unsafe"

	"gat/internal/sim"
)

// Stream is an in-order queue of device operations, the CUDA stream
// analogue. Operations on one stream execute in FIFO order; operations
// on different streams may interleave subject to engine availability.
type Stream struct {
	dev  *Device
	name string
	prio int
	ops  []*op // pending; ops[0] is the in-flight head
	// completeFn finishes the in-flight head op. A stream executes one
	// op at a time, so a single thunk created at NewStream serves every
	// op instead of allocating a completion closure per op.
	completeFn func()
}

// newOp returns a zeroed op from the device's free list. The stream
// recycles it when it retires the op (see complete); a caller holds
// only the op's GC-owned done signal, never the op.
//
//gat:hotpath
func (s *Stream) newOp() *op { return s.dev.ops.Get() }

// NewStream creates a stream with the given priority (PriorityHigh or
// PriorityNormal).
func (d *Device) NewStream(name string, prio int) *Stream {
	s := &Stream{dev: d, name: name, prio: prio}
	s.completeFn = s.complete
	return s
}

// AcquireStream returns an idle stream from the device's pool —
// creating and pooling a new one only when every pooled stream still
// has operations in flight — relabeled with the given name and
// priority. An idle stream is behaviorally identical to a fresh one
// (its queue is empty, so no ordering carries over), which lets
// transient per-message streams (netsim host staging) be reused
// instead of allocated, keeping the steady state allocation-free.
//
// The caller must enqueue the stream's operations before the device's
// next AcquireStream call (i.e. synchronously, before returning to the
// event loop); a stream with pending operations is never handed out
// again until they complete. There is no release call: a stream
// returns to circulation by draining.
func (d *Device) AcquireStream(name string, prio int) *Stream {
	for _, s := range d.streamPool {
		if len(s.ops) == 0 {
			s.name, s.prio = name, prio
			return s
		}
	}
	s := d.NewStream(name, prio)
	d.streamPool = append(d.streamPool, s)
	return s
}

// PooledStreams returns the number of streams in the device's
// acquire pool (for reuse assertions in tests).
func (d *Device) PooledStreams() int { return len(d.streamPool) }

// Device returns the owning device.
func (s *Stream) Device() *Device { return s.dev }

// Priority returns the stream priority.
func (s *Stream) Priority() int { return s.prio }

// Pending returns the number of queued (not yet completed) operations.
func (s *Stream) Pending() int { return len(s.ops) }

type opKind int

const (
	opKernel opKind = iota
	opCopy
	opCallback
	opEvent
	opWait
	opGraph
)

// op is one stream operation. On completion the stream fires done
// when a caller holds the op's signal, or runs then when the caller
// gave its completion target directly; an op with neither completes
// silently.
type op struct {
	kind  opKind
	label string
	dur   sim.Time    // kernel device duration
	bytes int64       // copy size
	dir   CopyDir     // copy direction
	cb    func()      // callback body
	wait  *sim.Signal // gate for opWait
	graph *Graph      // for opGraph
	done  *sim.Signal // escaped completion signal, or nil
	then  sim.Then    // direct completion target when done is nil
}

// enqueue appends o to the stream, starting it if the stream was idle.
// o may complete — and be recycled — before enqueue returns.
//
//gat:hotpath
func (s *Stream) enqueue(o *op) {
	d := s.dev
	d.inFlight++
	if d.inFlight > d.peakInFlight {
		d.peakInFlight = d.inFlight
	}
	s.ops = append(s.ops, o)
	if len(s.ops) == 1 {
		s.startHead()
	}
}

// enqueueSignal enqueues o with a fresh done signal and returns it.
func (s *Stream) enqueueSignal(o *op) *sim.Signal {
	done := sim.NewSignal()
	o.done = done
	s.enqueue(o)
	return done
}

// startHead begins executing the op at the head of the stream.
func (s *Stream) startHead() {
	o := s.ops[0]
	d := s.dev
	switch o.kind {
	case opKernel:
		d.submitCompute(s.prio, o.label, d.cfg.KernelDispatch+o.dur, s.completeFn)
	case opCopy:
		d.copyCount++
		d.copyPipe(o.dir).TransferThen(o.bytes, sim.ThenCall(s.completeFn))
	case opCallback:
		// Host callback: runs as an event at the current time, then the
		// stream advances.
		sim.ThenArg(runCallback, unsafe.Pointer(s)).Run(d.eng)
	case opEvent:
		s.complete()
	case opWait:
		o.wait.OnFire(d.eng, s.completeFn)
	case opGraph:
		s.launchGraphInstance(o, s.completeFn)
	default:
		panic("gpu: unknown op kind")
	}
}

// runCallback runs the host callback at the head of the stream in arg
// and completes it.
func runCallback(_ *sim.Engine, arg unsafe.Pointer) {
	s := (*Stream)(arg)
	s.ops[0].cb()
	s.complete()
}

// complete finishes the head op: fire its signal or run its target,
// dequeue it (capacity-preserving, so a steady enqueue/complete cycle
// never reallocates), recycle it, and start the next.
//
//gat:hotpath
func (s *Stream) complete() {
	o := s.ops[0]
	d := s.dev
	if o.done != nil {
		o.done.Fire(d.eng)
	} else {
		o.then.Run(d.eng)
	}
	n := copy(s.ops, s.ops[1:])
	s.ops[n] = nil
	s.ops = s.ops[:n]
	d.inFlight--
	d.ops.Put(o)
	if len(s.ops) > 0 {
		s.startHead()
	}
}

// Kernel enqueues a kernel with an explicit device duration and returns
// its completion signal. The caller is responsible for charging
// Config.KernelLaunchHost to the launching CPU.
func (s *Stream) Kernel(label string, dur sim.Time) *sim.Signal {
	return s.enqueueSignal(s.kernelOp(label, dur))
}

// KernelThen is Kernel for a caller that only chains on completion:
// then runs where Kernel's signal would have fired, and no signal is
// made.
func (s *Stream) KernelThen(label string, dur sim.Time, then sim.Then) {
	o := s.kernelOp(label, dur)
	o.then = then
	s.enqueue(o)
}

func (s *Stream) kernelOp(label string, dur sim.Time) *op {
	o := s.newOp()
	o.kind, o.label, o.dur = opKernel, label, dur
	return o
}

// KernelBytes enqueues a memory-bound kernel whose duration is derived
// from the roofline model.
func (s *Stream) KernelBytes(label string, bytes int64) *sim.Signal {
	return s.Kernel(label, s.dev.KernelTime(bytes))
}

// Copy enqueues an async DMA transfer of the given size and direction.
// The caller charges Config.CopyLaunchHost to the launching CPU.
func (s *Stream) Copy(dir CopyDir, bytes int64) *sim.Signal {
	return s.enqueueSignal(s.copyOp(dir, bytes))
}

// CopyThen is Copy for a caller that only chains on completion: then
// runs where Copy's signal would have fired, and no signal is made.
func (s *Stream) CopyThen(dir CopyDir, bytes int64, then sim.Then) {
	o := s.copyOp(dir, bytes)
	o.then = then
	s.enqueue(o)
}

func (s *Stream) copyOp(dir CopyDir, bytes int64) *op {
	o := s.newOp()
	o.kind, o.label, o.bytes, o.dir = opCopy, dir.String(), bytes, dir
	return o
}

// OnComplete enqueues a host callback that runs when all previously
// enqueued work on the stream has finished. This is the mechanism behind
// HAPI-style asynchronous completion detection.
func (s *Stream) OnComplete(cb func()) {
	o := s.newOp()
	o.kind, o.label, o.cb = opCallback, "callback", cb
	s.enqueue(o)
}

// Event is a CUDA-event analogue: a marker recorded on a stream whose
// signal fires when all prior work on that stream has completed.
type Event struct{ sig *sim.Signal }

// Done returns the completion signal.
func (ev *Event) Done() *sim.Signal { return ev.sig }

// RecordEvent records an event on the stream.
func (s *Stream) RecordEvent() *Event {
	return &Event{sig: s.recordSignal()}
}

// recordSignal enqueues an event marker and returns its signal.
func (s *Stream) recordSignal() *sim.Signal {
	o := s.newOp()
	o.kind, o.label = opEvent, "event"
	return s.enqueueSignal(o)
}

// WaitEvent blocks subsequent work on s until ev (recorded on another
// stream) completes — the cross-stream dependency primitive.
func (s *Stream) WaitEvent(ev *Event) {
	s.wait("waitEvent", ev.sig)
}

// WaitSignal blocks subsequent work on s until an arbitrary simulation
// signal fires (e.g. network data arrival before an unpack kernel).
func (s *Stream) WaitSignal(sig *sim.Signal) {
	s.wait("waitSignal", sig)
}

func (s *Stream) wait(label string, sig *sim.Signal) {
	o := s.newOp()
	o.kind, o.label, o.wait = opWait, label, sig
	s.enqueue(o)
}

// Sync blocks the calling proc until all currently enqueued work on the
// stream completes, charging the host synchronization overhead. This is
// the cudaStreamSynchronize analogue used by the "before-optimization"
// Jacobi3D variant and the MPI variants.
func (s *Stream) Sync(p *sim.Proc) {
	p.Sleep(s.dev.cfg.SyncOverhead)
	if len(s.ops) == 0 {
		return
	}
	p.Wait(s.recordSignal())
}

// Drained returns a signal that fires when all currently enqueued work
// completes, without blocking (for event-driven callers).
func (s *Stream) Drained() *sim.Signal {
	if len(s.ops) == 0 {
		return sim.FiredSignal()
	}
	return s.recordSignal()
}
