package charm

import (
	"unsafe"

	"gat/internal/gpu"
	"gat/internal/sim"
)

// Ctx is the execution context of one entry-method invocation. It
// accumulates the host time the handler consumes on its PE: every call
// that costs CPU time advances the clock, and every side effect (kernel
// enqueue, message injection) is scheduled at the clock value it would
// occur at on real hardware. The PE stays busy until the final clock.
type Ctx struct {
	pe      *PE
	elem    *Elem
	clock   sim.Time
	blockOn *sim.Signal
}

// PE returns the executing processing element.
func (ctx *Ctx) PE() *PE { return ctx.pe }

// Elem returns the chare element this invocation targets, or nil for
// runtime callbacks.
func (ctx *Ctx) Elem() *Elem { return ctx.elem }

// Runtime returns the owning runtime.
func (ctx *Ctx) Runtime() *Runtime { return ctx.pe.rt }

// Engine returns the simulation engine.
func (ctx *Ctx) Engine() *sim.Engine { return ctx.pe.rt.Engine() }

// Clock returns the handler's current staggered completion time.
func (ctx *Ctx) Clock() sim.Time { return ctx.clock }

// Charge adds host compute time to the handler.
func (ctx *Ctx) Charge(d sim.Time) {
	if d > 0 {
		ctx.clock += d
	}
}

// Do schedules fn to run at the handler's current clock, after the host
// work charged so far.
func (ctx *Ctx) Do(fn func()) {
	ctx.Engine().At(ctx.clock, fn)
}

// Block stalls the PE after this handler finishes until sig fires —
// the cudaStreamSynchronize pattern. A blocked PE processes no messages,
// which is exactly the lost overlap the paper's Fig 4 illustrates.
func (ctx *Ctx) Block(sig *sim.Signal) {
	ctx.blockOn = sig
}

// LaunchKernel charges the kernel launch host overhead and enqueues the
// kernel on the stream at the staggered instant. It returns the kernel's
// completion signal.
func (ctx *Ctx) LaunchKernel(s *gpu.Stream, label string, dur sim.Time) *sim.Signal {
	cfg := s.Device().Config()
	ctx.clock += cfg.KernelLaunchHost
	if ctx.elem != nil {
		ctx.elem.GPULoad += dur
	}
	l := ctx.launch(s, launchKernel)
	l.label, l.dur = label, dur
	return l.out
}

// LaunchKernelBytes is LaunchKernel with a roofline-derived duration.
func (ctx *Ctx) LaunchKernelBytes(s *gpu.Stream, label string, bytes int64) *sim.Signal {
	return ctx.LaunchKernel(s, label, s.Device().KernelTime(bytes))
}

// EnqueueCopy charges the async-copy host overhead and enqueues a DMA
// transfer, optionally gated on after (pass nil for no gate).
func (ctx *Ctx) EnqueueCopy(s *gpu.Stream, dir gpu.CopyDir, bytes int64, after *sim.Signal) *sim.Signal {
	cfg := s.Device().Config()
	ctx.clock += cfg.CopyLaunchHost
	l := ctx.launch(s, launchCopy)
	l.dir, l.bytes, l.after = dir, bytes, after
	return l.out
}

// LaunchGraph charges the graph launch host overhead and enqueues one
// execution of g.
func (ctx *Ctx) LaunchGraph(s *gpu.Stream, g *gpu.Graph) *sim.Signal {
	cfg := s.Device().Config()
	ctx.clock += cfg.GraphLaunchHost + sim.Time(g.Len())*cfg.GraphNodeHost
	if ctx.elem != nil {
		ctx.elem.GPULoad += g.TotalKernelTime()
	}
	l := ctx.launch(s, launchGraph)
	l.graph = g
	return l.out
}

// GateStream makes subsequent work on s wait for sig, charging no host
// time (the dependency is enforced on the device).
func (ctx *Ctx) GateStream(s *gpu.Stream, sig *sim.Signal) {
	ctx.launch(s, launchGate).after = sig
}

type launchKind int

const (
	launchKernel launchKind = iota
	launchCopy
	launchGraph
	launchGate
)

// launch is one stream operation a handler issues at its staggered
// clock. The stream op completes straight into out — the signal the
// handler got back — so no intermediate signal is made, and the record
// is recycled once the op is enqueued.
type launch struct {
	rt    *Runtime
	s     *gpu.Stream
	kind  launchKind
	label string
	dur   sim.Time
	dir   gpu.CopyDir
	bytes int64
	graph *gpu.Graph
	after *sim.Signal // copy gate (optional) or stream gate
	out   *sim.Signal // nil for a gate
}

// launch schedules a recycled launch record at the handler's clock. The
// caller fills in the operation's parameters before the event runs.
func (ctx *Ctx) launch(s *gpu.Stream, kind launchKind) *launch {
	rt := ctx.pe.rt
	l := rt.launches.Get()
	l.rt, l.s, l.kind = rt, s, kind
	if kind != launchGate {
		l.out = sim.NewSignal()
	}
	rt.Engine().InjectAt(ctx.clock, launchFire, unsafe.Pointer(l))
	return l
}

// launchFire enqueues a launch record's stream operation.
func launchFire(_ *sim.Engine, arg unsafe.Pointer) {
	l := (*launch)(arg)
	s, then := l.s, sim.ThenFire(l.out)
	switch l.kind {
	case launchKernel:
		s.KernelThen(l.label, l.dur, then)
	case launchCopy:
		if l.after != nil {
			s.WaitSignal(l.after)
		}
		s.CopyThen(l.dir, l.bytes, then)
	case launchGraph:
		s.LaunchThen(l.graph, then)
	case launchGate:
		s.WaitSignal(l.after)
	}
	l.rt.launches.Put(l)
}

// HAPICallback registers fn to run as a high-priority PE task when all
// work currently enqueued on the stream (as of the handler's staggered
// clock) completes. This is the Hybrid API asynchronous completion
// mechanism (§III-A): the PE keeps scheduling other chares while the
// GPU works, and fn is delivered through the message queue like any
// other task.
func (ctx *Ctx) HAPICallback(s *gpu.Stream, label string, fn func(*Ctx)) {
	rt := ctx.pe.rt
	ctx.clock += rt.Opt.HAPIRegister
	pe := ctx.pe
	elem := ctx.elem
	eng := ctx.Engine()
	eng.At(ctx.clock, func() {
		s.OnComplete(func() {
			pe.Enqueue(PrioHigh, rt.Opt.SchedOverhead, label, elem, fn)
		})
	})
}

// Post enqueues fn as a task on this PE at the handler's staggered
// clock — the self-message pattern for continuations.
func (ctx *Ctx) Post(prio int, label string, fn func(*Ctx)) {
	rt := ctx.pe.rt
	pe := ctx.pe
	elem := ctx.elem
	ctx.Do(func() {
		pe.Enqueue(prio, rt.Opt.SchedOverhead, label, elem, fn)
	})
}

// CommCallback returns a plain closure suitable for comm.Channel
// completion hooks: when invoked it enqueues fn as a high-priority task
// on this chare's PE.
func (ctx *Ctx) CommCallback(label string, fn func(*Ctx)) func() {
	rt := ctx.pe.rt
	pe := ctx.pe
	elem := ctx.elem
	return func() {
		pe.Enqueue(PrioHigh, rt.Opt.SchedOverhead, label, elem, fn)
	}
}
