// Package charm implements an asynchronous message-driven tasking
// runtime in the style of Charm++ (§II-A of the paper): chare arrays
// overdecomposed onto processing elements (PEs), per-PE schedulers
// draining prioritized message queues, entry methods that run to
// completion, SDAG-style reference-number gates, and HAPI-style
// asynchronous GPU completion callbacks.
//
// PEs are event-driven rather than goroutine-backed: entry methods never
// block, so a PE is a priority queue plus busy/blocked bookkeeping. Host
// time consumed by an entry method (scheduling, kernel launches, message
// sends) accumulates on a Ctx clock, and every side effect is scheduled
// at its correct staggered instant, reproducing the serialization of
// fine-grained overheads on the host core that drives the paper's
// strong-scaling results.
package charm

import (
	"container/heap"
	"fmt"
	"unsafe"

	"gat/internal/machine"
	"gat/internal/sim"
)

// Priorities for PE tasks. Communication-related callbacks run at high
// priority, as the paper prescribes for (un)packing and transfers.
const (
	PrioHigh   = 0
	PrioNormal = 1
)

// Options is the runtime cost model.
type Options struct {
	// SchedOverhead is charged per message picked up by a PE scheduler.
	SchedOverhead sim.Time
	// EntryOverhead is charged per entry-method dispatch (location
	// lookup, envelope handling).
	EntryOverhead sim.Time
	// MsgHostOverhead is charged at the sender per message send call.
	MsgHostOverhead sim.Time
	// HAPIRegister is charged to register a GPU completion callback.
	HAPIRegister sim.Time
	// HostCopyBW is the single-core memcpy bandwidth used to cost
	// copying eager message payloads in and out of communication
	// buffers (host-staging path).
	HostCopyBW float64
	// EagerThreshold is the message size up to which payloads are
	// copied through eager buffers; larger messages use zero-copy
	// rendezvous and pay only RendezvousHostCost.
	EagerThreshold int64
	// RendezvousHostCost is the fixed host cost (buffer registration,
	// protocol handling) of a zero-copy rendezvous message.
	RendezvousHostCost sim.Time
	// Envelope is the per-message header size in bytes.
	Envelope int64
}

// DefaultOptions returns the Summit-calibrated runtime cost model.
func DefaultOptions() Options {
	return Options{
		SchedOverhead:      800 * sim.Nanosecond,
		EntryOverhead:      500 * sim.Nanosecond,
		MsgHostOverhead:    1500 * sim.Nanosecond,
		HAPIRegister:       500 * sim.Nanosecond,
		HostCopyBW:         12e9,
		EagerThreshold:     64 << 10,
		RendezvousHostCost: 1500 * sim.Nanosecond,
		Envelope:           96,
	}
}

// Runtime is one instantiated Charm-style runtime over a machine.
type Runtime struct {
	M      *machine.Machine
	Opt    Options
	PEs    []*PE
	arrays []*Array

	// Free lists for the runtime's per-task and per-launch records,
	// each recycled when its end event has run.
	tasks    sim.FreeList[task]
	launches sim.FreeList[launch]
}

// NewRuntime creates a runtime with one PE per GPU (the paper's non-SMP
// one-core-one-GPU process layout).
func NewRuntime(m *machine.Machine, opt Options) *Runtime {
	rt := &Runtime{M: m, Opt: opt}
	for i := 0; i < m.Procs(); i++ {
		rt.PEs = append(rt.PEs, &PE{rt: rt, id: i, node: m.NodeOf(i)})
	}
	return rt
}

// Engine returns the simulation engine.
func (rt *Runtime) Engine() *sim.Engine { return rt.M.Eng }

// NumPEs returns the number of processing elements.
func (rt *Runtime) NumPEs() int { return len(rt.PEs) }

// PE returns processing element i.
func (rt *Runtime) PE(i int) *PE { return rt.PEs[i] }

// Stats summarizes runtime activity for reports.
type Stats struct {
	// NumPEs is the number of processing elements.
	NumPEs int
	// Tasks is the total number of tasks executed across PEs.
	Tasks uint64
	// BusyTotal is the summed host busy time of all PEs.
	BusyTotal sim.Time
	// BusyMax and BusyMin are the busiest and idlest PE loads, whose
	// spread measures host-side load imbalance.
	BusyMax, BusyMin sim.Time
	// MsgsSent is the number of entry-method messages sent to arrays.
	MsgsSent uint64
}

// Imbalance returns the busiest PE's load over the mean PE load
// (1.0 = perfectly balanced), or 0 before any work ran.
func (s Stats) Imbalance() float64 {
	if s.BusyTotal == 0 || s.NumPEs == 0 {
		return 0
	}
	mean := float64(s.BusyTotal) / float64(s.NumPEs)
	return float64(s.BusyMax) / mean
}

// Collect gathers runtime statistics.
func (rt *Runtime) Collect() Stats {
	st := Stats{NumPEs: rt.NumPEs()}
	for i, pe := range rt.PEs {
		b := pe.BusyTime()
		st.Tasks += pe.TasksRun()
		st.BusyTotal += b
		if i == 0 || b > st.BusyMax {
			st.BusyMax = b
		}
		if i == 0 || b < st.BusyMin {
			st.BusyMin = b
		}
	}
	for _, a := range rt.arrays {
		st.MsgsSent += a.MsgsSent()
	}
	return st
}

// payloadCost is the host time one side spends handling a message
// payload: eager messages are copied by the sending/receiving core,
// rendezvous-size messages go zero-copy and pay only the fixed
// registration cost.
func (rt *Runtime) payloadCost(bytes int64) sim.Time {
	switch {
	case bytes <= 0:
		return 0
	case bytes <= rt.Opt.EagerThreshold:
		return sim.DurationOf(bytes, rt.Opt.HostCopyBW)
	default:
		return rt.Opt.RendezvousHostCost
	}
}

// task is one unit of PE work: an entry-method invocation or a runtime
// callback. The record is recycled by taskEnd once the handler's host
// time has elapsed.
type task struct {
	prio  int
	seq   uint64
	cost  sim.Time // host time consumed before handler side effects
	label string
	elem  *Elem // owning chare element, if any (for load accounting)
	run   func(*Ctx)

	// Set when the task starts executing.
	pe         *PE
	ctx        *Ctx
	start, end sim.Time
}

type taskHeap []*task

func (h taskHeap) Len() int { return len(h) }
func (h taskHeap) Less(i, j int) bool {
	if h[i].prio != h[j].prio {
		return h[i].prio < h[j].prio
	}
	return h[i].seq < h[j].seq
}
func (h taskHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *taskHeap) Push(x any)   { *h = append(*h, x.(*task)) }
func (h *taskHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	*h = old[:n-1]
	return t
}

// PE is one processing element: a scheduler draining a prioritized
// message queue, bound to one host core and one GPU.
type PE struct {
	rt   *Runtime
	id   int
	node int

	queue   taskHeap
	seq     uint64
	busy    bool
	blocked bool

	busyAccum sim.Time
	tasksRun  uint64
}

// ID returns the global PE id.
func (pe *PE) ID() int { return pe.id }

// Node returns the node housing this PE.
func (pe *PE) Node() int { return pe.node }

// BusyTime returns the cumulative host time this PE has spent executing
// tasks (excluding blocked time).
func (pe *PE) BusyTime() sim.Time { return pe.busyAccum }

// TasksRun returns the number of tasks executed.
func (pe *PE) TasksRun() uint64 { return pe.tasksRun }

// QueueLen returns the number of tasks waiting in the queue.
func (pe *PE) QueueLen() int { return len(pe.queue) }

// Enqueue adds a task to the PE's queue. cost is the host time consumed
// before the handler's side effects (scheduling + dispatch + payload
// handling); run executes with a Ctx whose clock starts after cost.
func (pe *PE) Enqueue(prio int, cost sim.Time, label string, elem *Elem, run func(*Ctx)) {
	pe.seq++
	t := pe.rt.tasks.Get()
	t.prio, t.seq, t.cost, t.label, t.elem, t.run = prio, pe.seq, cost, label, elem, run
	heap.Push(&pe.queue, t)
	pe.startNext()
}

// startNext pops and executes the next task if the PE is idle.
func (pe *PE) startNext() {
	if pe.busy || pe.blocked || len(pe.queue) == 0 {
		return
	}
	t := heap.Pop(&pe.queue).(*task)
	pe.busy = true
	pe.tasksRun++
	eng := pe.rt.Engine()
	start := eng.Now()
	ctx := &Ctx{pe: pe, elem: t.elem, clock: start + t.cost}
	t.run(ctx)
	t.pe, t.ctx, t.start, t.end = pe, ctx, start, ctx.clock
	eng.InjectAt(t.end, taskEnd, unsafe.Pointer(t))
}

// taskEnd runs when a task's host time has elapsed: it accounts the
// busy time, recycles the task, and frees the PE — or blocks it until
// the handler's Block signal fires.
func taskEnd(eng *sim.Engine, arg unsafe.Pointer) {
	t := (*task)(arg)
	pe, ctx, elem, label, start, end := t.pe, t.ctx, t.elem, t.label, t.start, t.end
	pe.rt.tasks.Put(t)
	pe.busyAccum += end - start
	if elem != nil {
		elem.Busy += end - start
	}
	if tr := eng.Tracer(); tr != nil {
		tr.Add(sim.Span{Resource: fmt.Sprintf("pe%d", pe.id), Label: label, Start: start, End: end})
	}
	pe.busy = false
	if ctx.blockOn != nil && !ctx.blockOn.Fired() {
		pe.blocked = true
		ctx.blockOn.OnFire(eng, func() {
			pe.blocked = false
			pe.startNext()
		})
		return
	}
	pe.startNext()
}
