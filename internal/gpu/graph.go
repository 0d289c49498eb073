package gpu

import "gat/internal/sim"

// Graph is an executable graph of device operations with explicit
// dependencies — the CUDA Graphs analogue. A graph is captured once and
// launched many times; each launch costs Config.GraphLaunchHost on the
// host instead of one launch overhead per kernel, and each node pays the
// cheaper GraphNodeDispatch on the device.
//
// Node parameters are fixed at capture time (the CUDA Graphs
// restriction the paper works around in §III-D2 by capturing two graphs
// with swapped buffer pointers and alternating between them).
type Graph struct {
	nodes []*GraphNode
}

// GraphNode is one operation in a graph.
type GraphNode struct {
	label string
	kind  opKind // opKernel or opCopy
	dur   sim.Time
	bytes int64
	dir   CopyDir
	deps  []*GraphNode
	index int
}

// NewGraph returns an empty graph.
func NewGraph() *Graph { return &Graph{} }

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.nodes) }

// TotalKernelTime returns the sum of the graph's kernel durations,
// used for load accounting.
func (g *Graph) TotalKernelTime() sim.Time {
	var total sim.Time
	for _, n := range g.nodes {
		if n.kind == opKernel {
			total += n.dur
		}
	}
	return total
}

// AddKernel adds a kernel node that runs after all deps complete.
func (g *Graph) AddKernel(label string, dur sim.Time, deps ...*GraphNode) *GraphNode {
	n := &GraphNode{label: label, kind: opKernel, dur: dur, deps: deps, index: len(g.nodes)}
	g.nodes = append(g.nodes, n)
	return n
}

// AddCopy adds a DMA node that runs after all deps complete.
func (g *Graph) AddCopy(dir CopyDir, bytes int64, deps ...*GraphNode) *GraphNode {
	n := &GraphNode{label: dir.String(), kind: opCopy, bytes: bytes, dir: dir, deps: deps, index: len(g.nodes)}
	g.nodes = append(g.nodes, n)
	return n
}

// Launch enqueues one execution of the graph on the stream and returns
// its completion signal. The caller charges Config.GraphLaunchHost to
// the launching CPU.
func (s *Stream) Launch(g *Graph) *sim.Signal {
	if g.Len() == 0 {
		return sim.FiredSignal()
	}
	return s.enqueueSignal(s.graphOp(g))
}

// LaunchThen is Launch for a caller that only chains on completion:
// then runs where Launch's signal would have fired (at once for an
// empty graph), and no signal is made.
func (s *Stream) LaunchThen(g *Graph, then sim.Then) {
	if g.Len() == 0 {
		then.Run(s.dev.eng)
		return
	}
	o := s.graphOp(g)
	o.then = then
	s.enqueue(o)
}

func (s *Stream) graphOp(g *Graph) *op {
	o := s.newOp()
	o.kind, o.label, o.graph = opGraph, "graph", g
	return o
}

// launchGraphInstance executes one instance of o.graph, calling complete
// when every node has finished. Node-level parallelism is bounded by the
// device engines, as on real hardware.
func (s *Stream) launchGraphInstance(o *op, complete func()) {
	g := o.graph
	d := s.dev
	remaining := len(g.nodes)
	indeg := make([]int, len(g.nodes))
	children := make([][]*GraphNode, len(g.nodes))
	for _, n := range g.nodes {
		indeg[n.index] = len(n.deps)
		for _, dep := range n.deps {
			children[dep.index] = append(children[dep.index], n)
		}
	}

	var start func(n *GraphNode)
	nodeDone := func(n *GraphNode) {
		remaining--
		for _, c := range children[n.index] {
			indeg[c.index]--
			if indeg[c.index] == 0 {
				start(c)
			}
		}
		if remaining == 0 {
			complete()
		}
	}
	start = func(n *GraphNode) {
		switch n.kind {
		case opKernel:
			d.submitCompute(s.prio, "graph/"+n.label, d.cfg.GraphNodeDispatch+n.dur,
				func() { nodeDone(n) })
		case opCopy:
			d.copyCount++
			d.copyPipe(n.dir).TransferThen(n.bytes, sim.ThenCall(func() { nodeDone(n) }))
		default:
			panic("gpu: unsupported graph node kind")
		}
	}
	for _, n := range g.nodes {
		if indeg[n.index] == 0 {
			start(n)
		}
	}
}
