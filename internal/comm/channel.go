// Package comm implements GPU-aware communication primitives on top of
// the network model: the Channel API (two-sided sends/receives of device
// buffers with completion callbacks, the mechanism this paper uses for
// Charm-D) and the older GPU Messaging API (metadata message + post
// entry method, kept for comparison).
//
// Both APIs mirror the Charm++/UCX design described in §II-B: a channel
// connects a pair of endpoints; send and recv calls are matched by tag;
// once both sides have posted, the data moves GPU-to-GPU over the
// GPUDirect path and each side's callback fires on completion.
package comm

import (
	"fmt"

	"gat/internal/netsim"
	"gat/internal/sim"
)

// Endpoint identifies one side of a channel: a global process id and the
// node it lives on.
type Endpoint struct {
	Proc int
	Node int
}

type pendingSend struct {
	bytes int64
	ready *sim.Signal
	done  func()
}

type pendingRecv struct {
	done func()
}

type matchKey struct {
	dstProc int
	tag     int
}

// Channel is a point-to-point GPU-aware communication channel between
// two endpoints. Sends and receives are matched by (destination, tag);
// tags carry the iteration number in Jacobi3D, providing the same
// ordering guarantee as SDAG reference numbers.
type Channel struct {
	net  *netsim.Network
	a, b Endpoint

	sends map[matchKey][]*pendingSend
	recvs map[matchKey][]*pendingRecv

	sent, received uint64
}

// NewChannel creates a channel between endpoints a and b.
func NewChannel(net *netsim.Network, a, b Endpoint) *Channel {
	if a.Proc == b.Proc {
		panic("comm: channel endpoints must differ")
	}
	return &Channel{
		net:   net,
		a:     a,
		b:     b,
		sends: make(map[matchKey][]*pendingSend),
		recvs: make(map[matchKey][]*pendingRecv),
	}
}

func (c *Channel) peer(proc int) Endpoint {
	switch proc {
	case c.a.Proc:
		return c.b
	case c.b.Proc:
		return c.a
	default:
		panic(fmt.Sprintf("comm: proc %d is not an endpoint of this channel", proc))
	}
}

func (c *Channel) endpoint(proc int) Endpoint {
	if proc == c.a.Proc {
		return c.a
	}
	return c.b
}

// Send posts a send of bytes from endpoint proc. The data is on the
// device and becomes valid when ready fires (e.g. after the packing
// kernel). done runs when the transfer completes at the receiver, at
// which point the send buffer is reusable.
func (c *Channel) Send(proc, tag int, bytes int64, ready *sim.Signal, done func()) {
	dst := c.peer(proc)
	key := matchKey{dstProc: dst.Proc, tag: tag}
	if r := take(c.recvs, key); r != nil {
		c.start(proc, dst.Proc, bytes, ready, done, r.done)
		return
	}
	c.sends[key] = append(c.sends[key], &pendingSend{bytes: bytes, ready: ready, done: done})
}

// Recv posts a receive at endpoint proc. done runs when the matching
// send's data has fully arrived in the destination device buffer.
func (c *Channel) Recv(proc, tag int, done func()) {
	key := matchKey{dstProc: c.endpoint(proc).Proc, tag: tag}
	if s := take(c.sends, key); s != nil {
		c.start(c.peer(proc).Proc, proc, s.bytes, s.ready, s.done, done)
		return
	}
	c.recvs[key] = append(c.recvs[key], &pendingRecv{done: done})
}

// take removes and returns the oldest operation pending under key, or
// nil. A key whose queue empties is deleted: tags carry the iteration
// number, so keeping emptied keys would retain one entry per message
// ever matched.
func take[T any](pending map[matchKey][]*T, key matchKey) *T {
	q := pending[key]
	if len(q) == 0 {
		return nil
	}
	head := q[0]
	if len(q) == 1 {
		delete(pending, key)
	} else {
		q[0] = nil
		pending[key] = q[1:]
	}
	return head
}

// start moves the data once both sides have posted.
func (c *Channel) start(srcProc, dstProc int, bytes int64, ready *sim.Signal, sendDone, recvDone func()) {
	src, dst := c.endpoint(srcProc), c.endpoint(dstProc)
	arrived := c.net.TransferGPUDirect(src.Node, dst.Node, bytes, ready)
	eng := c.net.Engine()
	arrived.OnFire(eng, func() {
		c.sent++
		c.received++
		if sendDone != nil {
			eng.Schedule(0, sendDone)
		}
		if recvDone != nil {
			eng.Schedule(0, recvDone)
		}
	})
}

// Completed returns the number of completed sends over this channel.
func (c *Channel) Completed() uint64 { return c.sent }

// PendingSends returns the number of unmatched sends (for tests and
// quiescence checks).
func (c *Channel) PendingSends() int {
	n := 0
	for _, s := range c.sends {
		n += len(s)
	}
	return n
}

// PendingRecvs returns the number of unmatched receives.
func (c *Channel) PendingRecvs() int {
	n := 0
	for _, r := range c.recvs {
		n += len(r)
	}
	return n
}
