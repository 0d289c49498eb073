package mpi

import (
	"testing"

	"gat/internal/gpu"
	"gat/internal/sim"
)

// TestEscapedSignalsOutliveRecycling holds the completion signal of
// every API that hands one to its caller — stream kernels, copies,
// events and graph launches, pipe transfers, delays, network
// transfers and MPI requests — then pushes more than 10k further
// operations through the same device, pipe, network and world, so
// every record type is retired and reused many times over. A held
// signal must still read as fired, and waiting on it must return at
// once: the signal is the caller's, not part of a recycled record.
func TestEscapedSignalsOutliveRecycling(t *testing.T) {
	const rounds = 1000 // 11 operations each
	w := testWorld(2)   // ranks 0-5 on node 0, 6-11 on node 1
	eng := w.M.Eng
	net := w.M.Net
	pipe := sim.NewPipe(eng, "test/pipe", 10e9, 100)
	g := gpu.NewGraph()
	g.AddCopy(gpu.H2D, 4096, g.AddKernel("graph/k", sim.Microsecond))

	type held struct {
		name string
		sig  *sim.Signal
	}
	var hs []held
	hold := func(name string, sig *sim.Signal) *sim.Signal {
		hs = append(hs, held{name, sig})
		return sig
	}
	// issue posts one round of operations on rank 0's device, the
	// shared pipe and the network, and returns their signals.
	issue := func(r *Rank, s *gpu.Stream, tag int, keep bool) []*sim.Signal {
		h := func(name string, sig *sim.Signal) *sim.Signal {
			if keep {
				return hold(name, sig)
			}
			return sig
		}
		k := h("Stream.Kernel", s.Kernel("k", sim.Microsecond))
		c := h("Stream.Copy", s.Copy(gpu.D2H, 4096))
		kind := Device
		if tag%2 == 1 {
			kind = Host
		}
		req := r.Isend(6, tag, 1024, kind)
		return []*sim.Signal{k, c,
			h("Stream.RecordEvent", s.RecordEvent().Done()),
			h("Stream.Launch", s.Launch(g)),
			h("Pipe.TransferAfter", pipe.TransferAfter(k, 512)),
			h("Engine.AfterSignal", eng.AfterSignal(c, sim.Microsecond)),
			h("Network.Transfer", net.Transfer(0, 1, 512, k)),
			h("Network.Transfer/intra", net.Transfer(0, 0, 512, k)),
			h("Network.TransferGPUDirect", net.TransferGPUDirect(0, 1, 1<<20, c)),
			h("Network.TransferGPUDirect/intra", net.TransferGPUDirect(0, 0, 1<<20, c)),
			h("mpi.Request/send", &req.done),
		}
	}
	check := func(p *sim.Proc, when string) {
		for _, x := range hs {
			if !x.sig.Fired() {
				t.Errorf("%s: held %s signal no longer reads as fired", when, x.name)
				continue
			}
			now, events := eng.Now(), eng.EventsExecuted()
			p.Wait(x.sig)
			if eng.Now() != now || eng.EventsExecuted() != events {
				t.Errorf("%s: Wait on held %s signal did not return at once", when, x.name)
			}
		}
	}

	finished := false
	w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			p := r.Proc()
			s := r.GPU().NewStream("held", gpu.PriorityNormal)
			p.WaitAll(issue(r, s, 0, true)...)
			check(p, "before churn")
			for i := 1; i <= rounds; i++ {
				p.WaitAll(issue(r, s, i, false)...)
			}
			check(p, "after churn")
			finished = true
		case 6:
			p := r.Proc()
			for i := 0; i <= rounds; i++ {
				kind := Device
				if i%2 == 1 {
					kind = Host
				}
				req := r.Irecv(0, i, kind)
				if i == 0 {
					hold("mpi.Request/recv", &req.done)
				}
				p.Wait(&req.done)
			}
		}
	})
	if !finished {
		t.Fatal("rank 0 never finished its rounds: an operation's completion was lost")
	}
	if len(hs) != 12 {
		t.Fatalf("held %d signals, want 12", len(hs))
	}
}
