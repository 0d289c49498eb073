package main

import (
	"fmt"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"gat/internal/machine"
)

// execution is the record of one workload execution: host time of its
// runs, wall-time spans around the simulator calls, counts read from
// public accessors, and each operation's outcome.
type execution struct {
	run time.Duration
	// simRun is the part of run spent in runs whose engine counts are
	// read (all of it, except paper-small's sweeps).
	simRun time.Duration
	spans  map[string]time.Duration
	counts map[string]float64
	// busy and capacity accumulate GPU busy time and GPU-time available
	// (devices × simulated time), for gpu.busy_frac.
	busy, capacity float64
	check          *checker
	// memory marks the memory pass, in which paper-small sweeps on one
	// worker, so that its peak heap does not depend on which runs the
	// two workers happen to overlap.
	memory bool
}

// op runs one operation and checks its outputs; a panic fails it.
func (ex *execution) op(name string, fn func() (string, error)) {
	var got string
	err := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("panic: %v", p)
			}
		}()
		got, err = fn()
		return err
	}()
	ex.check.check(name, got, err)
}

func (ex *execution) span(name string, d time.Duration) {
	if ex.spans == nil {
		ex.spans = map[string]time.Duration{}
	}
	ex.spans[name] += d
}

func (ex *execution) add(name string, v float64) {
	if ex.counts == nil {
		ex.counts = map[string]float64{}
	}
	ex.counts[name] += v
}

// machineCounts reads a finished run's counts from the machine.
func (ex *execution) machineCounts(m *machine.Machine) {
	ex.add("sim.events", float64(m.Eng.EventsExecuted()))
	var kernels, copies uint64
	for _, d := range m.GPUs {
		kernels += d.KernelsLaunched()
		copies += d.CopiesIssued()
		ex.busy += float64(d.BusyTime())
	}
	ex.capacity += float64(len(m.GPUs)) * float64(m.Eng.Now())
	ex.add("gpu.kernels", float64(kernels))
	ex.add("gpu.copies", float64(copies))
	ex.add("net.msgs", float64(m.Net.Messages()))
	ex.add("net.bytes", float64(m.Net.BytesMoved()))
	util, _ := m.Net.LinkUtilization()
	if ex.counts["net.max_link_util"] < util {
		ex.counts["net.max_link_util"] = util
	}
}

// checker compares each operation's outputs with its reference: the
// recorded value, or — for jittered inputs, which have none — the value
// the first execution in this process produced.
type checker struct {
	want map[string]string
	// strict fails an operation that has no recorded value.
	strict            bool
	attempted, failed int
	// errs keeps the first few failures for the report on stderr.
	errs []string
}

func (c *checker) check(name, got string, err error) {
	c.attempted++
	if err == nil {
		want, ok := c.want[name]
		switch {
		case !ok && c.strict:
			err = fmt.Errorf("no recorded outputs")
		case !ok:
			c.want[name] = got
		case got != want:
			err = fmt.Errorf("outputs %s, want %s", got, want)
		}
	}
	if err != nil {
		c.failed++
		if len(c.errs) < 10 {
			c.errs = append(c.errs, fmt.Sprintf("%s: %v", name, err))
		}
	}
}

// hostSample is a reading of the process's CPU and Go runtime counters.
type hostSample struct {
	user, sys time.Duration
	allocB    float64
	gcCPU     float64
	totalCPU  float64
}

func readHost() hostSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return hostSample{
		user:     time.Duration(ru.Utime.Nano()),
		sys:      time.Duration(ru.Stime.Nano()),
		allocB:   float64(s[0].Value.Uint64()),
		gcCPU:    s[1].Value.Float64(),
		totalCPU: s[2].Value.Float64(),
	}
}

// hostCounts adds the host and Go runtime counters between a and b.
func (ex *execution) hostCounts(a, b hostSample) {
	ex.add("host.cpu_s", (b.user + b.sys - a.user - a.sys).Seconds())
	ex.add("host.sys_s", (b.sys - a.sys).Seconds())
	ex.add("runtime.alloc_mb", (b.allocB-a.allocB)/1e6)
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		ex.add("runtime.gc_cpu_frac", (b.gcCPU-a.gcCPU)/cpu)
	}
}

// heapPeak samples the live Go heap until stopped and reports its peak.
type heapPeak struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak live heap in bytes.
func (h *heapPeak) Stop() uint64 {
	close(h.stop)
	h.done.Wait()
	return h.peak
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
