package jacobi

import (
	"runtime"
	"testing"

	"gat/internal/machine"
)

// retainedAfterCharmD runs Charm-D (ODF 4, 2 Summit nodes) for iters
// timed iterations and returns the heap the machine still retains once
// the run is over, together with the machine itself.
func retainedAfterCharmD(t *testing.T, iters int) (uint64, *machine.Machine) {
	t.Helper()
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	m := machine.MustNew(machine.Summit(2))
	cfg := Config{Global: [3]int{192, 192, 192}, Warmup: 1, Iters: iters}
	RunCharm(m, cfg, CharmOpts{ODF: 4, GPUAware: true}.Optimized())
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(m)
	if ms.HeapAlloc < before {
		return 0, m
	}
	return ms.HeapAlloc - before, m
}

// TestRetainedHeapIsOLive checks that the memory a machine keeps after
// a run is bounded by the records live at once, not by how many the
// run created: ten times the iterations must retain less than 1.5x the
// heap. It also checks each device's op free list against the peak
// number of ops in flight, which bounds the records the device ever
// allocates.
func TestRetainedHeapIsOLive(t *testing.T) {
	short, _ := retainedAfterCharmD(t, 5)
	long, m := retainedAfterCharmD(t, 50)
	t.Logf("retained heap: %d B after 5 iterations, %d B after 50", short, long)
	if float64(long) >= 1.5*float64(short) {
		t.Errorf("retained heap grew from %d B to %d B (x%.2f) for 10x the iterations, want < x1.5",
			short, long, float64(long)/float64(short))
	}
	for _, d := range m.GPUs {
		free, peak := d.OpRecords()
		if free > peak {
			t.Errorf("%s: %d free op records exceed the peak of %d ops in flight", d.Name(), free, peak)
		}
		if peak == 0 {
			t.Errorf("%s: no op was ever in flight", d.Name())
		}
	}
}
