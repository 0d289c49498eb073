package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// tinyConfig is the named workload shrunk to run in seconds, with its
// stores in a test directory.
func tinyConfig(t *testing.T, name string) config {
	return config{workload: name, tiny: true, dir: t.TempDir()}
}

// recordTiny returns the outputs of one tiny execution at the default
// seed, as --record would print them.
func recordTiny(t *testing.T, name string) map[string]string {
	t.Helper()
	c := tinyConfig(t, name)
	c.record = true
	w, err := newWorkload(c)
	if err != nil {
		t.Fatal(err)
	}
	chk := &checker{want: map[string]string{}}
	w.execute(&execution{check: chk})
	if chk.failed > 0 {
		t.Fatalf("recording %s: %v", name, chk.errs)
	}
	return chk.want
}

func TestTinyWorkloadsReportEveryMetric(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			want := recordTiny(t, name)
			for _, trace := range []bool{false, true} {
				c := tinyConfig(t, name)
				c.trace, c.want = trace, want
				res, err := measure(c, os.Stderr)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("trace=%v: correct=%v attempted=%d failed=%d", trace, res.Correct, res.Attempted, res.Failed)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("trace=%v: %d metrics, want %d", trace, len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("trace=%v: metric %s = %+v, want unit %s", trace, d.name, m, d.unit)
					}
				}
				if !trace {
					for _, d := range endToEnd {
						if res.Metrics[d.name].Value <= 0 {
							t.Errorf("end-to-end %s = %v, want > 0", d.name, res.Metrics[d.name].Value)
						}
					}
				}
			}
		})
	}
}

func TestPerturbedRecordedValueFails(t *testing.T) {
	want := recordTiny(t, "charm-strong")
	op := "charm-h/odf2"
	if _, ok := want[op]; !ok {
		t.Fatalf("no operation %s in %v", op, want)
	}
	want[op] = strings.Replace(want[op], "kernels=", "kernels=1", 1)
	c := tinyConfig(t, "charm-strong")
	c.trace, c.want = true, want
	res, err := measure(c, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("perturbed value accepted: correct=%v failed=%d", res.Correct, res.Failed)
	}
	if f := res.Metrics["failed_frac"].Value; f <= 0 {
		t.Errorf("failed_frac = %v, want > 0", f)
	}
}

func TestMissingRecordedValueFails(t *testing.T) {
	want := recordTiny(t, "mpi-weak")
	delete(want, "mpi-d")
	c := tinyConfig(t, "mpi-weak")
	c.want = want
	res, err := measure(c, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 {
		t.Fatal("operation without a recorded value passed")
	}
}

// A non-default seed jitters the network: outputs change, but repeats
// of one seed agree, so every operation passes.
func TestJitterSeedRepeats(t *testing.T) {
	want := recordTiny(t, "mpi-weak")
	c := tinyConfig(t, "mpi-weak")
	c.seed = 7
	w, err := newWorkload(c)
	if err != nil {
		t.Fatal(err)
	}
	if !w.jitter {
		t.Fatal("seed 7 did not select jittered inputs")
	}
	chk := &checker{want: map[string]string{}}
	w.execute(&execution{check: chk})
	w.execute(&execution{check: chk})
	if chk.failed != 0 || chk.attempted != 4 {
		t.Fatalf("attempted=%d failed=%d: %v", chk.attempted, chk.failed, chk.errs)
	}
	if chk.want["mpi-h"] == want["mpi-h"] {
		t.Errorf("jittered outputs equal the jitter-free ones: %s", want["mpi-h"])
	}
}

func TestFoldChargesAllocationToCaller(t *testing.T) {
	f := fold([]stack{{
		frames: []string{
			"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.growslice",
			"gat/internal/sim.(*calQueue).bucketInsert", "gat/internal/sim.(*calQueue).insert",
			"gat/internal/sim.(*Engine).drive", "gat/internal/jacobi.RunCharm",
		},
		ns: 10,
	}})
	if f.layer["sim.calqueue"] != 10 || f.malloc != 10 || f.total != 10 {
		t.Fatalf("fold = %+v, want 10ns in sim.calqueue and malloc", f)
	}
}

func TestFoldLayers(t *testing.T) {
	for _, tc := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit"}, "runtime.gc"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.findRunnable", "runtime.schedule"}, "runtime.sched"},
		{[]string{"syscall.Syscall", "os.(*File).Write", "main.main", "runtime.main"}, "other"},
		{[]string{"runtime.mallocgc", "gat/internal/sim.(*Arena[go.shape.struct { gat/internal/gpu.x int }]).grow"}, "sim.arena"},
		{[]string{"gat/internal/sim.(*Engine).drive"}, "sim"},
		{[]string{"encoding/json.Marshal", "gat/internal/sweep/store.(*Store).Put", "gat/internal/sweep.Sweep.func2"}, "store"},
		{[]string{"gat/internal/jacobi/compute.Step", "gat/internal/charm.(*PE).startNext"}, "jacobi"},
		{[]string{"gat/internal/pdes.(*Runner).Run.func1"}, "pdes"},
		{[]string{"gat/internal/timeline.Analyze"}, "other"},
	} {
		if got := layerOf(tc.frames); got != tc.want {
			t.Errorf("layerOf(%q) = %s, want %s", tc.frames, got, tc.want)
		}
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1000; i++ {
			n += i * i
		}
	}
	return n
}

func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	stacks, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, inSpin int64
	for _, s := range stacks {
		total += s.ns
		for _, fn := range s.frames {
			if strings.HasSuffix(fn, ".spin") {
				inSpin += s.ns
				break
			}
		}
	}
	if total == 0 || inSpin < total/2 {
		t.Fatalf("profile: %d stacks, %dns total, %dns in spin", len(stacks), total, inSpin)
	}
}

// BENCHMARK.json at the repository root lists exactly the workloads and
// metrics this program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(benchmarked, ",") {
		t.Errorf("workloads %v, program benchmarks %v", names, benchmarked)
	}
	for _, tc := range []struct {
		list []struct{ Name, Unit string }
		defs []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(tc.list) != len(tc.defs) {
			t.Errorf("%d metrics listed, program reports %d", len(tc.list), len(tc.defs))
			continue
		}
		for i, d := range tc.defs {
			if tc.list[i].Name != d.name || tc.list[i].Unit != d.unit {
				t.Errorf("metric %d: listed %+v, program reports %+v", i, tc.list[i], d)
			}
		}
	}
}

func TestRecordedOutputsCoverEveryWorkload(t *testing.T) {
	all, err := recorded()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		if len(all[name]) == 0 {
			t.Errorf("no recorded outputs for %s", name)
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var out bytes.Buffer
	if code := runMain([]string{"--workload", "nope"}, &out, &bytes.Buffer{}); code == 0 || out.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, out.String())
	}
}
