// Command perfbench is the repository benchmark: it runs one named
// workload through the simulator's public API, checks every simulated
// output, and prints the simulator's host cost end to end (--trace 0)
// or layer by layer (--trace 1). See README.md for the workloads, the
// metrics and the layer each metric attributes.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload charm-strong --seed 0 --seconds 24 --trace 0
//
// The last line of standard output is the result record; the line
// before it describes the host.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees, reported with
// tracing off as medians over the run's executions.
var endToEnd = []metricDef{
	{"wall_s", "s"},        // host time of one execution, set-up excluded
	{"setup_s", "s"},       // host time before the first simulated event
	{"peak_heap_mb", "MB"}, // peak live Go heap at GC percent 10
}

// perLayer are the metrics of single layers, from one traced execution.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"failed_frac", "frac"},
		{"trace.overhead_frac", "frac"},
		{"span.plan_s", "s"},
		{"span.machine_new_s", "s"},
		{"span.build_run_s", "s"},
		{"span.run_s", "s"},
		{"span.store_get_s", "s"},
		{"span.store_put_s", "s"},
		{"sim.events", "count"},
		{"sim.events_per_s", "1/s"},
		{"sim.host_ns_per_event", "ns"},
		{"gpu.kernels", "count"},
		{"gpu.copies", "count"},
		{"gpu.busy_frac", "frac"},
		{"net.msgs", "count"},
		{"net.bytes", "B"},
		{"net.max_link_util", "frac"},
		{"pdes.windows", "count"},
		{"pdes.cross_msgs", "count"},
		{"sweep.runs_simulated", "count"},
		{"store.hits", "count"},
		{"store.puts", "count"},
		{"runtime.alloc_mb", "MB"},
		{"runtime.alloc_b_per_event", "B"},
		{"runtime.gc_cpu_frac", "frac"},
		{"host.cpu_s", "s"},
		{"host.sys_s", "s"},
		{"cpu_s.total", "s"},
		{"cpu.malloc", "frac"},
		{"cpu_s.malloc", "s"},
	}
	for _, l := range layers {
		defs = append(defs, metricDef{"cpu." + l, "frac"}, metricDef{"cpu_s." + l, "s"})
	}
	return defs
}()

//go:embed expected.json
var expectedJSON []byte

// recorded returns the outputs recorded at the default seed for each
// operation of each workload.
func recorded() (map[string]map[string]string, error) {
	var m map[string]map[string]string
	if err := json.Unmarshal(expectedJSON, &m); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return m, nil
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	// record runs once at the default seed to print expected outputs.
	record bool
	// tiny shrinks the workload for the benchmark's own tests; dir is
	// where run stores are created.
	tiny bool
	dir  string
	// want overrides the recorded outputs (tests).
	want map[string]string
}

// result is the record the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	c := config{dir: ".bench_build"}
	var trace int
	fl.StringVar(&c.workload, "workload", "", "workload name")
	fl.Uint64Var(&c.seed, "seed", defaultSeed, "workload seed; the default runs the recorded paper configurations")
	fl.IntVar(&c.seconds, "seconds", 24, "how long the timed executions run")
	fl.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced execution")
	fl.BoolVar(&c.record, "record", false, "print the outputs of one execution at the default seed as expected.json entries")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	c.trace = trace == 1
	if c.record {
		return recordMain(c, stdout, stderr)
	}
	res, err := measure(c, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	hostLine, err := json.Marshal(map[string]host{"host": readHostInfo()})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", hostLine, line)
	return 0
}

// recordMain prints the outputs of one execution at the default seed.
func recordMain(c config, stdout, stderr io.Writer) int {
	c.seed = defaultSeed
	w, err := newWorkload(c)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	chk := &checker{want: map[string]string{}}
	w.execute(&execution{check: chk})
	if chk.failed > 0 {
		fmt.Fprintln(stderr, "perfbench: operations failed while recording:", chk.errs)
		return 1
	}
	b, err := json.MarshalIndent(map[string]map[string]string{c.workload: chk.want}, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}

// measure runs the workload and returns its metrics.
func measure(c config, stderr io.Writer) (result, error) {
	w, err := newWorkload(c)
	if err != nil {
		return result{}, err
	}
	chk := &checker{want: map[string]string{}, strict: !w.jitter}
	if !w.jitter {
		want := c.want
		if want == nil {
			all, err := recorded()
			if err != nil {
				return result{}, err
			}
			want = all[c.workload]
		}
		for k, v := range want {
			chk.want[k] = v
		}
	}
	var m map[string]float64
	if c.trace {
		m, err = measureLayers(w, chk)
	} else {
		m = measureEndToEnd(w, chk, time.Duration(c.seconds)*time.Second, stderr)
	}
	if err != nil {
		return result{}, err
	}
	for _, e := range chk.errs {
		fmt.Fprintln(stderr, "perfbench: failed:", e)
	}
	defs := endToEnd
	if c.trace {
		defs = perLayer
		m["failed_frac"] = float64(chk.failed) / float64(chk.attempted)
	}
	res := result{
		Correct:   chk.failed == 0,
		Attempted: chk.attempted,
		Failed:    chk.failed,
		Metrics:   map[string]metric{},
	}
	for _, d := range defs {
		v := m[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return res, nil
}

// execute runs w once from a freshly collected heap; memory marks the
// memory pass.
func execute(w *workload, chk *checker, memory bool) *execution {
	runtime.GC()
	ex := &execution{check: chk, memory: memory}
	h0 := readHost()
	w.execute(ex)
	ex.hostCounts(h0, readHost())
	return ex
}

// setup_s is the median of at least minSetups set-up samples, taken
// until setupBudget has passed. A sample times enough consecutive
// set-ups to last setupBatch, so that neither timer noise nor one slow
// filesystem call or scheduling delay decides it.
const (
	minSetups   = 9
	setupBudget = 1500 * time.Millisecond
	setupBatch  = 10 * time.Millisecond
)

// sampleSetup returns the median host time of w's set-up. Each sample
// starts from a collected heap and runs with the collector off, so a
// sample measures the set-up's own work, allocation included, and not
// whichever GC cycle happens to land in it.
func sampleSetup(w *workload) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	n := 1
	for w.setup(n) < setupBatch {
		n *= 2
	}
	var setups []float64
	for start := time.Now(); len(setups) < minSetups || time.Since(start) < setupBudget; {
		runtime.GC()
		setups = append(setups, w.setup(n).Seconds()/float64(n))
	}
	return median(setups)
}

// measureEndToEnd samples set-up alone, then makes one memory pass,
// then times executions for the given duration (at least one; none
// that would overrun it), and reports medians. Only the timed
// executions count against d. Set-up is sampled first
// so that it always starts from the same state, a fresh process, as a
// run's set-up does; after the heavy passes it read up to 40% apart
// from process to process.
func measureEndToEnd(w *workload, chk *checker, d time.Duration, stderr io.Writer) map[string]float64 {
	setup := sampleSetup(w)

	old := debug.SetGCPercent(10)
	hp := startHeapPeak()
	execute(w, chk, true)
	peak := hp.Stop()
	debug.SetGCPercent(old)

	var walls []float64
	for start := time.Now(); ; {
		ex := execute(w, chk, false)
		fmt.Fprintf(stderr, "perfbench: execution %d: run %.3fs\n", len(walls)+1, ex.run.Seconds())
		walls = append(walls, ex.run.Seconds())
		el := time.Since(start)
		if el+el/time.Duration(len(walls)) > d {
			break
		}
	}
	return map[string]float64{
		"wall_s":       median(walls),
		"setup_s":      setup,
		"peak_heap_mb": float64(peak) / 1e6,
	}
}

// measureLayers makes one untraced and one traced execution and reports
// the traced one's spans, counts and CPU profile folded into layers.
func measureLayers(w *workload, chk *checker) (map[string]float64, error) {
	plain := execute(w, chk, false)

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	ex := execute(w, chk, false)
	pprof.StopCPUProfile()
	stacks, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	f := fold(stacks)

	m := map[string]float64{}
	for k, v := range ex.counts {
		m[k] = v
	}
	for k, v := range ex.spans {
		m["span."+k+"_s"] = v.Seconds()
	}
	m["trace.overhead_frac"] = ex.run.Seconds()/plain.run.Seconds() - 1
	if ev := m["sim.events"]; ev > 0 {
		m["sim.events_per_s"] = ev / ex.simRun.Seconds()
		m["sim.host_ns_per_event"] = float64(ex.simRun.Nanoseconds()) / ev
		if ex.simRun == ex.run {
			m["runtime.alloc_b_per_event"] = m["runtime.alloc_mb"] * 1e6 / ev
		}
	}
	if ex.capacity > 0 {
		m["gpu.busy_frac"] = ex.busy / ex.capacity
	}
	m["cpu_s.total"] = float64(f.total) / 1e9
	m["cpu_s.malloc"] = float64(f.malloc) / 1e9
	if f.total > 0 {
		m["cpu.malloc"] = float64(f.malloc) / float64(f.total)
	}
	for _, l := range layers {
		m["cpu_s."+l] = float64(f.layer[l]) / 1e9
		if f.total > 0 {
			m["cpu."+l] = float64(f.layer[l]) / float64(f.total)
		}
	}
	return m, nil
}
