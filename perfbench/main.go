// Command perfbench is the repository's benchmark. It runs one workload
// through AlgoProf's public layers, checks every output against the
// paper's labels and the repository's byte-identity oracles, and prints
// the metrics BENCHMARK.json names.
//
//	go run . --workload profile-scan --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, measured with no
// spans; with --trace 1 it prints the per-layer metrics of a separate
// traced run. The last line of standard output is the result object;
// the line before it is the provenance header with every series'
// median and quartiles. See README.md for the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setups is how many times each run repeats its set-up; setup_s is their
// median.
const setups = 5

type opts struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	tmp      string // scratch directory inside the working directory
}

// run accumulates one benchmark run's measurements.
type run struct {
	setup     []float64     // CPU seconds per set-up
	op        []float64     // wall ms per unit of work, untraced
	opCPU     []float64     // CPU ms per unit of work, untraced
	wall      time.Duration // wall time of the untraced units
	outBytes  float64       // bytes the measured units produced
	attempted int
	failed    int
	failures  []string
	// series are workload-specific sample series (record_s, job_ms, ...),
	// summarized in the provenance header.
	series map[string][]float64
	// layer holds the per-layer metrics of a traced run.
	layer map[string]float64
}

// unit books one attempted unit of work; a non-nil err marks it failed.
func (r *run) unit(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 10 {
			r.failures = append(r.failures, err.Error())
		}
	}
}

func (r *run) add(series string, v float64) {
	r.series[series] = append(r.series[series], v)
}

// timed runs one untraced unit of work and books it. unit times its own
// work and returns its wall and CPU time and the bytes the work produced;
// checks it makes after the timed part are not counted.
func (r *run) timed(unit func() (elapsed, int, error)) {
	el, bytes, err := unit()
	r.unit(err)
	if err == nil {
		r.op = append(r.op, ms(el.wall))
		r.opCPU = append(r.opCPU, ms(el.cpu))
		r.wall += el.wall
		r.outBytes += float64(bytes)
	}
}

// elapsed is a span of both clocks: wall time, and the CPU time (user
// plus system, all threads) the process used in it.
type elapsed struct{ wall, cpu time.Duration }

func (e elapsed) add(o elapsed) elapsed { return elapsed{e.wall + o.wall, e.cpu + o.cpu} }

// stopwatch reads both clocks at a start point.
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func startWatch() stopwatch { return stopwatch{time.Now(), cpuTime()} }

func (s stopwatch) elapsed() elapsed { return elapsed{time.Since(s.wall), cpuTime() - s.cpu} }

// cpuTime is the CPU time the process has used. Unlike wall time it
// excludes the time a shared host's hypervisor takes the virtual CPUs
// away (steal), which on a busy host swings wall times by tens of percent
// within a minute.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// repeat calls f until d has passed, and at least once.
func repeat(d time.Duration, f func()) {
	start := time.Now()
	for n := 0; n == 0 || time.Since(start) < d; n++ {
		f()
	}
}

// splitRun splits a run's time 3:2. A traced run alternates untraced and
// traced units of the workload's own work in the first share and runs
// reference passes, which isolate layers inside the workload's calls, in
// the rest.
func splitRun(d time.Duration) (alternating, reference time.Duration) {
	return d * 3 / 5, d - d*3/5
}

// traced books a traced pass: its error, and its wall time when it
// succeeded.
func (r *run) traced(tr *tracer, walls *[]float64, pass func() error) {
	start := time.Now()
	tr.beginPass()
	err := pass()
	tr.endPass()
	r.unit(err)
	if err == nil {
		*walls = append(*walls, ms(time.Since(start)))
	}
}

// finishTrace derives the per-layer metrics of a traced run, the tracing
// overhead (traced against untraced passes of the same work; 0 when the
// workload's calls carry no extra spans) and the span-coverage check.
func (r *run) finishTrace(tr *tracer, tracedWalls []float64) {
	layerMetrics(tr, r.layer)
	r.layer["trace.coverage"] = tr.coverage()
	if len(tracedWalls) > 0 {
		r.layer["trace.overhead"] = median(tracedWalls)/median(r.op) - 1
	}
	checkCoverage(r, r.layer["trace.coverage"])
}

type workload struct {
	name string
	run  func(o opts, r *run) error
}

var workloadTable = []workload{
	{"profile-scan", profileWorkload(scanMix)},
	{"profile-build", profileWorkload(buildMix)},
	{"record-replay", recordReplay},
}

func main() {
	var o opts
	var seconds float64
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload to run: profile-scan, profile-build or record-replay")
	flag.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&seconds, "seconds", 15, "how long to measure")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run printing per-layer metrics; 0 = end-to-end metrics")
	flag.Parse()
	o.seconds = time.Duration(seconds * float64(time.Second))
	o.trace = traceFlag == 1
	if flag.NArg() > 0 || (traceFlag != 0 && traceFlag != 1) || seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	res, prov, err := benchmark(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out := bufio.NewWriter(os.Stdout)
	enc := json.NewEncoder(out)
	err = enc.Encode(prov)
	if err == nil {
		err = enc.Encode(res)
	}
	if err == nil {
		err = out.Flush()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type provenance struct {
	Provenance map[string]any     `json:"provenance"`
	Summary    map[string]summary `json:"summary"`
}

// benchmark runs one workload and assembles its result and provenance.
func benchmark(o opts) (*result, *provenance, error) {
	var w *workload
	for i := range workloadTable {
		if workloadTable[i].name == o.workload {
			w = &workloadTable[i]
		}
	}
	if w == nil {
		return nil, nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, nil, err
	}
	tmp, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(tmp)
	o.tmp = tmp

	r := &run{series: map[string][]float64{}, layer: map[string]float64{}}
	zeroLayers(r.layer)
	if err := w.run(o, r); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, nil, err
	}

	res := &result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	defs := endToEnd
	values := map[string]float64{
		"setup_s":     median(r.setup),
		"op_cpu_ms":   median(r.opCPU),
		"peak_rss_mb": rss,
		"out_bytes":   ratio(r.outBytes, float64(len(r.op))),
	}
	if o.trace {
		defs, values = perLayer, r.layer
		values["failed_frac"] = ratio(float64(r.failed), float64(r.attempted))
		values["op_ms"] = median(r.op)
		values["op_ms.p90"] = percentile(r.op, 90)
		values["op_cpu_ms.p90"] = percentile(r.opCPU, 90)
		values["ops_per_s"] = ratio(float64(len(r.op)), r.wall.Seconds())
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, nil, fmt.Errorf("%s: metric %s not measured", o.workload, d.name)
		}
		res.Metrics[d.name] = metricValue{v, d.unit}
	}

	prov := &provenance{
		Provenance: map[string]any{
			"commit":     commit(),
			"go_version": runtime.Version(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"nproc":      runtime.NumCPU(),
			"workload":   o.workload,
			"seed":       o.seed,
			"seconds":    o.seconds.Seconds(),
			"trace":      o.trace,
			"passes":     len(r.op),
			"setups":     len(r.setup),
		},
		Summary: map[string]summary{"setup_s": summarize(r.setup), "op_ms": summarize(r.op), "op_cpu_ms": summarize(r.opCPU)},
	}
	for name, xs := range r.series {
		prov.Summary[name] = summarize(xs)
	}
	return res, prov, nil
}

// commit is the VCS revision the binary was built from, when the build
// recorded one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}
