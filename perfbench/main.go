// Command perfbench is the repository's benchmark. One invocation runs
// one named workload for a fixed number of seconds and prints, as the
// last line of standard output, a JSON object with the correctness
// tally and every metric with its unit:
//
//	perfbench -workload sweep|replay|gateway -seed N -seconds S -trace 0|1
//
// An untraced run (-trace 0) reports the end-to-end metrics; a traced
// run (-trace 1) reports the per-layer metrics instead, from spans the
// benchmark records around its own calls into each layer and from
// capture-and-replay drives of single layers. README.md beside this
// file explains the workloads, the metrics and what each one should
// move. run.sh builds the binaries and is the supported entry point.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"
)

// gcPercent matches cmd/fsbench, so heap pacing is the one users of the
// sweep CLI see.
const gcPercent = 400

// setupRounds is how many times a run sets its workload up; setup_s is
// the median, so one slow start-up does not decide it.
const setupRounds = 3

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is one invocation's configuration.
type env struct {
	seed    int64
	seconds float64
	// bin holds the cheetahd binary the gateway workload starts.
	bin string
	// work is this run's private scratch directory.
	work string
	size size
	log  io.Writer
}

// deadline returns when a window opened at start closes.
func (e *env) deadline(start time.Time) time.Time {
	return start.Add(time.Duration(e.seconds * float64(time.Second)))
}

// size holds every knob that scales the work a run does. The benchmark
// always uses fullSize; the benchmark's own tests use tinySize.
type size struct {
	// sweepScale is the workload scale of the measured evaluation sweep;
	// warmScale that of the warm-up sweep run during set-up.
	sweepScale, warmScale float64
	// replayPrograms is how many programs the replay workload records,
	// at replayFactor times their pool scale (see replayPool).
	replayPrograms int
	replayFactor   float64
	// gatewayScale is the workload scale of named-workload gateway
	// jobs; gatewayTraces how many traces the gateway set-up records
	// for upload jobs, at uploadFactor times their pool scale.
	// gatewayClients bounds the closed loop's
	// concurrency and gatewayMinJobs is the fewest jobs a run completes.
	gatewayScale   float64
	gatewayTraces  int
	uploadFactor   float64
	gatewayClients int
	gatewayMinJobs int
	// gatewayRefJobs is how many jobs of the seeded mix get their local
	// reference built during set-up; later jobs are checked after the
	// window.
	gatewayRefJobs int
	// driveCells is how many of a workload's cells the traced run
	// captures and drives layer by layer.
	driveCells int
}

var fullSize = size{
	sweepScale: 0.1, warmScale: 0.02,
	replayPrograms: 8, replayFactor: 0.5,
	gatewayScale: 0.02, gatewayTraces: 3, uploadFactor: 0.1, gatewayClients: 2, gatewayMinJobs: 200, gatewayRefJobs: 300,
	driveCells: 4,
}

var tinySize = size{
	sweepScale: 0.01, warmScale: 0.005,
	replayPrograms: 2, replayFactor: 0.05,
	gatewayScale: 0.005, gatewayTraces: 1, uploadFactor: 0.05, gatewayClients: 2, gatewayMinJobs: 20, gatewayRefJobs: 10,
	driveCells: 4,
}

// tally counts checked operations and failures. It is shared by the
// gateway's concurrent clients.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	log       io.Writer
}

// check records one checked operation; a false ok is a failure, logged
// with its reason.
func (t *tally) check(ok bool, format string, args ...any) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if !ok {
		t.failed++
		fmt.Fprintf(t.log, "perfbench: FAIL: "+format+"\n", args...)
	}
	return ok
}

// window is what one untraced measurement window observed.
type window struct {
	// passes marks a window whose slices each ran the same jobs in the
	// same order.
	passes bool
	// slices split the window into consecutive sub-windows (a sweep
	// pass, a replay round, a second of gateway traffic); throughputs
	// are the median over slices, so a burst of host noise moves one
	// slice rather than the result.
	slices []slice
}

// slice is one sub-window.
type slice struct {
	wall time.Duration
	// cpu is the host CPU time spent by every process doing the work.
	cpu time.Duration
	// accesses is the number of simulated memory accesses completed.
	accesses uint64
	// latencies holds one entry per job completed in the slice, in
	// milliseconds.
	latencies []float64
	// rssMiB is the peak resident memory of the working process(es)
	// during the slice.
	rssMiB float64
}

// passWindow runs pass until the window closes, one slice per pass, for
// workloads whose work runs in this process.
func passWindow(e *env, pass func(sl *slice)) window {
	w := window{passes: true}
	start := time.Now()
	for end := e.deadline(start); len(w.slices) == 0 || time.Now().Before(end); {
		var sl slice
		// Every slice starts from a collected heap, so the slices see the
		// same GC phase.
		runtime.GC()
		self := []int{os.Getpid()}
		resetPeakRSS(self)
		t0, c0 := time.Now(), selfCPU()
		pass(&sl)
		sl.wall, sl.cpu = time.Since(t0), selfCPU()-c0
		sl.rssMiB = peakRSSMiB(self)
		w.slices = append(w.slices, sl)
	}
	return w
}

// bench is one workload.
type bench interface {
	// setup prepares the workload; it runs setupRounds times with
	// teardown in between, and the last set-up stays live for the run.
	setup(e *env, t *tally) error
	teardown()
	// measure runs the untraced window.
	measure(e *env, t *tally) (window, error)
	// traced runs the traced measurement and the layer drives, returning
	// the per-layer metrics.
	traced(e *env, t *tally) (map[string]metric, error)
}

// workloads maps each workload name to its constructor.
var workloads = map[string]func() bench{
	"sweep":   func() bench { return &sweepBench{} },
	"replay":  func() bench { return &replayBench{} },
	"gateway": func() bench { return &gatewayBench{} },
}

// workloadNames lists the workloads in sorted order.
func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "length of the measurement window")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	bin := fs.String("bin", "", "directory holding the cheetahd binary (gateway workload)")
	work := fs.String("work", "", "scratch directory (a private subdirectory is created per run)")
	commit := fs.String("commit", "unknown", "source commit, stamped next to the numbers")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) || *work == "" {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds > 0, -trace 0|1 and -work\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	debug.SetGCPercent(gcPercent)

	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(*work, *name+"-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	e := &env{seed: *seed, seconds: *seconds, bin: *bin, work: dir, size: fullSize, log: stderr}

	stamp := map[string]any{
		"workload": *name, "seed": *seed, "seconds": *seconds, "trace": *traceFlag,
		"workers": sweepWorkers, "gateway_clients": e.size.gatewayClients,
		"gateway_worker_procs": gatewayWorkerProcs,
		"gomaxprocs":           runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"cpu_model": cpuModel(), "go_version": runtime.Version(), "commit": *commit,
		"gc_percent": gcPercent,
	}
	stampLine, _ := json.Marshal(map[string]any{"stamp": stamp})
	fmt.Fprintf(stderr, "%s\n", stampLine)

	res, err := runBench(mk(), e, *traceFlag == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	// The stamp goes next to the numbers; the result is the last line.
	fmt.Fprintf(stdout, "%s\n%s\n", stampLine, line)
	return 0
}

// runBench sets the workload up setupRounds times, then runs the
// untraced window (end-to-end metrics) or the traced run (per-layer
// metrics).
func runBench(b bench, e *env, traced bool) (*result, error) {
	t := &tally{log: e.log}
	var setups []float64
	for i := 0; i < setupRounds; i++ {
		if i > 0 {
			b.teardown()
		}
		start := time.Now()
		if err := b.setup(e, t); err != nil {
			b.teardown()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer b.teardown()

	var metrics map[string]metric
	if traced {
		m, err := b.traced(e, t)
		if err != nil {
			return nil, err
		}
		metrics = m
	} else {
		w, err := b.measure(e, t)
		if err != nil {
			return nil, err
		}
		logWindow(e.log, w)
		metrics = endToEnd(w, median(setups))
	}
	if t.attempted == 0 {
		return nil, errors.New("no operation was checked")
	}
	return &result{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   metrics,
	}, nil
}

// endToEnd turns a measurement window into the end-to-end metrics: each
// is the median over the window's slices of the slice's own value.
func endToEnd(w window, setupS float64) map[string]metric {
	var acc, cpuAcc, jobs, p50, p95, rss []float64
	for _, sl := range w.slices {
		acc = append(acc, float64(sl.accesses)/sl.wall.Seconds())
		cpuAcc = append(cpuAcc, float64(sl.accesses)/sl.cpu.Seconds())
		jobs = append(jobs, float64(len(sl.latencies))/sl.wall.Seconds())
		p50 = append(p50, percentile(sl.latencies, 50))
		p95 = append(p95, percentile(sl.latencies, 95))
		rss = append(rss, sl.rssMiB)
	}
	if w.passes {
		// Every slice ran the same jobs in the same order: take each job's
		// median over the slices, then the percentiles over the jobs, so a
		// percentile always falls between the same two jobs.
		var perJob []float64
		for i := range w.slices[0].latencies {
			var xs []float64
			for _, sl := range w.slices {
				if i < len(sl.latencies) {
					xs = append(xs, sl.latencies[i])
				}
			}
			perJob = append(perJob, median(xs))
		}
		p50, p95 = []float64{percentile(perJob, 50)}, []float64{percentile(perJob, 95)}
	}
	return map[string]metric{
		"accesses_per_s":     {median(acc), "1/s"},
		"cpu_accesses_per_s": {median(cpuAcc), "1/s"},
		"jobs_per_s":         {median(jobs), "1/s"},
		"job_latency_p50_ms": {median(p50), "ms"},
		"job_latency_p95_ms": {median(p95), "ms"},
		"peak_rss_mb":        {median(rss), "MiB"},
		"setup_s":            {setupS, "s"},
	}
}

// logWindow writes the per-slice throughputs, for reading a run's noise.
func logWindow(log io.Writer, w window) {
	var b strings.Builder
	for _, sl := range w.slices {
		fmt.Fprintf(&b, " %.3g", float64(sl.accesses)/sl.wall.Seconds())
	}
	fmt.Fprintf(log, "perfbench: %d slices, accesses/s:%s\n", len(w.slices), b.String())
}

// newDir creates a fresh directory under the run's scratch directory.
func (e *env) newDir(prefix string) (string, error) {
	return os.MkdirTemp(e.work, prefix+"-")
}

// spanLog collects spans in memory; they are written once, at the end of
// a traced run.
type spanLog struct {
	mu    sync.Mutex
	start time.Time
	spans []span
}

// span is one timed call into a layer.
type span struct {
	Layer string `json:"layer"`
	Name  string `json:"name"`
	// Job groups the spans of one job (a cell, a replay, a gateway job).
	Job     string  `json:"job,omitempty"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
}

func newSpanLog() *spanLog { return &spanLog{start: time.Now()} }

// add records a span that began at start and ends now, returning its
// duration.
func (l *spanLog) add(layer, name, job string, start time.Time) time.Duration {
	d := time.Since(start)
	l.record(layer, name, job, start, d)
	return d
}

// record stores a span that began at start and lasted d.
func (l *spanLog) record(layer, name, job string, start time.Time, d time.Duration) {
	l.mu.Lock()
	l.spans = append(l.spans, span{
		Layer: layer, Name: name, Job: job,
		StartUS: float64(start.Sub(l.start).Nanoseconds()) / 1e3,
		DurUS:   float64(d.Nanoseconds()) / 1e3,
	})
	l.mu.Unlock()
}

// durations returns the durations (ms) of every span with this layer
// and name.
func (l *spanLog) durations(layer, name string) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, s := range l.spans {
		if s.Layer == layer && s.Name == name {
			out = append(out, s.DurUS/1e3)
		}
	}
	return out
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	return f.Close()
}

// spanPath is where a traced run leaves its spans: beside the scratch
// directory, which is removed when the run ends.
func (e *env) spanPath(workload string) string {
	return filepath.Join(filepath.Dir(e.work), "spans", fmt.Sprintf("%s-seed%d.jsonl", workload, e.seed))
}

// layerNames lists the metrics of the coarse layers a workload may not
// exercise; addIdleLayers reports them as 0 on workloads whose path
// does not go through them.
var layerNames = map[string]map[string]string{
	"harness": {
		"harness.build_ms": "ms", "harness.cell_ms.native": "ms", "harness.cell_ms.profiled": "ms",
		"harness.cell_ms.predator": "ms", "harness.cell_ms.sheriff": "ms", "harness.cell_ms.rule": "ms",
		"harness.cells": "count",
	},
	"trace": {
		"trace.decode_ns_per_event.v2": "ns", "trace.decode_ns_per_event.v3": "ns",
		"trace.open_ms.full": "ms", "trace.open_ms.stream": "ms", "trace.window_loads": "count",
		"trace.window_max_ops": "count", "trace.bytes_per_access": "B",
	},
	"sweep": {"sweep.wire_us_per_cell": "us", "sweep.wire_bytes_per_cell": "B"},
	"cheetahd": {
		"cheetahd.submit_ms": "ms", "cheetahd.queue_wait_ms": "ms", "cheetahd.run_ms": "ms",
		"cheetahd.report_ms": "ms", "cheetahd.cache_hit_ratio": "ratio", "cheetahd.rejected": "count",
		"cheetahd.sse_unterminated": "count",
	},
}

// addIdleLayers sets every metric of the named layers to 0.
func addIdleLayers(m map[string]metric, layers ...string) {
	for _, l := range layers {
		for name, unit := range layerNames[l] {
			m[name] = metric{0, unit}
		}
	}
}
