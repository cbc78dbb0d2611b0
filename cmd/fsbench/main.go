// Command fsbench regenerates the tables and figures of the paper's
// evaluation (§4).
//
// Usage:
//
//	fsbench -experiment fig1|fig4|fig5|fig7|table1|compare|ablation|all
//	        [-scale 1.0] [-threads 16] [-workers 0] [-app linear_regression]
//	        [-bench-out BENCH_harness.json]
//	        [-workers-procs 0] [-cache-dir DIR] [-cache-max-bytes N] [-listen ADDR]
//	fsbench -replay-shards N -app trace:PATH [-workers 0] [-workers-procs 0]
//	fsbench -worker [-connect ADDR]
//	fsbench ... [-metrics-addr 127.0.0.1:9137] [-span-log spans.jsonl]
//	        [-chrome-trace trace.json] [-progress 10s]
//
// -metrics-addr serves live Prometheus/JSON metrics and pprof while the
// sweep runs; -span-log / -chrome-trace record the sweep cell lifecycle
// as structured spans; -progress prints a periodic done/pending line
// for sharded sweeps. All are opt-in and off the report path: output is
// byte-identical with or without them.
//
// Each experiment prints the same rows or series the paper reports.
// Experiment cells run concurrently on a -workers pool (0 = GOMAXPROCS, 1 = serial);
// results are identical at any worker count. With -experiment all,
// -bench-out additionally writes a machine-readable trajectory entry
// (headline metrics, wall-clock, cells executed, git commit, timestamp)
// so performance and result drift can be tracked across revisions; the
// file is written atomically (temp file + rename), so an interrupted
// run cannot truncate it.
//
// Beyond the in-process pool, -experiment all shards across OS
// processes: -workers-procs N spawns N worker subprocesses (this binary
// re-executed with -worker), -listen ADDR additionally accepts remote
// workers started with `fsbench -worker -connect ADDR` on other
// machines, and -cache-dir keeps finished cells on disk so re-sweeps
// and crashed-sweep resumes skip completed work (-cache-max-bytes caps
// the directory, evicting least-recently-used entries from previous
// sweeps). Workers that die mid-sweep are replaced up to a bound, so a
// multi-proc sweep keeps its parallelism through crashes. The merged
// sharded report is byte-identical to the serial run — CI cmps the two.
//
// Recorded and imported memory-access traces sweep like any workload:
// pass `trace:<path>` wherever an application name is accepted, e.g.
// `fsbench -experiment fig5 -app trace:run.trace`. Cells of trace
// workloads are identified by the trace file's content hash, so cached
// results never go stale when the file is rewritten. Trace cells load
// indexed traces phase by phase under bounded memory and scan any other
// framing into memory. -replay-shards N splits one indexed trace into N
// contiguous phase ranges and replays them as independent
// `trace:<path>@lo-hi` cells — locally on the -workers pool, or across
// worker processes with -workers-procs/-listen — printing the merged
// per-shard report, byte-identical at any worker count.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	experiment := fs.String("experiment", "all",
		"which experiment to run: fig1, fig4, fig5, fig7, table1, compare, ablation, all")
	scale := fs.Float64("scale", 1.0, "workload scale factor")
	threads := fs.Int("threads", 16, "worker threads per parallel phase")
	workers := fs.Int("workers", 0, "max concurrent experiment cells (0 = GOMAXPROCS, 1 = serial)")
	machineName := fs.String("machine", "",
		"machine-model preset every cell simulates (topology, line size, protocol); empty = opteron48")
	app := fs.String("app", "linear_regression", "application for fig5 (case study report)")
	benchOut := fs.String("bench-out", "",
		"path for the machine-readable bench trajectory entry (with -experiment all)")
	benchGate := fs.String("bench-gate", "",
		"baseline BENCH_harness.json to gate against: exit non-zero when this sweep's accesses_per_sec regresses more than 20% below it (with -experiment all)")
	worker := fs.Bool("worker", false,
		"run as a sweep worker serving cells on stdin/stdout (or via -connect)")
	connect := fs.String("connect", "",
		"with -worker: dial a coordinator at host:port instead of using stdin/stdout")
	workersProcs := fs.Int("workers-procs", 0,
		"shard -experiment all across this many worker subprocesses (0 = in-process)")
	listenAddr := fs.String("listen", "",
		"with -experiment all: accept remote TCP sweep workers on this address")
	cacheDir := fs.String("cache-dir", "",
		"on-disk result cache for sharded sweeps; cached cells are never re-run")
	cacheMaxBytes := fs.Int64("cache-max-bytes", 0,
		"evict least-recently-used -cache-dir entries over this size (0 = unbounded; the running sweep's entries are never evicted)")
	cellTimeout := fs.Duration("cell-timeout", 0,
		"with a sharded sweep: requeue a cell whose worker sends no reply within this duration (0 = wait forever)")
	replayShards := fs.Int("replay-shards", 0,
		"with -app trace:PATH: split the indexed trace into this many phase-range shards and print the merged per-shard report")
	metricsAddr := fs.String("metrics-addr", "",
		"serve live metrics (Prometheus at /metrics, JSON at /metrics.json) and pprof on this address (e.g. 127.0.0.1:9137, or :0)")
	spanLog := fs.String("span-log", "", "append structured span/event records (JSONL) to this file")
	chromeTrace := fs.String("chrome-trace", "", "write a Chrome trace-event file (load in chrome://tracing) to this path")
	progressEvery := fs.Duration("progress", 0,
		"with a sharded sweep: print a progress line (done/pending/retries, cache hit rate) at this interval (0 = off)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	// A sweep is a batch job: relax the GC target so the simulator spends
	// its cycles simulating instead of collecting (worth a few percent of
	// end-to-end wall time). Peak memory stays modest at paper scale, and
	// every mode — coordinator, worker, serial — benefits alike.
	debug.SetGCPercent(400)

	// Worker mode: serve cells until the coordinator closes the stream.
	// Nothing else may write to stdout — it is the wire.
	if *worker {
		var err error
		if *connect != "" {
			err = sweep.ServeTCP(*connect)
		} else {
			err = sweep.Serve(os.Stdin, stdout)
		}
		if err != nil {
			fmt.Fprintf(stderr, "fsbench: worker: %v\n", err)
			return 1
		}
		return 0
	}

	// Trace pseudo-workloads are validated up front — the full pipeline,
	// not just decoding: workload Build cannot return errors (it panics,
	// inside a harness worker), so a bad path, corrupt file or
	// unrestorable layout is diagnosed here instead. ValidateTraceName
	// rehearses the same load path Build will take.
	if workload.IsTraceName(*app) {
		if err := workload.ValidateTraceName(*app); err != nil {
			fmt.Fprintf(stderr, "fsbench: %v\n", err)
			return 1
		}
	}

	if _, ok := machine.Preset(*machineName); !ok {
		fmt.Fprintf(stderr, "fsbench: unknown machine preset %q; available: %s\n",
			*machineName, strings.Join(machine.Names(), ", "))
		return 2
	}

	// Observability is opt-in and strictly off the report path: sweep
	// output is byte-identical with or without these flags (CI cmps it).
	obsCleanup, obsAddr, err := obs.Setup(*metricsAddr, *spanLog, *chromeTrace)
	if err != nil {
		fmt.Fprintf(stderr, "fsbench: %v\n", err)
		return 1
	}
	defer obsCleanup()
	if obsAddr != "" {
		fmt.Fprintf(stderr, "fsbench: serving metrics and pprof on http://%s\n", obsAddr)
	}

	cfg := harness.Config{Scale: *scale, Threads: *threads, Workers: *workers, Machine: *machineName}
	sharded := *workersProcs > 0 || *listenAddr != ""
	if sharded && *experiment != "all" && *replayShards == 0 {
		fmt.Fprintf(stderr, "fsbench: -workers-procs/-listen shard the full sweep; use -experiment all or -replay-shards\n")
		return 2
	}
	if *cacheDir != "" && !sharded {
		fmt.Fprintf(stderr, "fsbench: -cache-dir requires a sharded sweep (-workers-procs or -listen)\n")
		return 2
	}
	if *cacheMaxBytes != 0 && *cacheDir == "" {
		fmt.Fprintf(stderr, "fsbench: -cache-max-bytes requires -cache-dir\n")
		return 2
	}
	if *cacheMaxBytes < 0 {
		fmt.Fprintf(stderr, "fsbench: -cache-max-bytes must be >= 0\n")
		return 2
	}
	if *cellTimeout != 0 && !sharded {
		fmt.Fprintf(stderr, "fsbench: -cell-timeout requires a sharded sweep (-workers-procs or -listen)\n")
		return 2
	}
	if *progressEvery != 0 && !sharded {
		fmt.Fprintf(stderr, "fsbench: -progress requires a sharded sweep (-workers-procs or -listen)\n")
		return 2
	}

	// Phase-sharded trace replay: split one indexed trace into phase
	// ranges, run them as independent cells (local goroutines or sweep
	// worker processes), print the merged per-shard report.
	if *replayShards != 0 {
		if *replayShards < 1 {
			fmt.Fprintf(stderr, "fsbench: -replay-shards must be >= 1\n")
			return 2
		}
		if !workload.IsTraceName(*app) {
			fmt.Fprintf(stderr, "fsbench: -replay-shards requires -app trace:<path>\n")
			return 2
		}
		return runShardedReplay(cfg, *app, *replayShards, *workers, *workersProcs,
			*listenAddr, *cacheDir, *cacheMaxBytes, *cellTimeout, *progressEvery, stdout, stderr)
	}

	switch *experiment {
	case "all":
		var (
			res      *harness.Results
			cellsRun int
			workersN int
			accesses uint64
		)
		start := time.Now()
		if sharded {
			stats, code := runSharded(cfg, *workersProcs, *listenAddr, *cacheDir, *cacheMaxBytes, *cellTimeout, *progressEvery, &res, stderr)
			if code != 0 {
				return code
			}
			cellsRun, workersN = stats.Executed, stats.Workers
			// Worker processes report per-cell access counts over the wire
			// (and the cache preserves them), so the throughput stamp is
			// real even when no simulation ran in this process.
			accesses = stats.Accesses
			fmt.Fprintf(stderr, "fsbench: sweep of %d cells: %d cached, %d executed on %d workers, %d retries, %d respawns\n",
				stats.Cells, stats.Cached, stats.Executed, stats.Workers, stats.Retries, stats.Respawns)
		} else {
			r := harness.NewRunner(cfg.Workers)
			res = harness.RunAllWith(r, cfg)
			cellsRun = r.CellsRun()
			accesses = r.Accesses()
			workersN = cfg.Workers
			if workersN <= 0 {
				workersN = runtime.GOMAXPROCS(0)
			}
		}
		elapsed := time.Since(start)
		fmt.Fprint(stdout, res.Format())
		if *benchOut != "" || *benchGate != "" {
			presetName := *machineName
			if presetName == "" {
				presetName = machine.DefaultName
			}
			entry := harness.BenchEntry{
				Schema:      harness.BenchSchema,
				GitCommit:   gitCommit(),
				Timestamp:   time.Now().UTC().Format(time.RFC3339),
				Workers:     workersN,
				CellsRun:    cellsRun,
				WallSeconds: elapsed.Seconds(),
				Scale:       *scale,
				Threads:     *threads,
				Machine:     presetName,
				TraceFormat: trace.BinaryVersion,
				// The per-cell access counts over the sweep's wall clock:
				// simulation throughput, not report content.
				Accesses:       accesses,
				AccessesPerSec: float64(accesses) / elapsed.Seconds(),
				Metrics:        res.Metrics(),
			}
			if *benchOut != "" {
				b, err := entry.MarshalIndent()
				if err == nil {
					err = writeFileAtomic(*benchOut, b)
				}
				if err != nil {
					fmt.Fprintf(stderr, "fsbench: writing %s: %v\n", *benchOut, err)
					return 1
				}
				fmt.Fprintf(stdout, "\nwrote bench trajectory entry to %s (%d cells, %.1fs)\n",
					*benchOut, entry.CellsRun, entry.WallSeconds)
			}
			if *benchGate != "" {
				baseline, err := harness.LoadBenchBaseline(*benchGate)
				if err != nil {
					fmt.Fprintf(stderr, "fsbench: bench gate: %v\n", err)
					return 1
				}
				verdict := harness.CheckBenchGate(baseline, entry, harness.DefaultMaxRegression)
				fmt.Fprintf(stderr, "fsbench: bench gate: %s\n", verdict.Reason)
				if !verdict.OK {
					return 1
				}
			}
		}
	case "fig1":
		fmt.Fprint(stdout, harness.FormatFigure1(harness.Figure1(cfg)))
	case "fig4":
		fmt.Fprint(stdout, harness.FormatFigure4(harness.Figure4(cfg)))
	case "fig5":
		_, text := harness.Figure5(*app, cfg)
		fmt.Fprintf(stdout, "Figure 5: Cheetah report for %s\n\n%s", *app, text)
	case "fig7":
		fmt.Fprint(stdout, harness.FormatFigure7(harness.Figure7(cfg)))
	case "table1":
		fmt.Fprint(stdout, harness.FormatTable1(harness.Table1(cfg)))
	case "compare":
		fmt.Fprint(stdout, harness.FormatCompare(harness.Compare(cfg)))
	case "ablation":
		fmt.Fprint(stdout, harness.FormatPeriodAblation(harness.PeriodAblation(cfg)))
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, harness.FormatRuleAblation(harness.RuleAblation(cfg)))
	default:
		fmt.Fprintf(stderr, "fsbench: unknown experiment %q\n", *experiment)
		fs.Usage()
		return 2
	}
	return 0
}

// sweepConfig assembles the multi-process coordinator configuration:
// procs spawned subprocess workers (this binary re-executed with
// -worker), plus any remote workers that dial
// listenAddr, with an optional on-disk result cache and per-cell
// timeout.
func sweepConfig(cfg harness.Config, procs int, listenAddr, cacheDir string, cacheMaxBytes int64, cellTimeout, progressEvery time.Duration, stderr io.Writer) (sweep.Config, error) {
	sc := sweep.Config{Harness: cfg, Procs: procs, CellTimeout: cellTimeout, Log: stderr, ProgressEvery: progressEvery}
	if procs > 0 {
		self, err := os.Executable()
		if err != nil {
			return sc, fmt.Errorf("resolving own binary for workers: %v", err)
		}
		sc.Spawn = func(int) (io.ReadWriteCloser, error) {
			return sweep.SpawnWorkerProc(self, []string{"-worker"}, nil, stderr)
		}
	}
	if listenAddr != "" {
		ln, err := net.Listen("tcp", listenAddr)
		if err != nil {
			return sc, fmt.Errorf("listening on %s: %v", listenAddr, err)
		}
		fmt.Fprintf(stderr, "fsbench: accepting sweep workers on %s\n", ln.Addr())
		sc.Listener = ln
	}
	if cacheDir != "" {
		cache, err := sweep.OpenCache(cacheDir)
		if err != nil {
			return sc, err
		}
		cache.SetMaxBytes(cacheMaxBytes)
		sc.Cache = cache
	}
	return sc, nil
}

// runSharded runs the full sweep through the multi-process coordinator.
// The merged *harness.Results lands in *res.
func runSharded(cfg harness.Config, procs int, listenAddr, cacheDir string, cacheMaxBytes int64, cellTimeout, progressEvery time.Duration, res **harness.Results, stderr io.Writer) (sweep.Stats, int) {
	sc, err := sweepConfig(cfg, procs, listenAddr, cacheDir, cacheMaxBytes, cellTimeout, progressEvery, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "fsbench: %v\n", err)
		return sweep.Stats{}, 1
	}
	out, stats, err := sweep.Run(sc)
	if err != nil {
		fmt.Fprintf(stderr, "fsbench: %v\n", err)
		return stats, 1
	}
	*res = out
	return stats, 0
}

// runShardedReplay implements -replay-shards: plan contiguous phase
// ranges over the indexed trace, run each range as an independent
// `trace:<path>@lo-hi` cell — in-process on up to localWorkers
// goroutines, or across sweep worker processes when -workers-procs or
// -listen is set — and print the merged per-shard report. The report is
// a pure function of the plan and the deterministic per-cell results,
// so the bytes are identical at any worker count, in-process or not.
func runShardedReplay(cfg harness.Config, app string, shards, localWorkers, procs int, listenAddr, cacheDir string, cacheMaxBytes int64, cellTimeout, progressEvery time.Duration, stdout, stderr io.Writer) int {
	plan, err := harness.TraceShardPlan(app, shards, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "fsbench: %v\n", err)
		return 1
	}
	var results map[string]harness.CellResult
	if procs > 0 || listenAddr != "" {
		sc, err := sweepConfig(cfg, procs, listenAddr, cacheDir, cacheMaxBytes, cellTimeout, progressEvery, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "fsbench: %v\n", err)
			return 1
		}
		cells := make([]harness.Cell, len(plan))
		for i := range plan {
			cells[i] = plan[i].Cell
		}
		var stats sweep.Stats
		results, stats, err = sweep.RunCells(sc, cells)
		if err != nil {
			fmt.Fprintf(stderr, "fsbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "fsbench: sharded replay of %d shards: %d cached, %d executed on %d workers, %d retries, %d respawns\n",
			stats.Cells, stats.Cached, stats.Executed, stats.Workers, stats.Retries, stats.Respawns)
	} else {
		w := localWorkers
		if w <= 0 {
			w = runtime.GOMAXPROCS(0)
		}
		results, err = harness.RunShardsLocal(plan, w)
		if err != nil {
			fmt.Fprintf(stderr, "fsbench: %v\n", err)
			return 1
		}
	}
	out, err := harness.FormatShardedReplay(plan, results)
	if err != nil {
		fmt.Fprintf(stderr, "fsbench: %v\n", err)
		return 1
	}
	fmt.Fprint(stdout, out)
	return 0
}

// gitCommit resolves the source revision for the bench trajectory:
// preferably the revision the binary was built from (embedded VCS build
// info), falling back to the working directory's git HEAD (the
// `go run ./cmd/fsbench` case, where no VCS info is stamped), and
// "unknown" outside any checkout.
func gitCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// writeFileAtomic writes data to path via a temp file in the same
// directory plus rename, so an interrupted run can never leave a
// truncated trajectory file behind.
func writeFileAtomic(path string, data []byte) error {
	return atomicfile.WriteFile(path, data, 0o644)
}
