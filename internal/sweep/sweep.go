package sweep

import (
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/harness"
)

// Stats summarizes what a sharded sweep actually did, for logs and the
// bench trajectory.
type Stats struct {
	// Cells is the total number of distinct cells the sweep comprises.
	Cells int
	// Cached is how many were satisfied from the result cache.
	Cached int
	// Executed is how many ran on workers this sweep.
	Executed int
	// Retries counts cell assignments that had to be re-run elsewhere
	// after a worker died or reported a cell-level error.
	Retries int
	// Workers is how many workers completed the hello handshake.
	Workers int
	// Respawns counts replacement local workers started after deaths.
	Respawns int
	// Accesses is the total simulated memory accesses behind the sweep's
	// results, summed from the per-thread counts every cell result
	// carries — worker-executed and cache-served alike. It feeds the
	// bench trajectory's throughput stamp, which the in-process engine
	// counter cannot: in a sharded sweep the simulation runs in worker
	// processes, and in a warm re-sweep it ran in an earlier one.
	Accesses uint64
}

// Config configures a sharded sweep and the worker pool behind it.
type Config struct {
	// Harness is the experiment configuration; the merged output is
	// byte-identical to harness.RunAll(Harness) at any sharding.
	Harness harness.Config
	// Procs is how many worker transports to spawn via Spawn.
	Procs int
	// Spawn creates the i'th local worker transport (typically a
	// subprocess running `fsbench -worker`). Required when Procs > 0.
	Spawn func(i int) (io.ReadWriteCloser, error)
	// Listener optionally accepts remote TCP workers for the life of the
	// pool (shards on other machines dial in with `fsbench -worker
	// -connect`). The pool closes it when it closes, so no worker is
	// accepted into a finished sweep. With a listener and Procs == 0
	// cells wait until at least one worker connects.
	Listener net.Listener
	// Cache is the optional on-disk result cache; hits skip execution
	// entirely and finished cells are stored as they arrive, so an
	// interrupted sweep resumes where it stopped.
	Cache *Cache
	// MaxAttempts bounds how many times one cell may be assigned before
	// it fails (default 3): a cell that crashes every worker it touches
	// must not loop forever.
	MaxAttempts int
	// MaxRespawns bounds how many replacement workers the pool spawns
	// (via Spawn) after local workers die since a worker last returned a
	// result, so a 4-proc sweep that loses 3 workers recovers its
	// parallelism instead of limping serially on the survivor, and a
	// long-lived pool keeps healing. 0 means the default of 2×Procs;
	// negative disables re-spawning. Only spawned local workers are
	// replaced — remote TCP workers reconnect on their own terms — and a
	// replacement that dies before serving a cell consumes another unit
	// of the same budget, so a spawn command that always crashes cannot
	// respawn forever.
	MaxRespawns int
	// CellTimeout bounds how long one assigned cell may go without a
	// reply (0 = wait forever). A worker that exceeds it — a hung remote
	// shard, a wedged subprocess — is retired exactly like a dead one:
	// its transport is closed and the cell is retried on another worker.
	// The timeout must comfortably exceed the slowest cell's runtime; a
	// too-tight value merely burns attempts (MaxAttempts still bounds
	// the damage).
	CellTimeout time.Duration
	// Log receives human-readable progress diagnostics (optional).
	Log io.Writer
	// ProgressEvery emits a periodic progress line to Log while the
	// sweep runs (done/pending/requeued counts and the cache hit rate).
	// 0 disables it — the default, so batch logs stay quiet.
	ProgressEvery time.Duration
}

// Run executes a full sharded sweep: enumerate cells, satisfy what the
// cache can, farm the rest out to workers, then merge by preloading a
// runner and replaying the experiment assembly in this process.
func Run(cfg Config) (*harness.Results, Stats, error) {
	cells := harness.EnumerateCells(cfg.Harness)
	results, stats, err := RunCells(cfg, cells)
	if err != nil {
		return nil, stats, err
	}

	r := harness.NewRunner(cfg.Harness.Workers)
	for _, cell := range cells {
		res, ok := results[cell.ID()]
		if !ok {
			return nil, stats, fmt.Errorf("sweep: cell %s has no result after sweep", cell.ID())
		}
		if err := r.Preload(cell, res); err != nil {
			return nil, stats, fmt.Errorf("sweep: preloading %s: %w", cell.ID(), err)
		}
	}
	return harness.RunAllWith(r, cfg.Harness), stats, nil
}

// RunCells executes an explicit cell list on a worker pool and returns
// the finished results keyed by cell ID — the execution engine of Run,
// exposed so callers with their own plans (phase-sharded trace
// replays) get the same cache, retry, respawn and timeout machinery
// without the experiment-assembly merge. The pool is built only when
// some cell misses the cache, so a warm re-sweep starts no worker.
func RunCells(cfg Config, cells []harness.Cell) (map[string]harness.CellResult, Stats, error) {
	var stats Stats
	if cfg.Listener != nil {
		// The pool closes the listener too; this covers the sweep that
		// never builds one.
		defer cfg.Listener.Close()
	}

	// Dedupe by cell ID before planning: a caller-supplied list with the
	// same cell twice (a daemon submitting overlapping jobs) must behave
	// like a single copy, with one result per distinct ID.
	seen := make(map[string]bool, len(cells))
	deduped := cells[:0:0]
	for _, cell := range cells {
		if id := cell.ID(); !seen[id] {
			seen[id] = true
			deduped = append(deduped, cell)
		}
	}
	cells = deduped

	stats.Cells = len(cells)
	results := make(map[string]harness.CellResult, len(cells))
	var pending []harness.Cell
	for _, cell := range cells {
		if cfg.Cache != nil {
			if res, ok := cfg.Cache.Get(cell); ok {
				results[cell.ID()] = res
				stats.Cached++
				stats.Accesses += res.Result.Accesses()
				mCellsCached.Inc()
				continue
			}
		}
		pending = append(pending, cell)
	}
	if len(pending) == 0 {
		return results, stats, nil
	}

	pool, err := NewPool(cfg)
	if err != nil {
		return nil, stats, err
	}
	type outcome struct {
		cell harness.Cell
		res  harness.CellResult
		err  error
	}
	done := make(chan outcome, len(pending))
	for _, cell := range pending {
		go func() {
			res, err := pool.Exec(cell)
			done <- outcome{cell, res, err}
		}()
	}
	var progress <-chan time.Time
	if cfg.ProgressEvery > 0 {
		tick := time.NewTicker(cfg.ProgressEvery)
		defer tick.Stop()
		progress = tick.C
	}
	// On the first failure the pool closes, which fails every other
	// Exec promptly; the loop still collects them all so no goroutine
	// outlives the sweep.
	var firstErr error
	remaining := len(pending)
	mQueueDepth.Set(int64(remaining))
	for outstanding := remaining; outstanding > 0; {
		select {
		case o := <-done:
			outstanding--
			if firstErr != nil {
				continue
			}
			if o.err != nil {
				firstErr = o.err
				pool.Close()
				continue
			}
			results[o.cell.ID()] = o.res
			stats.Executed++
			stats.Accesses += o.res.Result.Accesses()
			remaining--
			mQueueDepth.Set(int64(remaining))
			if cfg.Cache != nil {
				if err := cfg.Cache.Put(o.cell, o.res); err != nil {
					pool.logf("sweep: caching %s: %v", o.cell.ID(), err)
				}
			}
		case <-progress:
			ps, live := pool.state()
			stats.Retries = ps.Retries
			pool.logf("%s", progressLine(stats, remaining, live))
		}
	}
	pool.Close()
	ps, _ := pool.state()
	stats.Workers, stats.Respawns, stats.Retries = ps.Workers, ps.Respawns, ps.Retries
	if firstErr != nil {
		return nil, stats, firstErr
	}
	return results, stats, nil
}

// progressLine formats the periodic -progress diagnostic. The cache hit
// rate is clamped to 0% when no cells are known yet — a bare ratio would
// print NaN% before the first cell completes (0/0).
func progressLine(stats Stats, remaining, live int) string {
	hitRate := 0.0
	if stats.Cells > 0 {
		hitRate = 100 * float64(stats.Cached) / float64(stats.Cells)
	}
	return fmt.Sprintf("sweep: progress: %d/%d cells done (%d cached, %.0f%% hit rate), %d pending, %d retries, %d workers live",
		stats.Cells-remaining, stats.Cells, stats.Cached, hitRate,
		remaining, stats.Retries, live)
}
