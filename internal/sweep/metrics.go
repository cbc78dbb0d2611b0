package sweep

import "repro/internal/obs"

// Worker-pool observability: the cell lifecycle (enqueue→assign→result,
// with requeue/timeout/respawn detours) and worker population of every
// Pool in the process — fsbench sweeps and the cheetahd gateway's
// -worker-procs alike — aggregated process-wide. Everything here is
// touched per cell or per worker event — never per simulated access —
// so the cost is invisible next to cell execution.
var (
	mCellsEnqueued = obs.GetCounter("cheetah_sweep_cells_enqueued_total",
		"Cells submitted to a worker pool (cache misses).")
	mCellsCached = obs.GetCounter("cheetah_sweep_cells_cached_total",
		"Cells satisfied from the on-disk result cache.")
	mCellsCompleted = obs.GetCounter("cheetah_sweep_cells_completed_total",
		"Cells completed by workers.")
	mCellsRequeued = obs.GetCounter("cheetah_sweep_cells_requeued_total",
		"Cell assignments retried after a worker death, timeout or cell error.")
	mCellTimeouts = obs.GetCounter("cheetah_sweep_cell_timeouts_total",
		"Cell assignments abandoned for exceeding the cell timeout.")
	mWorkersSpawned = obs.GetCounter("cheetah_sweep_workers_spawned_total",
		"Workers that completed the hello handshake.")
	mWorkersLost = obs.GetCounter("cheetah_sweep_workers_lost_total",
		"Workers retired by transport failure, protocol violation, or timeout.")
	mWorkersRespawned = obs.GetCounter("cheetah_sweep_workers_respawned_total",
		"Replacement local workers spawned after mid-sweep deaths.")
	mWorkersLive = obs.GetGauge("cheetah_sweep_workers_live",
		"Workers currently past their handshake and serving cells.")
	mQueueDepth = obs.GetGauge("cheetah_sweep_queue_depth",
		"Cells not yet finished in the running sweep.")
	mCellSeconds = obs.GetHistogram("cheetah_sweep_cell_seconds",
		"Wall-clock seconds per remote cell execution (assignment to reply).",
		obs.DurationBuckets)
)
