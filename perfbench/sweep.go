package main

// The sweep workload: the paper's full evaluation, harness.RunAllWith
// over harness.EnumerateCells at 16 threads on the canonical opteron48,
// executed in-process. Each pass runs every cell once through
// harness.RunCell, preloads the results into a fresh private
// harness.Runner and assembles the tables with RunAllWith, so no cell is
// memoized across passes. The evaluation is fixed, so the seed selects
// nothing here but the traced run's drive cells.

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/harness"
	"repro/internal/workload"
)

// sweepWorkers is the stamped worker count of the sweep: cells run one
// at a time, so the host's other CPU absorbs the Go runtime and the
// number does not depend on the host's size.
const sweepWorkers = 1

//go:embed refs/sweep.json
var sweepRefsJSON []byte

// sweepRefs maps sweepRefKey(config) to the Results.Metrics() map that
// configuration must produce.
var sweepRefs = func() map[string]map[string]float64 {
	var m map[string]map[string]float64
	if err := json.Unmarshal(sweepRefsJSON, &m); err != nil {
		panic(fmt.Sprintf("perfbench: refs/sweep.json: %v", err))
	}
	return m
}()

// sweepConfig is the evaluation configuration at a scale.
func sweepConfig(scale float64) harness.Config {
	return harness.Config{Scale: scale, Threads: 16, Cores: 48, Workers: sweepWorkers}
}

// sweepRefKey names a configuration in refs/sweep.json.
func sweepRefKey(c harness.Config) string {
	return fmt.Sprintf("scale=%g threads=%d cores=%d", c.Scale, c.Threads, c.Cores)
}

type sweepBench struct {
	cfg   harness.Config
	cells []harness.Cell
	ref   map[string]float64
}

// setup loads the reference, plans the sweep and runs one warm-up
// evaluation at a small scale, checked against its own reference.
func (s *sweepBench) setup(e *env, t *tally) error {
	s.cfg = sweepConfig(e.size.sweepScale)
	warm := sweepConfig(e.size.warmScale)
	var ok bool
	if s.ref, ok = sweepRefs[sweepRefKey(s.cfg)]; !ok {
		return fmt.Errorf("no reference for %s in refs/sweep.json", sweepRefKey(s.cfg))
	}
	warmRef, ok := sweepRefs[sweepRefKey(warm)]
	if !ok {
		return fmt.Errorf("no reference for %s in refs/sweep.json", sweepRefKey(warm))
	}
	s.cells = harness.EnumerateCells(s.cfg)
	sweepPass(warm, harness.EnumerateCells(warm), warmRef, t, nil, nil)
	return nil
}

func (s *sweepBench) teardown() {}

// cellRun is one executed cell of a pass.
type cellRun struct {
	cell harness.Cell
	dur  time.Duration
	res  harness.CellResult
}

// sweepPass runs one full evaluation and checks its metrics against ref.
// Each finished cell is handed to onCell; with spans set, every RunCell
// call and the assembly are recorded as spans.
func sweepPass(cfg harness.Config, cells []harness.Cell, ref map[string]float64, t *tally,
	spans *spanLog, onCell func(cellRun)) {
	r := harness.NewRunner(sweepWorkers)
	for _, c := range cells {
		start := time.Now()
		res, err := harness.RunCell(c)
		d := time.Since(start)
		if spans != nil {
			spans.add("harness", "cell."+c.Kind, c.ID(), start)
		}
		if !t.check(err == nil, "sweep cell %s: %v", c.ID(), err) {
			continue
		}
		if onCell != nil {
			onCell(cellRun{cell: c, dur: d, res: res})
		}
		if err := r.Preload(c, res); err != nil {
			t.check(false, "sweep cell %s: preload: %v", c.ID(), err)
		}
	}
	start := time.Now()
	got := harness.RunAllWith(r, cfg).Metrics()
	if spans != nil {
		spans.add("harness", "assemble", "", start)
	}
	checkMetrics(t, sweepRefKey(cfg), got, ref)
}

// checkMetrics compares an evaluation's metrics with the reference,
// one checked operation per metric name.
func checkMetrics(t *tally, what string, got, want map[string]float64) {
	names := map[string]bool{}
	for k := range got {
		names[k] = true
	}
	for k := range want {
		names[k] = true
	}
	for k := range names {
		g, gok := got[k]
		w, wok := want[k]
		t.check(gok && wok && g == w, "sweep %s: metric %s = %v (present %v), reference %v (present %v)",
			what, k, g, gok, w, wok)
	}
}

func (s *sweepBench) measure(e *env, t *tally) (window, error) {
	return passWindow(e, func(sl *slice) {
		sweepPass(s.cfg, s.cells, s.ref, t, nil, func(cr cellRun) {
			sl.accesses += cr.res.Result.Accesses()
			sl.latencies = append(sl.latencies, float64(cr.dur.Nanoseconds())/1e6)
		})
	}), nil
}

// traced runs one untraced pass, then traced passes until the window
// closes, times every program build of a pass, and drives a seeded set
// of the sweep's cells layer by layer.
func (s *sweepBench) traced(e *env, t *tally) (map[string]metric, error) {
	start := time.Now()
	sweepPass(s.cfg, s.cells, s.ref, t, nil, nil)
	untraced := time.Since(start)

	spans := newSpanLog()
	var (
		runs  []cellRun
		walls []float64
	)
	start = time.Now()
	for end := e.deadline(start); len(walls) == 0 || time.Now().Before(end); {
		pass := time.Now()
		sweepPass(s.cfg, s.cells, s.ref, t, spans, func(cr cellRun) { runs = append(runs, cr) })
		walls = append(walls, time.Since(pass).Seconds())
	}
	tracedWall := time.Since(start)

	// Program builds happen inside RunCell; time them on their own.
	for _, c := range s.cells {
		start := time.Now()
		if _, _, err := cellSystem(c); err != nil {
			return nil, err
		}
		spans.add("harness", "build", c.ID(), start)
	}

	lt := newLayerTimes()
	for _, c := range sweepDriveCells(s.cells, e.seed) {
		if err := driveCell(c, lt, t, spans); err != nil {
			return nil, err
		}
	}
	if err := spans.write(e.spanPath("sweep")); err != nil {
		return nil, err
	}

	// Coverage: drive-measured per-access costs over the pass's accesses,
	// plus the measured build and assembly spans, against the pass wall.
	self := sum(spans.durations("harness", "build")) + sum(spans.durations("harness", "assemble"))
	for _, cr := range runs {
		self += lt.kindCost(cr.cell.Kind, cr.cell.Threads) * float64(cr.res.Result.Accesses()) / 1e6
	}

	m := accessLayers(lt)
	m["harness.build_ms"] = metric{sum(spans.durations("harness", "build")), "ms"}
	for _, k := range []string{harness.KindNative, harness.KindProfiled, harness.KindPredator, harness.KindSheriff, harness.KindRule} {
		m["harness.cell_ms."+k] = metric{median(spans.durations("harness", "cell."+k)), "ms"}
	}
	m["harness.cells"] = metric{float64(len(s.cells)), "count"}
	addIdleLayers(m, "trace", "sweep", "cheetahd")
	m["traced.coverage"] = metric{self / (float64(tracedWall.Nanoseconds()) / 1e6), "ratio"}
	m["traced.overhead"] = metric{median(walls)/untraced.Seconds() - 1, "ratio"}
	return m, nil
}

// sweepDriveCells picks the traced run's drive cells: the native,
// profiled (detection PMU), Predator and Sheriff cells of one
// seed-chosen application that has all four.
func sweepDriveCells(cells []harness.Cell, seed int64) []harness.Cell {
	type group struct {
		app   string
		cells map[string]harness.Cell
	}
	groups := map[string]*group{}
	for _, c := range cells {
		if c.Fixed || workload.IsTraceName(c.Workload) {
			continue
		}
		if c.Kind == harness.KindProfiled && c.PMU != harness.DetectionPMU() {
			continue
		}
		key := fmt.Sprintf("%s/%d", c.Workload, c.Threads)
		g := groups[key]
		if g == nil {
			g = &group{app: key, cells: map[string]harness.Cell{}}
			groups[key] = g
		}
		g.cells[c.Kind] = c
	}
	var full []*group
	for _, g := range groups {
		if len(g.cells) >= 4 && g.cells[harness.KindPredator].Kind != "" && g.cells[harness.KindSheriff].Kind != "" &&
			g.cells[harness.KindProfiled].Kind != "" && g.cells[harness.KindNative].Kind != "" {
			full = append(full, g)
		}
	}
	if len(full) == 0 {
		return nil
	}
	sort.Slice(full, func(i, j int) bool { return full[i].app < full[j].app })
	g := full[rand.New(rand.NewSource(seed)).Intn(len(full))]
	return []harness.Cell{
		g.cells[harness.KindNative], g.cells[harness.KindProfiled],
		g.cells[harness.KindPredator], g.cells[harness.KindSheriff],
	}
}
