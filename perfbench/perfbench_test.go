package main

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"unsafe"

	"repro/internal/harness"
)

var update = flag.Bool("update", false, "regenerate refs/sweep.json from the current code")

// cheetahdBin is the daemon binary the gateway tests start.
var cheetahdBin string

func TestMain(m *testing.M) {
	flag.Parse()
	dir, err := os.MkdirTemp("", "perfbench-test-")
	if err != nil {
		panic(err)
	}
	out, err := exec.Command("go", "build", "-o", filepath.Join(dir, "cheetahd"), "repro/cmd/cheetahd").CombinedOutput()
	if err != nil {
		panic("building cheetahd: " + err.Error() + "\n" + string(out))
	}
	cheetahdBin = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// benchSpec is the part of BENCHMARK.json the tests hold the benchmark
// to.
type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tinyRun runs one workload at the tests' size.
func tinyRun(t *testing.T, name string, traced bool) *result {
	t.Helper()
	e := &env{seed: 3, seconds: 0.2, bin: cheetahdBin, work: t.TempDir(), size: tinySize, log: io.Discard}
	if testing.Verbose() {
		e.log = os.Stderr
	}
	res, err := runBench(workloads[name](), e, traced)
	if err != nil {
		t.Fatalf("%s (traced=%v): %v", name, traced, err)
	}
	return res
}

// TestWorkloadsReportEveryMetric runs each workload untraced and traced
// at a tiny size: every output is correct and every metric BENCHMARK.json
// names appears with its unit.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				res := tinyRun(t, name, traced)
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("traced=%v: correct=%v failed=%d attempted=%d", traced, res.Correct, res.Failed, res.Attempted)
				}
				want := spec.EndToEnd
				if traced {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics, BENCHMARK.json names %d", traced, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("traced=%v: metric %s = %+v (present %v), want unit %s", traced, m.Name, got, ok, m.Unit)
					}
				}
			}
		})
	}
}

// TestCountsRepeat: the per-layer counts of two traced runs with the
// same seed are identical.
func TestCountsRepeat(t *testing.T) {
	counts := []string{
		"exec.accesses", "cache.invalidations", "cache.dir_lines", "pmu.samples",
		"shadow.lines", "core.instances", "harness.cells",
	}
	for _, name := range []string{"sweep", "replay"} {
		a, b := tinyRun(t, name, true), tinyRun(t, name, true)
		for _, c := range counts {
			if a.Metrics[c] != b.Metrics[c] {
				t.Errorf("%s: %s differs across runs: %v vs %v", name, c, a.Metrics[c].Value, b.Metrics[c].Value)
			}
		}
		if name == "sweep" && a.Metrics["exec.accesses"].Value == 0 {
			t.Errorf("sweep drove no accesses")
		}
	}
}

// TestWrongReferenceFails: a reference that disagrees with the program
// makes the run incorrect instead of being skipped.
func TestWrongReferenceFails(t *testing.T) {
	key := sweepRefKey(sweepConfig(tinySize.sweepScale))
	orig := sweepRefs[key]
	wrong := map[string]float64{}
	for k, v := range orig {
		wrong[k] = v
	}
	wrong["fig1_slowdown_8t"]++
	sweepRefs[key] = wrong
	defer func() { sweepRefs[key] = orig }()
	res := tinyRun(t, "sweep", false)
	if res.Correct || res.Failed == 0 {
		t.Fatalf("wrong reference went unnoticed: correct=%v failed=%d", res.Correct, res.Failed)
	}
}

// TestCaptureRecordSize pins the compact capture: 48 bytes per access
// keeps the largest evaluation cell (x264 at scale 1, 16.4M accesses)
// under 1 GiB of capture.
func TestCaptureRecordSize(t *testing.T) {
	if s := unsafe.Sizeof(machRec{}) + unsafe.Sizeof(accRec{}); s != 48 {
		t.Fatalf("capture costs %d bytes per access, want 48", s)
	}
}

// TestSweepReference checks (or, with -update, regenerates) the
// reference metrics of every sweep configuration the benchmark and its
// tests run.
func TestSweepReference(t *testing.T) {
	scales := []float64{tinySize.sweepScale, tinySize.warmScale}
	if *update || !testing.Short() {
		scales = append(scales, fullSize.sweepScale, fullSize.warmScale)
	}
	refs := map[string]map[string]float64{}
	for _, s := range scales {
		cfg := sweepConfig(s)
		got := harness.RunAllWith(harness.NewRunner(2), cfg).Metrics()
		refs[sweepRefKey(cfg)] = got
		if *update {
			continue
		}
		tl := &tally{log: io.Discard}
		checkMetrics(tl, sweepRefKey(cfg), got, sweepRefs[sweepRefKey(cfg)])
		if tl.failed != 0 {
			t.Errorf("%s: %d metrics differ from refs/sweep.json", sweepRefKey(cfg), tl.failed)
		}
	}
	if *update {
		b, err := json.MarshalIndent(refs, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("refs/sweep.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCanonicalSweepMatchesBenchHarness anchors the sweep oracle to the
// repository's committed baseline: at the canonical configuration
// (scale 1) the evaluation's metrics map equals BENCH_harness.json's.
// It takes tens of seconds, so -short skips it.
func TestCanonicalSweepMatchesBenchHarness(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale evaluation")
	}
	b, err := os.ReadFile("../BENCH_harness.json")
	if err != nil {
		t.Fatal(err)
	}
	var base struct {
		Metrics map[string]float64 `json:"metrics"`
	}
	if err := json.Unmarshal(b, &base); err != nil {
		t.Fatal(err)
	}
	got := harness.RunAllWith(harness.NewRunner(2), sweepConfig(1)).Metrics()
	tl := &tally{log: io.Discard}
	checkMetrics(tl, "canonical", got, base.Metrics)
	if tl.failed != 0 {
		t.Errorf("%d metrics differ from BENCH_harness.json", tl.failed)
	}
}
