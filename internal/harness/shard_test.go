package harness

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// writePlanTrace writes a synthetic indexed trace and returns its
// trace:<path> name plus its phase table.
func writePlanTrace(t *testing.T, phases int) (string, []trace.PhaseInfo) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "plan.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	enc := trace.NewIndexedEncoder(f)
	err = trace.WriteSynthetic(enc, trace.SynthConfig{Accesses: 1 << 12, Threads: 4, Phases: phases})
	if err == nil {
		err = enc.Close()
	}
	if err == nil {
		err = f.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	sr, err := trace.OpenStream(path)
	if err != nil {
		t.Fatal(err)
	}
	return "trace:" + path, sr.Phases()
}

// TestTraceShardPlanTilesPhases: for every feasible shard count the plan
// is a contiguous, gap-free tiling of the trace's phase range, each
// shard's access estimate sums the phases it covers, and every cell is a
// ranged trace workload carrying the planner's config.
func TestTraceShardPlanTilesPhases(t *testing.T) {
	name, phases := writePlanTrace(t, 10)
	var total uint64
	for _, ph := range phases {
		total += ph.Accesses
	}
	for _, shards := range []int{1, 2, 3, 4, 7, len(phases), len(phases) + 5} {
		plan, err := TraceShardPlan(name, shards, Config{Threads: 4, Scale: 0.05})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		want := shards
		if want > len(phases) {
			want = len(phases)
		}
		if len(plan) != want {
			t.Fatalf("shards=%d: planned %d ranges, want %d", shards, len(plan), want)
		}
		next := phases[0].Index
		var acc uint64
		for i, sh := range plan {
			if sh.Lo != next {
				t.Errorf("shards=%d: shard %d starts at %d, want %d (gap or overlap)", shards, i, sh.Lo, next)
			}
			if sh.Hi < sh.Lo {
				t.Errorf("shards=%d: shard %d inverted range %d-%d", shards, i, sh.Lo, sh.Hi)
			}
			next = sh.Hi + 1
			acc += sh.Accesses
			if !workload.IsTraceName(sh.Cell.Workload) || !strings.Contains(sh.Cell.Workload, "@") {
				t.Errorf("shards=%d: shard %d cell %q is not a ranged trace workload", shards, i, sh.Cell.Workload)
			}
		}
		if last := phases[len(phases)-1].Index; next != last+1 {
			t.Errorf("shards=%d: plan ends at %d, want %d", shards, next-1, last)
		}
		if acc != total {
			t.Errorf("shards=%d: plan accesses %d, want %d", shards, acc, total)
		}
	}
}

// TestTraceShardPlanRejects: non-trace names, already-ranged names, bad
// shard counts and unindexed traces are all diagnosed.
func TestTraceShardPlanRejects(t *testing.T) {
	name, _ := writePlanTrace(t, 4)
	cfg := Config{Threads: 4, Scale: 0.05}
	if _, err := TraceShardPlan("figure1", 2, cfg); err == nil {
		t.Error("non-trace workload accepted")
	}
	if _, err := TraceShardPlan(name+"@0-1", 2, cfg); err == nil {
		t.Error("already-ranged trace accepted")
	}
	if _, err := TraceShardPlan(name, 0, cfg); err == nil {
		t.Error("zero shards accepted")
	}

	// A sequential (unindexed) v2 trace cannot be planned.
	flat := filepath.Join(t.TempDir(), "flat.trace")
	f, err := os.Create(flat)
	if err != nil {
		t.Fatal(err)
	}
	enc := trace.NewBinaryEncoder(f)
	err = trace.WriteSynthetic(enc, trace.SynthConfig{Accesses: 1 << 8, Threads: 2, Phases: 2})
	if err == nil {
		err = enc.Close()
	}
	if err == nil {
		err = f.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TraceShardPlan("trace:"+flat, 2, cfg); err == nil {
		t.Error("unindexed trace accepted for phase sharding")
	}
}

// TestFormatShardedReplayIsOrderInvariant: the merged report is a pure
// function of the plan and shard payloads — permuting the plan slice
// (as concurrent completion does to map iteration) changes nothing, and
// a missing or empty shard result is an error, not a silent hole.
func TestFormatShardedReplayIsOrderInvariant(t *testing.T) {
	name, _ := writePlanTrace(t, 6)
	plan, err := TraceShardPlan(name, 3, Config{Threads: 4, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	results, err := RunShardsLocal(plan, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := FormatShardedReplay(plan, results)
	if err != nil {
		t.Fatal(err)
	}
	reversed := make([]TraceShard, len(plan))
	for i, sh := range plan {
		reversed[len(plan)-1-i] = sh
	}
	got, err := FormatShardedReplay(reversed, results)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("reversed plan changes merged report:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}

	short := make(map[string]CellResult)
	for k, v := range results {
		short[k] = v
	}
	delete(short, plan[0].Cell.ID())
	if _, err := FormatShardedReplay(plan, short); err == nil {
		t.Error("missing shard result not diagnosed")
	}
	short[plan[0].Cell.ID()] = CellResult{}
	if _, err := FormatShardedReplay(plan, short); err == nil {
		t.Error("report-less shard result not diagnosed")
	}
}
