package trace_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	cheetah "repro"
	"repro/internal/exec/progen"
	"repro/internal/heap"
	"repro/internal/mem"
	"repro/internal/trace"
)

// streamEquivSeed pins the randomized suite: failures reproduce from
// (seed, case index) alone, and small indices are small programs.
const streamEquivSeed = 0x57E4_CA1E

// streamEquivCases returns the suite size: at least 200 randomized
// programs in -short (CI's push gate), at least 2000 in the nightly
// full run.
func streamEquivCases() int {
	if testing.Short() {
		return 200
	}
	return 2000
}

// recordIndexed generates case i touching either in-segment addresses
// (heap objects and a global, so replay restores them at their recorded
// addresses and the recorded run itself is a valid baseline) or raw
// foreign addresses (exercising the replayer's address synthesis, where
// only replay-vs-replay identity is defined), runs it on a profiled
// 8-core system with an indexed recorder attached, and returns the
// trace file path plus the recorded run's canonical report.
func recordIndexed(t *testing.T, dir string, i int, inSegment bool) (string, string) {
	t.Helper()
	path := filepath.Join(dir, fmt.Sprintf("case%d.trace", i))
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	enc := trace.NewIndexedEncoder(f)
	sys := cheetah.New(cheetah.Config{Cores: 8})
	var addrs []mem.Addr
	if inSegment {
		addrs = []mem.Addr{
			sys.Heap().Malloc(0, 256, heap.Stack(heap.Frame{File: "equiv.c", Line: 10, Func: "alloc_a"})),
			sys.Heap().Malloc(1, 512, heap.Stack(heap.Frame{File: "equiv.c", Line: 20, Func: "alloc_b"})),
			sys.Globals().Define("equiv_global", 128),
		}
	} else {
		addrs = []mem.Addr{0x1000, 0x1040, 0x2040, 0x8000}
	}
	prog := progen.Generate(progen.Config{
		Seed: streamEquivSeed, Case: i, Addrs: addrs, MaxThreads: 8,
	})
	rec := trace.NewRecorder(enc, sys.Heap(), sys.Globals())
	prof := sys.NewProfiler(cheetah.ProfileOptions{PMU: densePMU()})
	res := sys.RunWith(prog, append(prof.Probes(), rec)...)
	// The recorder closes the encoder at program end; Err surfaces both
	// stream and indexing failures.
	if err := rec.Err(); err != nil {
		t.Fatalf("case %d: recording: %v", i, err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, canonicalReport(prof.Report()) + fmt.Sprintf("runtime %d cycles\n", res.TotalCycles)
}

// fullReplayReport replays the whole trace from the in-memory scan:
// trace.Read over the file ignores its index.
func fullReplayReport(t *testing.T, path string) string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rp, err := trace.Read(f)
	if err != nil {
		t.Fatalf("full replay: %v", err)
	}
	sys := cheetah.New(cheetah.Config{Cores: rp.Cores})
	if err := rp.Prepare(sys.Heap(), sys.Globals()); err != nil {
		t.Fatalf("full replay prepare: %v", err)
	}
	rep, res := sys.Profile(rp.Program(), cheetah.ProfileOptions{PMU: densePMU()})
	return canonicalReport(rep) + fmt.Sprintf("runtime %d cycles\n", res.TotalCycles)
}

// streamReplayReport replays the trace phase by phase, loading one
// window at a time through the index.
func streamReplayReport(t *testing.T, path string) string {
	t.Helper()
	sr, err := trace.OpenStream(path)
	if err != nil {
		t.Fatalf("stream replay: %v", err)
	}
	sys := cheetah.New(cheetah.Config{Cores: sr.Cores})
	if err := sr.Prepare(sys.Heap(), sys.Globals()); err != nil {
		t.Fatalf("stream replay prepare: %v", err)
	}
	rep, res := sys.Profile(sr.Program(), cheetah.ProfileOptions{PMU: densePMU()})
	return canonicalReport(rep) + fmt.Sprintf("runtime %d cycles\n", res.TotalCycles)
}

// TestStreamedReplayEquivalence is the tentpole's equivalence suite:
// for randomized generated programs, the streamed (windowed,
// out-of-core) replay of the recorded indexed trace must produce a
// detection report and runtime byte-identical to the full in-memory
// replay — and to the recorded run itself. ≥200 cases in -short, ≥2000 nightly; cases grow from
// trivially small, so the first failing index is already near-minimal.
func TestStreamedReplayEquivalence(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < streamEquivCases(); i++ {
		// Even cases touch in-segment addresses (recorded == replay holds
		// and is asserted); odd cases touch raw foreign addresses, where
		// replay synthesizes fresh objects — the recorded run is not a
		// baseline there, but full and streamed replay must still agree.
		inSegment := i%2 == 0
		path, recorded := recordIndexed(t, dir, i, inSegment)

		full := fullReplayReport(t, path)
		if inSegment && full != recorded {
			t.Fatalf("case %d (seed %#x): full replay differs from recorded run\n--- recorded ---\n%s\n--- full ---\n%s",
				i, streamEquivSeed, recorded, full)
		}
		stream := streamReplayReport(t, path)
		if stream != full {
			t.Fatalf("case %d (seed %#x): streamed replay differs from full replay\n--- full ---\n%s\n--- stream ---\n%s",
				i, streamEquivSeed, full, stream)
		}
		// The trace files accumulate in dir; drop each case's file once
		// proven so the nightly 2000-case run stays light on disk.
		os.Remove(path)
	}
}

// TestStreamedRangeConcatenation: replaying phase ranges on fresh
// systems and concatenating the sub-reports must reproduce the phase
// structure of the whole run — the invariant phase-sharded sweeps rest
// on. Full-fidelity shard merging is proven end-to-end in
// internal/sweep; this pins the trace-level contract: every phase of
// the full replay appears in exactly one range replay, with the ranges'
// total access counts summing to the trace's.
func TestStreamedRangeConcatenation(t *testing.T) {
	dir := t.TempDir()
	cases := 25
	if testing.Short() {
		cases = 10
	}
	split := 0
	for i := 0; i < cases; i++ {
		path, _ := recordIndexed(t, dir, 40+i, false)

		sr, err := trace.OpenStream(path)
		if err != nil {
			t.Fatal(err)
		}
		if sr.MaxPhase() < 1 {
			continue // single-phase program: nothing to split
		}
		split++
		mid := sr.MaxPhase() / 2

		runRange := func(lo, hi int) cheetah.Result {
			s, err := trace.OpenStream(path)
			if err != nil {
				t.Fatal(err)
			}
			sys := cheetah.New(cheetah.Config{Cores: s.Cores})
			if err := s.Prepare(sys.Heap(), sys.Globals()); err != nil {
				t.Fatal(err)
			}
			return sys.Run(s.ProgramRange(lo, hi))
		}
		lowRes := runRange(0, mid)
		highRes := runRange(mid+1, sr.MaxPhase())
		fullRes := runRange(0, sr.MaxPhase())
		if len(lowRes.Phases)+len(highRes.Phases) != len(fullRes.Phases) {
			t.Fatalf("case %d: split replays cover %d+%d phases, full replay has %d",
				40+i, len(lowRes.Phases), len(highRes.Phases), len(fullRes.Phases))
		}
		os.Remove(path)
	}
	if split == 0 {
		t.Fatal("no multi-phase cases generated; the range suite is vacuous")
	}
}
