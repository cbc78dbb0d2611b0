package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/mem"
)

// newSchedulers builds one instance of each scheduler implementation —
// the production sorted queue and the reference — keyed by name, so
// ordering tests run identically against both.
func newSchedulers(capacity int) map[string]scheduler {
	return map[string]scheduler{
		"sorted":    newSortedQueue(capacity),
		"reference": &refSched{},
	}
}

// TestSchedulerNames: the deprecated Config.Sched accepts only the empty
// string and SchedSorted; New panics on the retired scheduler names and
// anything else.
func TestSchedulerNames(t *testing.T) {
	m := &fixedMachine{cores: 2, latency: 1}
	for _, name := range []string{"", SchedSorted} {
		New(m, Config{Sched: name}) // must not panic
	}
	for _, name := range []string{"heap", "calendar", "fifo"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New accepted scheduler %q", name)
				}
			}()
			New(m, Config{Sched: name})
		}()
	}
}

// TestSchedulerOrdering: every implementation pops in (vtime, id) order,
// ids breaking ties.
func TestSchedulerOrdering(t *testing.T) {
	vt := []uint64{50, 10, 30, 10, 90, 20, 10}
	for name, s := range newSchedulers(len(vt)) {
		t.Run(name, func(t *testing.T) {
			for i, v := range vt {
				s.Push(&thread{id: mem.ThreadID(i), vtime: v})
			}
			var got []uint64
			var ids []mem.ThreadID
			for s.Len() > 0 {
				th := s.PopMin()
				got = append(got, th.vtime)
				ids = append(ids, th.id)
			}
			want := []uint64{10, 10, 10, 20, 30, 50, 90}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("pop order %v, want %v", got, want)
			}
			// The three vtime-10 entries are threads 1, 3, 6 — id order.
			if ids[0] != 1 || ids[1] != 3 || ids[2] != 6 {
				t.Errorf("tie-break order = %v, want ids 1,3,6 first", ids[:3])
			}
		})
	}
}

// TestSchedulerFarFuture pushes keys spread from 0 to 2^40, out of
// order, so most pushes land mid-queue: pops must still come out in
// ascending vtime order under every implementation.
func TestSchedulerFarFuture(t *testing.T) {
	const (
		width   = 8
		horizon = 512
	)
	vts := []uint64{horizon, 1, 10 * horizon, horizon - 1, 1 << 40,
		3 * horizon, 0, 10*horizon + width, 1<<40 + 1, horizon + 1}
	for name, s := range newSchedulers(len(vts)) {
		t.Run(name, func(t *testing.T) {
			for i, v := range vts {
				s.Push(&thread{id: mem.ThreadID(i), vtime: v})
			}
			var got []uint64
			for s.Len() > 0 {
				min := s.Min()
				popped := s.PopMin()
				if min != popped {
					t.Fatalf("Min returned thread %d, PopMin thread %d", min.id, popped.id)
				}
				got = append(got, popped.vtime)
			}
			want := []uint64{0, 1, horizon - 1, horizon, horizon + 1,
				3 * horizon, 10 * horizon, 10*horizon + width, 1 << 40, 1<<40 + 1}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("pop order %v, want %v", got, want)
			}
		})
	}
}

// schedOp is one scripted operation for the model-check test.
type schedOp struct {
	// push a thread with vtime vt (id assigned sequentially), or, when
	// push is false, run the engine's Min/NextKey/advance/FixMin-or-
	// PopMin cycle with the given advance delta (pop when pop is set).
	push bool
	vt   uint64
	adv  uint64
	pop  bool
}

// TestSchedulerMatchesReference model-checks the sorted queue against
// the reference over randomized scripts of pushes, in-place advances
// (FixMin) and pops, with vtime deltas from a few cycles to several
// times the spread of the live keys, so advanced threads land anywhere
// from the tail to the front of the queue.
func TestSchedulerMatchesReference(t *testing.T) {
	const horizon = 512
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			script := make([]schedOp, 0, 600)
			alive := 0
			for len(script) < cap(script) {
				r := rng.Intn(10)
				switch {
				case alive == 0 || r < 3:
					// Small absolute vtimes make pushes behind threads
					// that already advanced (out-of-order phase starts)
					// likely.
					script = append(script, schedOp{push: true,
						vt: uint64(rng.Intn(4 * horizon))})
					alive++
				case r < 8:
					script = append(script, schedOp{
						adv: 1 + uint64(rng.Intn(2*horizon))})
				default:
					script = append(script, schedOp{pop: true})
					alive--
				}
			}

			type trace struct {
				mins, nexts []uint64
				nextIDs     []mem.ThreadID
				pops        []mem.ThreadID
			}
			runScript := func(s scheduler) trace {
				var tr trace
				nextID := mem.ThreadID(1)
				for _, op := range script {
					switch {
					case op.push:
						s.Push(&thread{id: nextID, vtime: op.vt})
						nextID++
					case op.pop:
						tr.pops = append(tr.pops, s.PopMin().id)
					default:
						th := s.Min()
						tr.mins = append(tr.mins, th.vtime)
						nvt, nid := s.NextKey()
						tr.nexts = append(tr.nexts, nvt)
						tr.nextIDs = append(tr.nextIDs, nid)
						th.vtime += op.adv
						s.FixMin()
					}
				}
				for s.Len() > 0 {
					tr.pops = append(tr.pops, s.PopMin().id)
				}
				return tr
			}

			want := runScript(&refSched{})
			if got := runScript(newSortedQueue(8)); !reflect.DeepEqual(got, want) {
				t.Errorf("sorted queue diverges from reference:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// recordedRun is one execution's result and access stream.
type recordedRun struct {
	res Result
	acc []mem.Access
}

// runBoth executes prog on fresh machines from mkMachine twice: batched
// on the sorted queue (the production engine) and unbatched on the
// reference scheduler (the oracle).
func runBoth(t *testing.T, cfg Config, mkMachine func() Machine, prog Program) (sorted, ref recordedRun) {
	t.Helper()
	runOnce := func(unbatched bool) recordedRun {
		c := cfg
		c.Unbatched = unbatched
		rec := &recorder{}
		res := New(mkMachine(), c, rec).Run(prog)
		return recordedRun{res, rec.accesses}
	}
	return runOnce(false), runOnce(true)
}

// assertSchedulersAgree fails unless the sorted-queue and reference runs
// produced the identical result and access stream.
func assertSchedulersAgree(t *testing.T, sorted, ref recordedRun) {
	t.Helper()
	if !reflect.DeepEqual(sorted.res, ref.res) {
		t.Errorf("sorted result diverges from reference:\n%+v\nvs\n%+v", sorted.res, ref.res)
	}
	if !reflect.DeepEqual(sorted.acc, ref.acc) {
		t.Errorf("sorted access stream diverges from reference (%d vs %d accesses)",
			len(sorted.acc), len(ref.acc))
	}
}

// TestSingleThreadPhases: phases that never have a second runnable
// thread — a serial phase and a one-body parallel phase — must behave
// identically under both schedulers (the NextKey == max sentinel
// path).
func TestSingleThreadPhases(t *testing.T) {
	prog := Program{
		Name: "single",
		Phases: []Phase{
			SerialPhase("s", func(tt *T) {
				tt.Compute(40)
				tt.Store(0x100)
				tt.Load(0x140)
			}),
			ParallelPhase("p1", func(tt *T) {
				tt.Store(0x180)
				tt.Compute(9)
			}),
		},
	}
	sorted, ref := runBoth(t, Config{OpBuffer: 4, ThreadCreateCycles: 100, ThreadJoinCycles: 10},
		func() Machine { return &fixedMachine{cores: 4, latency: 7} }, prog)
	assertSchedulersAgree(t, sorted, ref)
	// Serial: 40 compute + 2 accesses * 7. Parallel: thread 0 of a phase
	// pays no creation stagger, so 7 + 9, plus one join.
	want := uint64(40 + 7 + 7 + 7 + 9 + 10)
	if got := sorted.res.TotalCycles; got != want {
		t.Errorf("TotalCycles = %d, want %d", got, want)
	}
}

// TestZeroLatencyOps: a machine that answers every access in zero
// cycles keeps thread clocks frozen, so a running thread only yields
// when its body ends. Both schedulers must agree on that degenerate
// schedule (each thread's whole stream runs back-to-back, in id order).
func TestZeroLatencyOps(t *testing.T) {
	body := func(base mem.Addr) Body {
		return func(tt *T) {
			for i := 0; i < 10; i++ {
				tt.Store(base + mem.Addr(4*i))
			}
		}
	}
	prog := Program{
		Name:   "zerolat",
		Phases: []Phase{ParallelPhase("p", body(0x1000), body(0x2000), body(0x3000))},
	}
	sorted, ref := runBoth(t, Config{OpBuffer: 4},
		func() Machine { return &fixedMachine{cores: 4, latency: 0} }, prog)
	assertSchedulersAgree(t, sorted, ref)
	acc := sorted.acc
	if len(acc) != 30 {
		t.Fatalf("got %d accesses, want 30", len(acc))
	}
	for i, a := range acc {
		if want := mem.ThreadID(1 + i/10); a.Thread != want {
			t.Fatalf("access %d by thread %d, want %d (zero-latency threads must run whole)",
				i, a.Thread, want)
		}
		if a.Latency != 0 || a.Time != 0 {
			t.Fatalf("access %d = %+v, want zero latency at time 0", i, a)
		}
	}
}

// TestVtimeTiesAcrossThreads: four threads with identical bodies and no
// creation stagger stay tied on vtime for the whole run; the id
// tie-break must serialize them identically under both schedulers.
func TestVtimeTiesAcrossThreads(t *testing.T) {
	body := func(tt *T) {
		for i := 0; i < 8; i++ {
			tt.Store(0x40)
			tt.Compute(3)
		}
	}
	prog := Program{
		Name:   "ties",
		Phases: []Phase{ParallelPhase("p", body, body, body, body)},
	}
	sorted, ref := runBoth(t, Config{OpBuffer: 4},
		func() Machine { return &fixedMachine{cores: 8, latency: 5} }, prog)
	assertSchedulersAgree(t, sorted, ref)
	acc := sorted.acc
	if len(acc) != 32 {
		t.Fatalf("got %d accesses, want 32", len(acc))
	}
	// All four threads issue access round k at the same vtime (the group
	// stays tied for the whole run), so each consecutive group of four
	// accesses must contain every thread exactly once at the round's
	// vtime. The order within a round is the engine's deterministic
	// tie-resolution — pinned by assertSchedulersAgree, not re-derived
	// here.
	for round := 0; round < len(acc)/4; round++ {
		seen := map[mem.ThreadID]bool{}
		for i := round * 4; i < (round+1)*4; i++ {
			a := acc[i]
			if a.Thread < 1 || a.Thread > 4 || seen[a.Thread] {
				t.Fatalf("round %d: access %d by unexpected/duplicate thread %d", round, i, a.Thread)
			}
			seen[a.Thread] = true
			if wantT := uint64(round * 8); a.Time != wantT {
				t.Fatalf("round %d: access %d at vtime %d, want %d", round, i, a.Time, wantT)
			}
		}
	}
}

// TestPooledPhasesAcrossSchedulers: pooled phases re-enter threads with
// clocks mid-flight; the sorted queue and the reference must agree
// across phase boundaries.
func TestPooledPhasesAcrossSchedulers(t *testing.T) {
	mk := func(step int) Body {
		return func(tt *T) {
			for i := 0; i < 6; i++ {
				tt.Store(mem.Addr(0x500 + 4*step))
				tt.Compute(step)
			}
		}
	}
	prog := Program{
		Name: "pooled",
		Phases: []Phase{
			PooledPhase("p1", mk(3), mk(5), mk(7)),
			SerialPhase("s", func(tt *T) { tt.Compute(11) }),
			PooledPhase("p2", mk(2), mk(4), mk(6)),
		},
	}
	sorted, ref := runBoth(t, Config{ThreadCreateCycles: 50, ThreadJoinCycles: 20, OpBuffer: 4},
		func() Machine { return &fixedMachine{cores: 4, latency: 9} }, prog)
	assertSchedulersAgree(t, sorted, ref)
}
