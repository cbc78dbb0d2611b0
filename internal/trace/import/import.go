// Package traceimport converts real-PMU memory-sample dumps — `perf mem
// record` output rendered by `perf script`, and AMD IBS dump rows — into
// the native trace format, so any binary that can be sampled on real
// hardware becomes a `trace:<path>` pseudo-workload for the simulator,
// the harness and both CLIs.
//
// This is the missing half of the paper's pipeline (§2.1, §3.1): Cheetah
// proper consumes IBS address samples from arbitrary programs; our
// recorders (PR 2) only produced traces of simulated runs. An importer
// has strictly less information than a recorder — no heap layout, no
// phase markers, no retired-instruction counts — so it synthesizes what
// replay needs:
//
//   - thread ids: real OS tids are remapped to dense simulated ids
//     (1, 2, ...) in order of first appearance.
//   - phases: one parallel phase per burst of samples; a gap in the
//     global sample timeline longer than Options.PhaseGap starts a new
//     phase (real programs alternate compute bursts and barriers, and
//     sample-free gaps are the visible shadow of that structure).
//   - instruction counts: the trace ip column is a retired-instruction
//     count, which no PMU dump carries per sample. Each sample's ip is
//     synthesized from its timestamp offset within the phase via
//     Options.TimeScale, kept strictly increasing per thread — so replay
//     reconstructs compute gaps proportional to real inter-sample time.
//   - memory layout: none is emitted. Every imported address is foreign
//     to the simulated segments, so the replayer's existing synthesis
//     turns each touched run of cache lines into a `trace:N` heap object
//     (replay.go), exactly as it already does for foreign recorded
//     traces.
//
// Imported traces are approximations in the same sense as sampled
// recordings: they replay deterministically (the acceptance bar is a
// byte-identical report across runs and framings), but they do not
// reproduce a ground-truth simulated run, because the original hardware
// execution was never simulated.
//
// Input is parsed line by line; only the compact parsed samples are held
// in memory (the converter needs the whole sample population to count
// threads for the core count and to place phase boundaries before the
// first record is written).
package traceimport

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"repro/internal/mem"
	"repro/internal/trace"
)

// Limits on imported input. Dumps are user-supplied files, so structural
// fields are bounded before they size anything.
const (
	// MaxLineLen bounds one input line.
	MaxLineLen = 1 << 20
	// MaxSamples bounds the parsed sample population (a perf.data worth
	// of mem samples is typically a few million rows).
	MaxSamples = 1 << 26
	// maxSyntheticPhases keeps gap-splitting from fragmenting a trace
	// into more phases than the format allows.
	maxSyntheticPhases = trace.MaxPhaseIndex
)

// Options tunes an import. The zero value is a sensible default for
// both formats.
type Options struct {
	// ProgramName overrides the synthesized program name (the dump's
	// command name when it carries one, else a format default).
	ProgramName string
	// Cores is the simulated machine size; 0 derives it from the number
	// of distinct sampled threads (at least 2, at most 256).
	Cores int
	// TimeScale converts one native time unit of the dump into simulated
	// instructions: nanoseconds for perf script (default 0.01
	// instructions per ns), cycles for IBS (default 0.1 instructions per
	// cycle). The defaults deliberately compress real time so that
	// typical sample spacings (microseconds apart for perf, hundreds of
	// cycles for IBS) land tens of simulated instructions apart — the
	// spacing our own PMU-sampled recordings have — which keeps the cost
	// and cycle-mode trap density of replaying proportional to the
	// number of samples rather than to the profiled program's wall
	// time. Raise the scale to make replayed compute gaps track real
	// time more faithfully.
	TimeScale float64
	// PhaseGap is the sample-timeline gap that starts a new synthesized
	// phase, in the dump's native time units. 0 uses the format default
	// (1 ms for perf, 1M cycles for IBS); negative disables splitting.
	PhaseGap float64
}

// Stats reports what an import did.
type Stats struct {
	// Samples is the number of memory samples converted.
	Samples int
	// Skipped counts input rows that were recognized but not convertible.
	// It is the sum of the three reason counters below.
	Skipped int
	// SkippedParse counts rows whose fields did not parse (malformed
	// timestamps, truncated lines, bad numeric cells).
	SkippedParse int
	// SkippedNonMem counts well-formed rows that are not memory
	// loads/stores (e.g. plain cycles: samples, non-memory IBS ops).
	SkippedNonMem int
	// SkippedKernel counts memory rows with kernel-half, null, or
	// out-of-range data addresses.
	SkippedKernel int
	// Threads is the number of distinct sampled threads.
	Threads int
	// Phases is the number of synthesized phases.
	Phases int
}

// skipReason classifies why a parser rejected one input row.
type skipReason int

const (
	skipNone   skipReason = iota // row converted
	skipParse                    // malformed fields
	skipNonMem                   // not a memory load/store
	skipKernel                   // kernel-half, null, or out-of-range address
)

// count folds one rejection into the Stats tally.
func (st *Stats) count(r skipReason) {
	st.Skipped++
	switch r {
	case skipParse:
		st.SkippedParse++
	case skipNonMem:
		st.SkippedNonMem++
	case skipKernel:
		st.SkippedKernel++
	}
}

// notes renders the skip tally as `key=value` provenance notes for the
// output trace, so a converted file carries its own loss accounting
// (`cheetah -trace-info` prints them). The source tag is always
// present; zero counters are omitted.
func (st *Stats) notes(source string) []string {
	notes := []string{"import.source=" + source}
	for _, c := range []struct {
		key string
		n   int
	}{
		{"import.skipped_parse", st.SkippedParse},
		{"import.skipped_nonmem", st.SkippedNonMem},
		{"import.skipped_kernel", st.SkippedKernel},
	} {
		if c.n > 0 {
			notes = append(notes, fmt.Sprintf("%s=%d", c.key, c.n))
		}
	}
	return notes
}

// sample is one parsed memory sample in format-independent form.
type sample struct {
	tid   uint64  // real OS thread id
	t     float64 // native-unit timestamp
	addr  uint64
	lat   uint32
	size  uint8
	write bool
}

// convert turns parsed samples into the native event stream, filling
// st's conversion counters in place (its skip tally, already final —
// the caller parses every row before converting — is stamped into the
// stream as provenance notes).
func convert(samples []sample, enc trace.Encoder, o Options, defaultName, source string, defaultScale, defaultGap float64, st *Stats) error {
	if len(samples) == 0 {
		return fmt.Errorf("import: no usable memory samples in input")
	}
	scale := o.TimeScale
	if scale == 0 {
		scale = defaultScale
	}
	if scale < 0 {
		return fmt.Errorf("import: negative TimeScale %v", o.TimeScale)
	}
	gap := o.PhaseGap
	if gap == 0 {
		gap = defaultGap
	}

	// Stable-sort by timestamp: dumps are normally time-ordered already,
	// and ties keep file order, so the conversion is deterministic for
	// any input.
	sort.SliceStable(samples, func(i, j int) bool { return samples[i].t < samples[j].t })

	// Dense thread ids in order of first appearance.
	tids := make(map[uint64]mem.ThreadID)
	for _, s := range samples {
		if _, ok := tids[s.tid]; !ok {
			tids[s.tid] = mem.ThreadID(1 + len(tids))
		}
	}
	st.Threads = len(tids)

	name := o.ProgramName
	if name == "" {
		name = defaultName
	}
	cores := o.Cores
	if cores == 0 {
		cores = st.Threads
		if cores < 2 {
			cores = 2
		}
		if cores > 256 {
			cores = 256
		}
	}
	if err := enc.Encode(trace.Event{Kind: trace.KindProgram, Name: name, Cores: cores}); err != nil {
		return err
	}
	for _, note := range st.notes(source) {
		if err := enc.Encode(trace.Event{Kind: trace.KindNote, Name: note}); err != nil {
			return err
		}
	}

	// Walk the timeline, opening a new phase at every over-gap jump and
	// synthesizing per-thread instruction counts within each phase.
	type threadPos struct {
		ip uint64
	}
	var (
		phase      = -1
		phaseStart float64
		pos        map[mem.ThreadID]*threadPos
		order      []mem.ThreadID
	)
	endPhase := func() error {
		for _, tid := range order {
			p := pos[tid]
			if err := enc.Encode(trace.Event{
				Kind: trace.KindThreadEnd, TID: tid, Phase: phase, Instrs: p.ip,
			}); err != nil {
				return err
			}
		}
		return nil
	}
	openPhase := func(t float64) error {
		if phase >= 0 {
			if err := endPhase(); err != nil {
				return err
			}
		}
		phase++
		if phase > maxSyntheticPhases {
			return fmt.Errorf("import: more than %d synthesized phases; raise Options.PhaseGap", maxSyntheticPhases)
		}
		phaseStart = t
		pos = make(map[mem.ThreadID]*threadPos)
		order = order[:0]
		return enc.Encode(trace.Event{
			Kind: trace.KindPhase, Phase: phase, Parallel: true,
			Name: fmt.Sprintf("imported%d", phase),
		})
	}
	lastT := 0.0
	for i, s := range samples {
		if i == 0 || (gap > 0 && s.t-lastT > gap) {
			if err := openPhase(s.t); err != nil {
				return err
			}
		}
		lastT = s.t
		tid := tids[s.tid]
		p := pos[tid]
		if p == nil {
			p = &threadPos{}
			pos[tid] = p
			order = append(order, tid)
		}
		// The synthesized ip: elapsed phase time scaled to instructions,
		// floored to stay strictly increasing per thread. Every access
		// consumes at least one instruction.
		ip := uint64((s.t - phaseStart) * scale)
		if ip <= p.ip {
			ip = p.ip + 1
		}
		if ip > trace.MaxInstrs {
			return fmt.Errorf("import: synthesized instruction count %d exceeds %d; lower Options.TimeScale", ip, uint64(trace.MaxInstrs))
		}
		p.ip = ip
		if err := enc.Encode(trace.Event{
			Kind: trace.KindAccess, TID: tid, Write: s.write,
			Addr: mem.Addr(s.addr), Size: uint64(s.size), IP: ip,
			Lat: s.lat, Phase: phase,
		}); err != nil {
			return err
		}
		st.Samples++
	}
	if err := endPhase(); err != nil {
		return err
	}
	st.Phases = phase + 1
	if err := enc.Close(); err != nil {
		return err
	}
	recordMetrics(st)
	return nil
}

// lineScanner wraps input with the shared line limit.
func lineScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), MaxLineLen)
	return sc
}

// usableAddr reports whether a sampled data address can become a
// simulated access: kernel-half and zero addresses are dropped (the
// paper's driver filters them the same way), and anything past the
// simulated address-space bound cannot be represented.
func usableAddr(a uint64) bool {
	return a != 0 && a <= 1<<62
}
