// Trace replay: one builder for every framing.
//
// A Replay turns a trace back into a runnable exec.Program. It rests on
// one per-phase table — each phase's name, whether it was declared and
// is parallel, its thread ids, its access count and its address bounds.
// An indexed binary v3 file gets the table from its validated index
// (window.go), and each phase's records load from disk one window at a
// time as the engine reaches the phase, so memory stays bounded by the
// largest phase however long the trace is. Every other framing — text,
// v1, v2 and unindexable v3 — gets the table from one sequential scan,
// which also keeps the decoded per-thread operations in memory. Where a
// phase's operations come from is the only difference: layout restore,
// foreign-address synthesis, the serial and pooled-phase rules, program
// assembly and Validate are shared, so both sources build the same
// program and replay to byte-identical reports (stream_equiv_test.go).
package trace

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"repro/internal/exec"
	"repro/internal/heap"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/symtab"
)

// replayOp is one reconstructed thread operation: the compute gap since
// the previous access (derived from consecutive ip values) followed by
// the access itself.
type replayOp struct {
	gap   uint64
	addr  mem.Addr
	size  uint8
	write bool
}

// replayThread accumulates one thread's stream within one phase.
type replayThread struct {
	ops []replayOp
	// lastIP is the retired instruction count at the last access.
	lastIP uint64
	// endInstrs is the thread's final instruction count (from the
	// threadend event); compute past the last access is reconstructed
	// from it.
	endInstrs uint64
	sawEnd    bool
}

// appendAccess appends one access record to the thread's operation
// stream: the compute gap since its previous access (from the ip
// column), then the access itself.
func (rt *replayThread) appendAccess(ev *Event) error {
	if ev.Size > 255 {
		return fmt.Errorf("trace: access size %d unsupported (max 255)", ev.Size)
	}
	var gap uint64
	if ev.IP > rt.lastIP {
		gap = ev.IP - rt.lastIP - 1
		rt.lastIP = ev.IP
	}
	// Size 0 (imported traces with unknown width) replays as a word
	// access; everything else keeps its recorded width.
	size := uint8(ev.Size)
	if size == 0 {
		size = 4
	}
	rt.ops = append(rt.ops, replayOp{gap: gap, addr: ev.Addr, size: size, write: ev.Write})
	return nil
}

// phaseEntry is one row of a replay's phase table.
type phaseEntry struct {
	name     string
	declared bool
	// parallel reports whether the phase replays as parallel (see
	// finishPhases); pooled marks a parallel phase whose threads also
	// run in another parallel phase, i.e. on the persistent worker pool.
	parallel, pooled bool
	// tids lists the threads with records in the phase, ascending — the
	// order the engine originally created them in, so replay reassigns
	// the same ids.
	tids     []mem.ThreadID
	accesses uint64
	// addrMin and addrMax bound the phase's access addresses (both zero
	// when accesses is zero), letting foreign-address synthesis skip
	// phases that provably lie inside the simulated segments.
	addrMin, addrMax mem.Addr
	// seg is the phase's segment position in the index (indexed traces).
	seg int
	// ops holds the decoded per-thread operations (scanned traces).
	ops map[mem.ThreadID]*replayThread
}

func (p *phaseEntry) thread(tid mem.ThreadID) *replayThread {
	t := p.ops[tid]
	if t == nil {
		t = &replayThread{}
		p.ops[tid] = t
	}
	return t
}

// finishPhases applies the rules every source shares to a filled-in
// table: an undeclared (foreign) phase is serial only when its sole
// thread is the main thread, a serial phase may hold records for the
// main thread alone, and a thread id seen in more than one parallel
// phase is a pooled worker, so every phase it appears in ran on the
// persistent pool.
func finishPhases(phases []*phaseEntry) error {
	appearances := make(map[mem.ThreadID]int)
	for idx, p := range phases {
		if p == nil {
			continue
		}
		if !p.declared {
			p.parallel = len(p.tids) != 1 || p.tids[0] != mem.MainThread
		}
		if p.parallel {
			for _, tid := range p.tids {
				appearances[tid]++
			}
			continue
		}
		for _, tid := range p.tids {
			if tid != mem.MainThread {
				return fmt.Errorf("trace: serial phase %d has records for thread %d", idx, tid)
			}
		}
	}
	for _, p := range phases {
		if p == nil || !p.parallel {
			continue
		}
		for _, tid := range p.tids {
			if appearances[tid] > 1 {
				p.pooled = true
			}
		}
	}
	return nil
}

// Replay is a trace ready to be turned back into a runnable program.
// Open one with ReadFile (any framing; indexed files stream), OpenStream
// (indexed files only) or Read (always scans), install its memory layout
// with Prepare, then build the program with Program or ProgramRange.
type Replay struct {
	// Name and Cores identify the recorded program and machine size.
	// Detection reports replayed on a machine with Cores cores under the
	// recording PMU configuration are byte-identical to the original
	// run's (for full traces).
	Name  string
	Cores int
	// Accesses counts the trace's data records.
	Accesses uint64
	// Notes are the trace's provenance notes (`key=value` text) in stream
	// order — importer skip tallies, the recording machine model, etc.
	// Notes carry no replayable records, so they never affect the
	// reconstructed program; callers interpret the keys they know.
	Notes []string

	// phases is the phase table by phase index; nil marks a gap.
	phases []*phaseEntry
	// file is the indexed trace the phases load from; nil for a scanned
	// trace, whose phases hold their operations and whose layout records
	// are kept in layout.
	file   *indexedFile
	layout []Event
	// runs remaps foreign addresses onto their synthesized objects.
	runs     []lineRun
	prepared bool

	// The window holds an indexed trace's one resident phase.
	mu     sync.Mutex
	winIdx int
	win    map[mem.ThreadID]*replayThread
	// loads counts window loads; maxWindowOps is the largest operation
	// count ever resident — the bounded-memory evidence tests assert on.
	loads        int
	maxWindowOps uint64
}

// ReadFile opens the trace at path in any framing. An indexed binary v3
// file streams: only its index and layout metadata are read here, and
// each phase's records stay on disk until the engine reaches the phase.
// Anything without an index is scanned into memory, as Read does. A
// present but broken index is an error, never a reason to scan.
func ReadFile(path string) (*Replay, error) {
	rp, err := OpenStream(path)
	if !errors.Is(err, ErrNoIndex) {
		return rp, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// OpenStream is ReadFile for indexed traces only: a trace without an
// index fails with ErrNoIndex. The index metadata is shared across opens
// of the same file.
func OpenStream(path string) (*Replay, error) {
	f, err := indexedFileFor(path)
	if err != nil {
		return nil, err
	}
	return &Replay{
		Name: f.name, Cores: f.cores, Accesses: f.idx.accesses, Notes: f.notes,
		phases: f.phases, file: f, winIdx: -1,
	}, nil
}

// Read scans a whole trace (text or binary framing) into a Replay that
// holds every phase's operations in memory. The stream is processed
// record by record; only the compacted per-thread operation lists and
// the layout records are retained.
func Read(r io.Reader) (*Replay, error) {
	rp := &Replay{winIdx: -1}
	d := NewDecoder(r)
	sawProgram := false
	// Accesses arrive in long same-phase runs, so the current phase is
	// cached rather than looked up per record.
	var cur *phaseEntry
	curIdx := -1
	for {
		ev, err := d.read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		switch ev.Kind {
		case KindProgram:
			if sawProgram {
				return nil, fmt.Errorf("trace: duplicate #program record")
			}
			sawProgram = true
			rp.Name = ev.Name
			rp.Cores = ev.Cores
		case KindSymbol, KindObject:
			rp.layout = append(rp.layout, *ev)
		case KindNote:
			rp.Notes = append(rp.Notes, ev.Name)
		case KindPhase:
			p := rp.phase(ev.Phase)
			p.name, p.parallel, p.declared = ev.Name, ev.Parallel, true
		case KindThreadEnd:
			t := rp.phase(ev.Phase).thread(ev.TID)
			t.endInstrs = ev.Instrs
			t.sawEnd = true
		case KindAccess:
			if ev.Phase != curIdx {
				curIdx, cur = ev.Phase, rp.phase(ev.Phase)
			}
			if err := cur.thread(ev.TID).appendAccess(ev); err != nil {
				return nil, err
			}
			if cur.accesses == 0 || ev.Addr < cur.addrMin {
				cur.addrMin = ev.Addr
			}
			cur.addrMax = max(cur.addrMax, ev.Addr)
			cur.accesses++
			rp.Accesses++
		}
	}
	if !sawProgram {
		return nil, fmt.Errorf("trace: missing #program record")
	}
	if rp.Cores == 0 {
		rp.Cores = 1
	}
	for _, p := range rp.phases {
		if p == nil {
			continue
		}
		for tid := range p.ops {
			p.tids = append(p.tids, tid)
		}
		sort.Slice(p.tids, func(i, j int) bool { return p.tids[i] < p.tids[j] })
	}
	if err := finishPhases(rp.phases); err != nil {
		return nil, err
	}
	return rp, nil
}

func (rp *Replay) phase(idx int) *phaseEntry {
	if idx >= len(rp.phases) {
		rp.phases = append(rp.phases, make([]*phaseEntry, idx+1-len(rp.phases))...)
	}
	p := rp.phases[idx]
	if p == nil {
		p = &phaseEntry{ops: make(map[mem.ThreadID]*replayThread)}
		rp.phases[idx] = p
	}
	return p
}

// Validate rehearses the whole replay pipeline — open, memory-layout
// restore and synthesis against a scratch default layout, a load of
// every phase (a full decode of every segment of an indexed trace), and
// program assembly — returning the error any stage would surface.
// Callers that cannot tolerate a late failure (the workload registry's
// Build cannot return errors and panics instead) validate up front.
func Validate(path string) error {
	rp, err := ReadFile(path)
	if err != nil {
		return err
	}
	if err := rp.Prepare(heap.New(heap.Config{}), symtab.New(symtab.Config{})); err != nil {
		return err
	}
	for idx, p := range rp.phases {
		if p == nil {
			continue
		}
		if _, err := rp.load(idx); err != nil {
			return err
		}
	}
	rp.Program()
	return nil
}

// load returns phase idx's per-thread operations: a scanned trace
// already holds them, an indexed one decodes the phase's segment.
func (rp *Replay) load(idx int) (map[mem.ThreadID]*replayThread, error) {
	if rp.file == nil {
		return rp.phases[idx].ops, nil
	}
	return rp.file.loadPhase(rp.phases[idx].seg)
}

// acquire returns tid's operations in phase idx. An indexed trace keeps
// one phase resident and loads the next when the engine reaches it; the
// engine finishes every body of a phase before starting the next, so
// each segment loads exactly once per sequential replay. A load failure
// here means the file changed or broke after open-time validation — a
// contract violation reported by panic, like workload Build errors.
func (rp *Replay) acquire(idx int, tid mem.ThreadID) *replayThread {
	if rp.file == nil {
		return rp.phases[idx].ops[tid]
	}
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if rp.winIdx != idx {
		win, err := rp.load(idx)
		if err != nil {
			panic(fmt.Sprintf("trace: streaming replay of %s: loading phase %d: %v", rp.file.path, idx, err))
		}
		rp.win, rp.winIdx = win, idx
		rp.loads++
		var ops uint64
		for _, rt := range win {
			ops += uint64(len(rt.ops))
		}
		rp.maxWindowOps = max(rp.maxWindowOps, ops)
		mWindowLoads.Inc()
		mWindowOps.Add(ops)
		mWindowOpsMax.SetMax(int64(ops))
		if obs.TracingEnabled() {
			obs.Event("trace", "window-load", 0, map[string]any{
				"path": rp.file.path, "phase": idx, "ops": ops,
			})
		}
	}
	return rp.win[tid]
}

// WindowStats reports how many phase windows the replay loaded from
// disk and the largest operation count ever resident — the evidence that
// memory stayed bounded by the largest phase rather than the whole
// trace. A scanned trace holds every phase already and reports 0, 0.
func (rp *Replay) WindowStats() (loads int, maxOps uint64) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	return rp.loads, rp.maxWindowOps
}

// Prepare installs the trace's memory layout into a system's heap and
// symbol table. Traces recorded by this package restore exactly: every
// object reappears at its original address with its original call
// stack, and in-segment addresses replay verbatim. Foreign addresses
// outside every simulated segment (real-hardware stacks and mmap
// ranges) are synthesized into fresh heap objects with `trace:N` call
// sites. Prepare must run before Program.
//
// Trace files are external input, so Prepare converts any panic from
// the layout machinery (e.g. heap exhaustion while synthesizing foreign
// runs) into an error.
func (rp *Replay) Prepare(h *heap.Heap, syms *symtab.Table) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("trace: preparing replay: %v", r)
		}
	}()
	restore := func(ev *Event) error {
		switch ev.Kind {
		case KindSymbol:
			return syms.Restore(symtab.Symbol{Name: ev.Name, Addr: ev.Addr, Size: ev.Size})
		case KindObject:
			return h.Restore(heap.Object{
				Addr: ev.Addr, Size: ev.Size, ClassSize: ev.Class,
				Thread: ev.TID, Seq: ev.Seq, Live: ev.Live, Stack: ev.Stack,
			})
		}
		return nil
	}
	if rp.file != nil {
		err = rp.file.eachLayout(restore)
	} else {
		for i := range rp.layout {
			if err = restore(&rp.layout[i]); err != nil {
				break
			}
		}
	}
	if err != nil {
		return err
	}
	lines, err := rp.foreignLines(h, syms)
	if err != nil {
		return err
	}
	rp.runs = lineRuns(lines)
	for i := range rp.runs {
		site := heap.Stack(heap.Frame{Func: "trace", File: "trace", Line: i + 1})
		rp.runs[i].mappedTo = h.Malloc(mem.MainThread, rp.runs[i].bytes, site)
	}
	rp.prepared = true
	return nil
}

// lineRun is a maximal run of consecutive touched cache lines.
type lineRun struct {
	start mem.Addr // base address of the first line
	bytes uint64
	// mappedTo is the synthesized object base the run was remapped onto.
	mappedTo mem.Addr
}

func (r lineRun) contains(a mem.Addr) bool { return a >= r.start && a < r.start.Add(int(r.bytes)) }

// foreignLines returns the cache-line indices of every access address
// outside the heap and globals segments — foreign traces recorded on
// real hardware (stacks, 0x7f.. mmap ranges). Prepare turns contiguous
// runs of them into fresh heap objects, and replay remaps their
// accesses onto those so the profiler can attribute the sharing.
// Addresses inside the heap or globals segments stay verbatim whether
// or not an object covers them: the profiler accepts them by region
// exactly as it did during recording (unresolved ones report as unknown
// objects), which is what keeps replayed reports identical. Phases whose
// [addrMin, addrMax] provably lies in-segment are skipped without
// loading, so recorder-written traces never pay for this pass.
func (rp *Replay) foreignLines(h *heap.Heap, syms *symtab.Table) ([]uint64, error) {
	iv := [][2]mem.Addr{{h.Base(), h.Limit()}, {syms.Base(), syms.Limit()}}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	if iv[1][0] <= iv[0][1] { // adjacent or overlapping: merge
		iv = [][2]mem.Addr{{iv[0][0], max(iv[0][1], iv[1][1])}}
	}
	inSegment := func(lo, hi mem.Addr) bool {
		for _, r := range iv {
			if lo >= r[0] && hi < r[1] {
				return true
			}
		}
		return false
	}
	var lines []uint64
	seen := make(map[uint64]bool)
	for idx, p := range rp.phases {
		if p == nil || p.accesses == 0 || inSegment(p.addrMin, p.addrMax) {
			continue
		}
		ops, err := rp.load(idx)
		if err != nil {
			return nil, err
		}
		for _, rt := range ops {
			for i := range rt.ops {
				addr := rt.ops[i].addr
				if h.Contains(addr) || syms.Contains(addr) {
					continue
				}
				if line := addr.Line(); !seen[line] {
					seen[line] = true
					lines = append(lines, line)
				}
			}
		}
	}
	return lines, nil
}

// lineRuns groups line indices into maximal contiguous runs, sorting
// lines in place.
func lineRuns(lines []uint64) []lineRun {
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	var runs []lineRun
	for i := 0; i < len(lines); {
		j := i + 1
		for j < len(lines) && lines[j] == lines[j-1]+1 {
			j++
		}
		runs = append(runs, lineRun{
			start: mem.LineAddr(lines[i]),
			bytes: uint64(j-i) * mem.LineSize,
		})
		i = j
	}
	return runs
}

// remapForeign translates an address covered by a synthesized run onto
// its replacement object; addresses outside every run pass through.
func remapForeign(runs []lineRun, addr mem.Addr) mem.Addr {
	j := sort.Search(len(runs), func(j int) bool {
		return runs[j].start.Add(int(runs[j].bytes)) > addr
	})
	if j < len(runs) && runs[j].contains(addr) {
		return runs[j].mappedTo + (addr - runs[j].start)
	}
	return addr
}

// Program reconstructs the deterministic fork-join program. Phases keep
// their recorded indices (gaps become empty phases the engine skips),
// each phase's bodies reissue its threads' exact access streams with the
// recorded compute gaps in ascending-thread-id order, and phases whose
// threads reappear in other parallel phases become pooled — so the
// engine reassigns the original thread ids and the unchanged simulator
// reproduces the recorded execution.
func (rp *Replay) Program() exec.Program {
	return rp.ProgramRange(0, rp.MaxPhase())
}

// ProgramRange reconstructs the program with only phases lo..hi
// (inclusive) populated; the rest become empty phases the engine skips
// without advancing the clock. Phase indices, thread ids and pooling
// are those of the full program, so a range replays exactly as that
// slice of the full run on a fresh system — the unit of phase-sharded
// sweeps.
func (rp *Replay) ProgramRange(lo, hi int) exec.Program {
	if !rp.prepared {
		panic("trace: Replay.Program called before Prepare")
	}
	prog := exec.Program{Name: rp.Name}
	for idx, p := range rp.phases {
		if p == nil || idx < lo || idx > hi {
			// Preserve recorded phase indices across gaps; the engine
			// skips body-less phases without notifying probes.
			prog.Phases = append(prog.Phases, exec.Phase{})
			continue
		}
		name := p.name
		if name == "" {
			name = fmt.Sprintf("phase%d", idx)
		}
		if !p.parallel {
			prog.Phases = append(prog.Phases, exec.SerialPhase(name, rp.body(idx, mem.MainThread)))
			continue
		}
		bodies := make([]exec.Body, 0, len(p.tids))
		for _, tid := range p.tids {
			bodies = append(bodies, rp.body(idx, tid))
		}
		prog.Phases = append(prog.Phases, exec.Phase{Name: name, Bodies: bodies, Pooled: p.pooled})
	}
	return prog
}

// MaxPhase returns the highest phase index in the trace (-1 for none).
func (rp *Replay) MaxPhase() int { return len(rp.phases) - 1 }

// PhaseInfo describes one phase of the table, for shard planning.
type PhaseInfo struct {
	Index    int
	Name     string
	Parallel bool
	Accesses uint64
}

// Phases lists the trace's phases in ascending phase order.
func (rp *Replay) Phases() []PhaseInfo {
	var out []PhaseInfo
	for idx, p := range rp.phases {
		if p != nil {
			out = append(out, PhaseInfo{Index: idx, Name: p.name, Parallel: p.parallel, Accesses: p.accesses})
		}
	}
	return out
}

// body replays thread tid's operations in phase idx. The operations are
// fetched when the engine runs the thread, keeping program construction
// allocation-free and an indexed trace's window at one phase.
func (rp *Replay) body(idx int, tid mem.ThreadID) exec.Body {
	runs := rp.runs
	return func(t *exec.T) {
		rt := rp.acquire(idx, tid)
		if rt == nil {
			return // a declared serial phase with no records
		}
		ops := rt.ops
		for i := range ops {
			op := &ops[i]
			if op.gap > 0 {
				t.Compute(int(op.gap))
			}
			addr := op.addr
			if runs != nil {
				addr = remapForeign(runs, addr)
			}
			if op.write {
				t.StoreN(addr, op.size)
			} else {
				t.LoadN(addr, op.size)
			}
		}
		// endInstrs counts the accesses themselves; lastIP is the
		// instruction index of the final access, so the difference is
		// pure trailing compute.
		if rt.sawEnd && rt.endInstrs > rt.lastIP {
			t.Compute(int(rt.endInstrs - rt.lastIP))
		}
	}
}
