// Indexed phase source: windowed loading for binary v3 traces.
//
// An indexed file's phase table comes from its v3 index (index.go)
// instead of a scan. The records stay on disk: Prepare decodes the
// layout regions in place, and each phase's segment is decoded into
// operations only when the engine reaches the phase. The engine runs
// phases strictly in order and completes every body of a phase before
// starting the next, so a window holding exactly one phase never
// thrashes: each segment is read from disk once per replay, and peak
// memory is the largest single phase plus the layout.
package trace

import (
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"repro/internal/mem"
)

// indexedFile is the per-file state every Replay of one indexed trace
// shares: the validated index, the program identity and the phase
// table. It holds no record data, so several cells replaying the same
// giant trace concurrently cost one metadata copy, not N.
type indexedFile struct {
	path  string
	size  int64
	mtime time.Time
	idx   *traceIndex

	name             string
	cores            int
	notes            []string
	symbols, objects uint64
	// phases is the read-only phase table shared by every Replay of the
	// file; its entries carry segment positions, never operations.
	phases []*phaseEntry
}

// indexCache shares indexedFile values across opens of the same path,
// keyed by path and invalidated on size/mtime change. Only indexed
// files enter it; scanned traces are never cached.
var indexCache = struct {
	sync.Mutex
	m    map[string]*indexCacheEntry
	tick uint64
}{m: make(map[string]*indexCacheEntry)}

type indexCacheEntry struct {
	f       *indexedFile
	lastUse uint64
}

// maxSharedTraces bounds the metadata cache; least-recently-used
// entries beyond it are dropped.
const maxSharedTraces = 16

// indexedFileFor returns the shared state of the indexed trace at path,
// opening and validating it on a cache miss. A trace without an index
// fails with ErrNoIndex (wrapped); any other error reports a missing
// file or a broken index.
func indexedFileFor(path string) (*indexedFile, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	indexCache.Lock()
	indexCache.tick++
	if e := indexCache.m[path]; e != nil && e.f.size == st.Size() && e.f.mtime.Equal(st.ModTime()) {
		e.lastUse = indexCache.tick
		f := e.f
		indexCache.Unlock()
		return f, nil
	}
	indexCache.Unlock()

	f, err := openIndexed(path)
	if err != nil {
		return nil, err
	}
	indexCache.Lock()
	indexCache.tick++
	indexCache.m[path] = &indexCacheEntry{f: f, lastUse: indexCache.tick}
	for len(indexCache.m) > maxSharedTraces {
		oldPath, oldUse := "", ^uint64(0)
		for p, e := range indexCache.m {
			if e.lastUse < oldUse {
				oldPath, oldUse = p, e.lastUse
			}
		}
		delete(indexCache.m, oldPath)
	}
	indexCache.Unlock()
	return f, nil
}

// openIndexed reads and cross-checks a trace's index and open-time
// metadata: the layout regions are decoded once (verifying their
// checksums and indexed record counts and capturing the program
// identity), and each segment's first record is decoded to confirm it
// is the indexed phase and to capture its name and parallelism.
func openIndexed(path string) (*indexedFile, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer file.Close()
	st, err := file.Stat()
	if err != nil {
		return nil, err
	}
	idx, err := readIndexAt(file, st.Size())
	if err != nil {
		return nil, err
	}
	f := &indexedFile{path: path, size: st.Size(), mtime: st.ModTime(), idx: idx}

	sawProgram := false
	for ri := range idx.regions {
		r := &idx.regions[ri]
		cr := &crcReader{r: io.NewSectionReader(file, int64(r.off), int64(r.length))}
		d := newSeededDecoder(cr, nil, r.meta)
		var nsyms, nobjs uint64
		for {
			ev, err := d.read()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, verifySpanCRC(path, -1, r.off, cr, r.crc, idx.hasCRC, err)
			}
			switch ev.Kind {
			case KindProgram:
				if sawProgram {
					return nil, fmt.Errorf("trace: duplicate #program record")
				}
				sawProgram = true
				f.name, f.cores = ev.Name, ev.Cores
			case KindSymbol:
				nsyms++
			case KindObject:
				nobjs++
			case KindNote:
				f.notes = append(f.notes, ev.Name)
			default:
				return nil, fmt.Errorf("trace: index: layout region at %d contains a kind-%d record", r.off, ev.Kind)
			}
		}
		if err := verifySpanCRC(path, -1, r.off, cr, r.crc, idx.hasCRC, nil); err != nil {
			return nil, err
		}
		if nsyms != r.syms || nobjs != r.objs {
			return nil, fmt.Errorf("trace: index: region at %d claims %d symbols / %d objects, stream has %d / %d",
				r.off, r.syms, r.objs, nsyms, nobjs)
		}
		f.symbols += nsyms
		f.objects += nobjs
	}
	if !sawProgram {
		return nil, fmt.Errorf("trace: missing #program record")
	}
	if f.cores == 0 {
		f.cores = 1
	}

	for si := range idx.segs {
		seg := &idx.segs[si]
		if seg.maxSize > 255 {
			return nil, fmt.Errorf("trace: access size %d unsupported (max 255)", seg.maxSize)
		}
		d := newSeededDecoder(io.NewSectionReader(file, int64(seg.off), int64(seg.length)), seg.threads, seg.meta)
		ev, err := d.read()
		if err != nil {
			return nil, fmt.Errorf("trace: index: segment for phase %d: %w", seg.phase, err)
		}
		if ev.Kind != KindPhase || ev.Phase != seg.phase {
			return nil, fmt.Errorf("trace: index: segment for phase %d does not start at its phase record", seg.phase)
		}
		p := &phaseEntry{
			name: ev.Name, declared: true, parallel: ev.Parallel,
			tids:     make([]mem.ThreadID, len(seg.threads)),
			accesses: seg.accesses, addrMin: mem.Addr(seg.addrMin), addrMax: mem.Addr(seg.addrMax),
			seg: si,
		}
		for i, t := range seg.threads {
			p.tids[i] = t.tid
		}
		if seg.phase >= len(f.phases) {
			f.phases = append(f.phases, make([]*phaseEntry, seg.phase+1-len(f.phases))...)
		}
		f.phases[seg.phase] = p
	}
	if err := finishPhases(f.phases); err != nil {
		return nil, err
	}
	return f, nil
}

// eachLayout decodes the layout regions in stream order and passes
// every record to fn.
func (f *indexedFile) eachLayout(fn func(ev *Event) error) error {
	file, err := os.Open(f.path)
	if err != nil {
		return err
	}
	defer file.Close()
	for ri := range f.idx.regions {
		r := &f.idx.regions[ri]
		d := newSeededDecoder(io.NewSectionReader(file, int64(r.off), int64(r.length)), nil, r.meta)
		for {
			ev, err := d.read()
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			if err := fn(ev); err != nil {
				return err
			}
		}
	}
	return nil
}

// loadPhase decodes segment si into fresh per-thread operation lists,
// cross-checking every record against the index's claims.
func (f *indexedFile) loadPhase(si int) (map[mem.ThreadID]*replayThread, error) {
	seg := &f.idx.segs[si]
	file, err := os.Open(f.path)
	if err != nil {
		return nil, err
	}
	defer file.Close()
	cr := &crcReader{r: io.NewSectionReader(file, int64(seg.off), int64(seg.length))}
	d := newSeededDecoder(cr, seg.threads, seg.meta)
	// checked wraps every failure so a corrupt payload under a valid
	// index surfaces as CorruptPayloadError rather than whatever decode
	// or count error the damage happens to trip first.
	checked := func(cause error) error {
		return verifySpanCRC(f.path, seg.phase, seg.off, cr, seg.crc, f.idx.hasCRC, cause)
	}

	// Each thread's operation list is sized from the index's count, but
	// the whole window's preallocation is capped by the most accesses
	// the segment's bytes can hold, so a lying index cannot force a
	// large allocation.
	budget := seg.length / minAccessRecord
	win := make(map[mem.ThreadID]*replayThread, len(seg.threads))
	for _, t := range seg.threads {
		n := min(t.accesses, budget)
		budget -= n
		win[t.tid] = &replayThread{ops: make([]replayOp, 0, n)}
	}
	ev, err := d.read()
	if err != nil {
		return nil, checked(err)
	}
	if ev.Kind != KindPhase || ev.Phase != seg.phase {
		return nil, checked(fmt.Errorf("trace: segment for phase %d does not start at its phase record", seg.phase))
	}
	var total uint64
	for {
		ev, err := d.read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, checked(err)
		}
		if ev.Kind != KindAccess && ev.Kind != KindThreadEnd {
			return nil, checked(fmt.Errorf("trace: phase %d segment contains a kind-%d record", seg.phase, ev.Kind))
		}
		if ev.Phase != seg.phase {
			return nil, checked(fmt.Errorf("trace: phase %d segment contains a record for phase %d", seg.phase, ev.Phase))
		}
		rt := win[ev.TID]
		if rt == nil {
			return nil, checked(fmt.Errorf("trace: phase %d segment has records for unindexed thread %d", seg.phase, ev.TID))
		}
		if ev.Kind == KindThreadEnd {
			rt.endInstrs = ev.Instrs
			rt.sawEnd = true
			continue
		}
		if err := rt.appendAccess(ev); err != nil {
			return nil, checked(err)
		}
		total++
	}
	if total != seg.accesses {
		return nil, checked(fmt.Errorf("trace: phase %d segment has %d accesses, index claims %d", seg.phase, total, seg.accesses))
	}
	for _, t := range seg.threads {
		if n := uint64(len(win[t.tid].ops)); n != t.accesses {
			return nil, checked(fmt.Errorf("trace: phase %d thread %d has %d accesses, index claims %d",
				seg.phase, t.tid, n, t.accesses))
		}
	}
	if err := checked(nil); err != nil {
		return nil, err
	}
	return win, nil
}
