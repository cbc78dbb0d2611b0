package trace

import (
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/mem"
)

// Meta summarizes a trace without building a Replay: identity, framing,
// and structural counts. It exists for header inspection (`cheetah
// -trace-info`) and upload admission (cheetahd), where decoding every
// access into operation lists — what ReadFile does for a trace without
// an index — would cost the whole file's memory for an answer a scan
// (or, for indexed traces, the index alone) provides.
type Meta struct {
	// Name and Cores are the recorded program identity.
	Name  string
	Cores int
	// Framing is the detected framing ("text", "binary v2", ...).
	Framing string
	// Indexed reports a seekable v3 index block.
	Indexed bool
	// Accesses, Symbols and Objects count the trace's records.
	Accesses uint64
	Symbols  uint64
	Objects  uint64
	// Phases counts declared phases; MaxPhase is the highest phase index
	// seen on any record (-1 for a trace with no phase activity).
	Phases   int
	MaxPhase int
	// Threads counts distinct thread ids with access or thread-end
	// records.
	Threads int
	// Notes are the trace's provenance notes (`key=value` text) in
	// stream order; the importers record skip/drop tallies here.
	Notes []string
}

// ReadMeta scans a whole trace stream for its metadata, retaining
// nothing but counters: memory is O(threads + phases) however large the
// trace. It applies the same structural checks as Read (missing or
// duplicate program record, zero core count).
func ReadMeta(r io.Reader) (*Meta, error) {
	m := &Meta{MaxPhase: -1}
	d := NewDecoder(r)
	sawProgram := false
	phases := make(map[int]bool)
	threads := make(map[int64]bool)
	phase := func(idx int) {
		if idx > m.MaxPhase {
			m.MaxPhase = idx
		}
	}
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
			m.Name = ev.Name
			m.Cores = ev.Cores
		case KindSymbol:
			m.Symbols++
		case KindObject:
			m.Objects++
		case KindPhase:
			if !phases[ev.Phase] {
				phases[ev.Phase] = true
				m.Phases++
			}
			phase(ev.Phase)
		case KindThreadEnd:
			threads[int64(ev.TID)] = true
			phase(ev.Phase)
		case KindAccess:
			m.Accesses++
			threads[int64(ev.TID)] = true
			phase(ev.Phase)
		case KindNote:
			m.Notes = append(m.Notes, ev.Name)
		}
	}
	if !sawProgram {
		return nil, fmt.Errorf("trace: missing #program record")
	}
	if m.Cores == 0 {
		m.Cores = 1
	}
	m.Threads = len(threads)
	m.Framing = d.Framing()
	m.Indexed = d.Indexed()
	return m, nil
}

// ReadMetaFile returns the trace's metadata, lazily: an indexed trace
// answers from its index and layout regions without touching the access
// records at all; a trace without an index falls back to the ReadMeta
// scan. It follows ReadFile's rule, so a trace it accepts is one replay
// can open: a present but broken index is an error, not a scan.
func ReadMetaFile(path string) (*Meta, error) {
	ixf, err := indexedFileFor(path)
	if err == nil {
		tids := make(map[mem.ThreadID]bool)
		phases := 0
		for _, p := range ixf.phases {
			if p == nil {
				continue
			}
			phases++
			for _, tid := range p.tids {
				tids[tid] = true
			}
		}
		return &Meta{
			Name: ixf.name, Cores: ixf.cores,
			Framing: fmt.Sprintf("binary v%d", BinaryV3), Indexed: true,
			Accesses: ixf.idx.accesses, Symbols: ixf.symbols, Objects: ixf.objects,
			Phases: phases, MaxPhase: len(ixf.phases) - 1, Threads: len(tids),
			Notes: ixf.notes,
		}, nil
	}
	if !errors.Is(err, ErrNoIndex) {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadMeta(f)
}
