package trace

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"repro/internal/heap"
)

// everyKindEvents puts an access after every other kind of record, so a
// field the reused event failed to reset — an object's stack or seq, a
// phase's name or parallel bit, a thread end's instruction count, the
// program's core count — would leak into the access that follows it.
func everyKindEvents() []Event {
	access := func(ip uint64, write bool) Event {
		return Event{Kind: KindAccess, TID: 1, Write: write, Addr: 0x40000040, Size: 8, IP: ip, Lat: 7, Phase: 1}
	}
	return []Event{
		{Kind: KindProgram, Name: "every-kind", Cores: 4},
		access(3, true),
		{Kind: KindNote, Name: "import.source=test"},
		access(5, false),
		{Kind: KindPhase, Phase: 1, Parallel: true, Name: "work"},
		access(9, true),
		{Kind: KindSymbol, Name: "counter", Addr: 0x10000000, Size: 64},
		access(12, false),
		{Kind: KindObject, Addr: 0x40000000, Size: 100, Class: 128, TID: 2, Seq: 9, Live: true,
			Stack: heap.CallStack{{File: "a.c", Line: 3, Func: "f"}, {File: "b.c", Line: 7, Func: "g"}}},
		access(14, true),
		{Kind: KindThreadEnd, TID: 1, Phase: 1, Instrs: 40},
		access(15, false),
		access(20, true),
	}
}

// TestDecoderEventReuse: the builders' reused-event path must yield, in
// every framing, exactly the events the public Next returns — and both
// must equal what was encoded.
func TestDecoderEventReuse(t *testing.T) {
	evs := everyKindEvents()
	for _, tc := range []struct {
		name string
		enc  func(io.Writer) Encoder
	}{
		{"text", func(w io.Writer) Encoder { return NewTextEncoder(w) }},
		{"v1", func(w io.Writer) Encoder { return NewBinaryEncoderV1(w) }},
		{"v2", func(w io.Writer) Encoder { return NewBinaryEncoder(w) }},
		{"v3", func(w io.Writer) Encoder { return NewIndexedEncoder(w) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			enc := tc.enc(&buf)
			for _, ev := range evs {
				if err := enc.Encode(ev); err != nil {
					t.Fatal(err)
				}
			}
			// Accesses outside a phase segment make the stream
			// unindexable; it stays a valid sequential v3 trace.
			if err := enc.Close(); err != nil && !errors.Is(err, ErrUnindexable) {
				t.Fatal(err)
			}
			reused := NewDecoder(bytes.NewReader(buf.Bytes()))
			public := NewDecoder(bytes.NewReader(buf.Bytes()))
			for i, want := range evs {
				got, err := reused.read()
				if err != nil {
					t.Fatalf("event %d: read: %v", i, err)
				}
				pub, err := public.Next()
				if err != nil {
					t.Fatalf("event %d: Next: %v", i, err)
				}
				if !reflect.DeepEqual(*got, pub) {
					t.Errorf("event %d: reused %+v, Next %+v", i, *got, pub)
				}
				if !reflect.DeepEqual(pub, want) {
					t.Errorf("event %d: decoded %+v, encoded %+v", i, pub, want)
				}
			}
			if _, err := reused.read(); err != io.EOF {
				t.Errorf("reused path past the end: %v, want io.EOF", err)
			}
			if _, err := public.Next(); err != io.EOF {
				t.Errorf("Next past the end: %v, want io.EOF", err)
			}
		})
	}
}

// TestDecodeAccessAllocatesNothing: once every thread's prediction state
// exists, decoding a v2 or v3 access record allocates nothing — no
// closure or column table may put the event back on the heap.
func TestDecodeAccessAllocatesNothing(t *testing.T) {
	const accesses = 4000
	evs := syntheticAccessTrace(accesses)
	for _, tc := range []struct {
		name string
		enc  func(io.Writer) Encoder
	}{
		{"v2", func(w io.Writer) Encoder { return NewBinaryEncoder(w) }},
		{"v3", func(w io.Writer) Encoder { return NewIndexedEncoder(w) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			encodeAll(t, tc.enc(&buf), evs)
			d := NewDecoder(bytes.NewReader(buf.Bytes()))
			// Program, phase, and one access per thread to create the
			// threads' prediction states.
			for i := 0; i < 2+4; i++ {
				if _, err := d.read(); err != nil {
					t.Fatal(err)
				}
			}
			var bad error
			allocs := testing.AllocsPerRun(accesses/2, func() {
				ev, err := d.read()
				if err == nil && ev.Kind != KindAccess {
					err = errors.New("not an access record")
				}
				if err != nil && bad == nil {
					bad = err
				}
			})
			if bad != nil {
				t.Fatal(bad)
			}
			if allocs != 0 {
				t.Errorf("%v allocations per access record, want 0", allocs)
			}
		})
	}
}
