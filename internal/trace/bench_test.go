package trace_test

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"

	cheetah "repro"
	"repro/internal/trace"
	"repro/internal/workload"
)

// benchTrace is one fixed recorded program — linear_regression, 16
// threads, scale 0.05, about 300k accesses — in the v2 framing replay
// scans into memory and the indexed v3 framing it loads phase by phase.
var benchTrace = struct {
	once     sync.Once
	v2, v3   []byte
	events   int
	accesses uint64
	err      error
}{}

func loadBenchTrace(b *testing.B) ([]byte, []byte, int, uint64) {
	b.Helper()
	bt := &benchTrace
	bt.once.Do(func() {
		w, _ := workload.ByName("linear_regression")
		sys := cheetah.New(cheetah.Config{})
		prog := w.Build(sys, workload.Params{Threads: 16, Scale: 0.05})
		var v2, v3 bytes.Buffer
		rec := trace.NewRecorder(teeEncoder{trace.NewBinaryEncoder(&v2), trace.NewIndexedEncoder(&v3)}, sys.Heap(), sys.Globals())
		bt.accesses = sys.RunWith(prog, rec).Accesses()
		if bt.err = rec.Err(); bt.err != nil {
			return
		}
		bt.v2, bt.v3 = v2.Bytes(), v3.Bytes()
		d := trace.NewDecoder(bytes.NewReader(bt.v2))
		for {
			if _, err := d.Next(); err != nil {
				if err != io.EOF {
					bt.err = err
				}
				return
			}
			bt.events++
		}
	})
	if bt.err != nil {
		b.Fatal(bt.err)
	}
	return bt.v2, bt.v3, bt.events, bt.accesses
}

// teeEncoder records one event stream into two framings at once.
type teeEncoder [2]trace.Encoder

func (t teeEncoder) Encode(ev trace.Event) error {
	if err := t[0].Encode(ev); err != nil {
		return err
	}
	return t[1].Encode(ev)
}

func (t teeEncoder) Close() error {
	if err := t[0].Close(); err != nil {
		return err
	}
	return t[1].Close()
}

// benchDecode drains the whole trace through the public decoder per
// iteration and reports the per-event cost.
func benchDecode(b *testing.B, data []byte, events int) {
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := trace.NewDecoder(bytes.NewReader(data))
		for {
			if _, err := d.Next(); err != nil {
				if err != io.EOF {
					b.Fatal(err)
				}
				break
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
}

// BenchmarkDecodeV2 times sequential decode of the v2 fixture.
func BenchmarkDecodeV2(b *testing.B) {
	v2, _, events, _ := loadBenchTrace(b)
	benchDecode(b, v2, events)
}

// BenchmarkDecodeV3 times sequential decode of the indexed v3 fixture,
// index block included.
func BenchmarkDecodeV3(b *testing.B) {
	_, v3, events, _ := loadBenchTrace(b)
	benchDecode(b, v3, events)
}

// benchOpen writes data to a file and times open(path) per iteration,
// reporting the per-access cost.
func benchOpen(b *testing.B, data []byte, accesses uint64, open func(string) error) {
	path := filepath.Join(b.TempDir(), "bench.trace")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := open(path); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(accesses)), "ns/access")
}

// BenchmarkReplayOpenFull times the scan source end to end short of
// simulation: decode the v2 fixture into operation lists, restore its
// layout and assemble the program (trace.Validate).
func BenchmarkReplayOpenFull(b *testing.B) {
	v2, _, _, accesses := loadBenchTrace(b)
	benchOpen(b, v2, accesses, trace.Validate)
}

// BenchmarkReplayOpenStream times the indexed source over the same
// program: open the v3 fixture, restore its layout, load every phase
// window and assemble the program (the same trace.Validate). The index
// and open-time metadata are cached per file after the first iteration,
// as they are across repeated replays of one trace.
func BenchmarkReplayOpenStream(b *testing.B) {
	_, v3, _, accesses := loadBenchTrace(b)
	benchOpen(b, v3, accesses, trace.Validate)
}
