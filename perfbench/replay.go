package main

// The replay workload: set-up records full-access binary traces of
// seed-chosen (workload, threads) programs, keeps the direct profile's
// report as the reference, and rewrites each trace as an indexed v3
// copy. The window profile-replays every trace through both builders —
// the full one (trace.ReadFile on the v2 file) and the streamed one
// (trace.OpenStream on the v3 copy) — and checks each report against the
// direct run's bytes. Trace decode and program build dominate here, so
// this is the workload where a trace change shows and a cache change
// barely does.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	cheetah "repro"
	"repro/internal/exec"
	"repro/internal/harness"
	"repro/internal/trace"
	"repro/internal/workload"
)

// replayPool is what the seed draws replay programs from, each at the
// scale where its program makes about 300k simulated accesses, so the
// seed changes the inputs without moving the amount of work.
var replayPool = map[string]float64{
	"linear_regression": 0.05, "histogram": 0.12, "word_count": 0.12, "reverse_index": 0.25,
	"streamcluster": 0.13, "kmeans": 0.14, "string_match": 0.18, "swaptions": 0.19,
}

// replayThreads is what the seed draws thread counts from.
var replayThreads = []int{8, 12, 16}

// replayProgram is one recorded program and its reference report.
type replayProgram struct {
	name     string
	threads  int
	scale    float64
	v2, v3   string
	ref      string
	accesses uint64
}

type replayBench struct {
	dir      string
	programs []replayProgram
}

// replaySpecs draws n distinct programs from the seed, at factor times
// their pool scale.
func replaySpecs(seed int64, n int, factor float64) []replayProgram {
	rng := rand.New(rand.NewSource(seed))
	names := make([]string, 0, len(replayPool))
	for name := range replayPool {
		names = append(names, name)
	}
	sort.Strings(names)
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	var out []replayProgram
	for i := 0; i < n; i++ {
		name := names[i%len(names)]
		out = append(out, replayProgram{
			name: name, scale: replayPool[name] * factor,
			threads: replayThreads[rng.Intn(len(replayThreads))],
		})
	}
	return out
}

func (r *replayBench) setup(e *env, t *tally) error {
	dir, err := e.newDir("replay")
	if err != nil {
		return err
	}
	r.dir = dir
	r.programs = replaySpecs(e.seed, e.size.replayPrograms, e.size.replayFactor)
	for i := range r.programs {
		p := &r.programs[i]
		base := filepath.Join(dir, fmt.Sprintf("%d-%s-t%d", i, p.name, p.threads))
		p.v2, p.v3 = base+".v2.trace", base+".v3.trace"
		if err := recordProgram(p); err != nil {
			return err
		}
		if err := indexTrace(p.v2, p.v3); err != nil {
			return err
		}
	}
	return nil
}

func (r *replayBench) teardown() {
	if r.dir != "" {
		os.RemoveAll(r.dir)
	}
}

// recordProgram profiles the program directly while recording every
// access to a binary v2 trace, as `cheetah -record -record-binary` does;
// the direct report becomes the replay reference.
func recordProgram(p *replayProgram) error {
	w, ok := workload.ByName(p.name)
	if !ok {
		return fmt.Errorf("unknown workload %q", p.name)
	}
	sys := cheetah.New(cheetah.Config{})
	prog := w.Build(sys, workload.Params{Threads: p.threads, Scale: p.scale})
	f, err := os.Create(p.v2)
	if err != nil {
		return err
	}
	rec := trace.NewRecorder(trace.NewBinaryEncoder(f), sys.Heap(), sys.Globals())
	rec.SetMachine(sys.Model().Fingerprint())
	prof := sys.NewProfiler(cheetah.ProfileOptions{PMU: harness.DetectionPMU()})
	res := sys.RunWith(prog, append(prof.Probes(), rec)...)
	if err := rec.Err(); err != nil {
		f.Close()
		return fmt.Errorf("recording %s: %w", p.v2, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	p.ref = harness.RenderDetectionReport(prof.Report(), res, false, false)
	p.accesses = res.Accesses()
	return nil
}

// indexTrace rewrites a trace as an indexed binary v3 file, as
// `cheetah -index` does.
func indexTrace(in, out string) error {
	src, err := os.Open(in)
	if err != nil {
		return err
	}
	defer src.Close()
	dst, err := os.Create(out)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(dst)
	enc := trace.NewIndexedEncoder(bw)
	dec := trace.NewDecoder(bufio.NewReader(src))
	for {
		ev, err := dec.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err == nil {
			err = enc.Encode(ev)
		}
		if err != nil {
			dst.Close()
			return fmt.Errorf("indexing %s: %w", in, err)
		}
	}
	if err := enc.Close(); err != nil {
		dst.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		dst.Close()
		return err
	}
	return dst.Close()
}

// replayOnce profile-replays one trace through the full or the streamed
// builder and returns the rendered report. With spans set, opening and
// profiling are recorded as replay/open.* and replay/profile.* spans.
func replayOnce(path string, stream bool, spans *spanLog) (string, exec.Result, error) {
	mode := "full"
	if stream {
		mode = "stream"
	}
	start := time.Now()
	var (
		sys  *cheetah.System
		prog exec.Program
	)
	if stream {
		sr, err := trace.OpenStream(path)
		if err != nil {
			return "", exec.Result{}, err
		}
		sys = cheetah.New(cheetah.Config{Cores: sr.Cores})
		if err := sr.Prepare(sys.Heap(), sys.Globals()); err != nil {
			return "", exec.Result{}, err
		}
		prog = sr.Program()
	} else {
		rp, err := trace.ReadFile(path)
		if err != nil {
			return "", exec.Result{}, err
		}
		sys = cheetah.New(cheetah.Config{Cores: rp.Cores})
		if err := rp.Prepare(sys.Heap(), sys.Globals()); err != nil {
			return "", exec.Result{}, err
		}
		prog = rp.Program()
	}
	if spans != nil {
		spans.add("replay", "open."+mode, path, start)
	}
	start = time.Now()
	rep, res := sys.Profile(prog, cheetah.ProfileOptions{PMU: harness.DetectionPMU()})
	out := harness.RenderDetectionReport(rep, res, false, false)
	if spans != nil {
		spans.add("replay", "profile."+mode, path, start)
	}
	return out, res, nil
}

// replayJob replays program p once and checks the report.
func replayJob(p *replayProgram, stream bool, t *tally, spans *spanLog) (exec.Result, bool) {
	path := p.v2
	if stream {
		path = p.v3
	}
	out, res, err := replayOnce(path, stream, spans)
	ok := t.check(err == nil && out == p.ref, "replay of %s (stream=%v): err %v, report matches direct run: %v",
		filepath.Base(path), stream, err, out == p.ref)
	return res, ok
}

// replayPass replays every program through both builders once.
func (r *replayBench) replayPass(t *tally, spans *spanLog, onJob func(d time.Duration, accesses uint64, stream bool)) {
	for i := range r.programs {
		for _, stream := range []bool{false, true} {
			start := time.Now()
			res, ok := replayJob(&r.programs[i], stream, t, spans)
			if ok && onJob != nil {
				onJob(time.Since(start), res.Accesses(), stream)
			}
		}
	}
}

func (r *replayBench) measure(e *env, t *tally) (window, error) {
	return passWindow(e, func(sl *slice) {
		r.replayPass(t, nil, func(d time.Duration, acc uint64, _ bool) {
			sl.accesses += acc
			sl.latencies = append(sl.latencies, float64(d.Nanoseconds())/1e6)
		})
	}), nil
}

func (r *replayBench) traced(e *env, t *tally) (map[string]metric, error) {
	start := time.Now()
	r.replayPass(t, nil, nil)
	untraced := time.Since(start)

	spans := newSpanLog()
	var (
		accesses, streamed uint64
		walls              []float64
	)
	start = time.Now()
	for end := e.deadline(start); len(walls) == 0 || time.Now().Before(end); {
		round := time.Now()
		r.replayPass(t, spans, func(_ time.Duration, acc uint64, stream bool) {
			accesses += acc
			if stream {
				streamed += acc
			}
		})
		walls = append(walls, time.Since(round).Seconds())
	}
	tracedWall := time.Since(start)

	m, err := traceLayers(r.programs, t, spans)
	if err != nil {
		return nil, err
	}
	lt := newLayerTimes()
	for _, c := range replayDriveCells(r.programs, e.size.driveCells) {
		if err := driveCell(c, lt, t, spans); err != nil {
			return nil, err
		}
	}
	if err := spans.write(e.spanPath("replay")); err != nil {
		return nil, err
	}
	for k, v := range accessLayers(lt) {
		m[k] = v
	}
	addIdleLayers(m, "harness", "sweep", "cheetahd")
	// Coverage: the open spans, the streamed replays' decode (which runs
	// inside the engine, one event per access), and the drive-measured
	// per-access layers.
	self := sum(spans.durations("replay", "open.full")) + sum(spans.durations("replay", "open.stream")) +
		m["trace.decode_ns_per_event.v3"].Value*float64(streamed)/1e6 +
		lt.kindCost(harness.KindProfiled, 16)*float64(accesses)/1e6
	m["traced.coverage"] = metric{self / (float64(tracedWall.Nanoseconds()) / 1e6), "ratio"}
	m["traced.overhead"] = metric{median(walls)/untraced.Seconds() - 1, "ratio"}
	return m, nil
}

// replayDriveCells turns the recorded programs into profiled trace
// cells, the same cells cheetahd runs for an upload.
func replayDriveCells(programs []replayProgram, n int) []harness.Cell {
	var cells []harness.Cell
	for i := 0; i < len(programs) && i < n; i++ {
		meta, err := trace.ReadMetaFile(programs[i].v2)
		if err != nil {
			continue
		}
		cells = append(cells, harness.Cell{
			Kind: harness.KindProfiled, Workload: workload.TracePrefix + programs[i].v2,
			Threads: 1, Cores: meta.Cores, Scale: 1, PMU: harness.DetectionPMU(),
		})
	}
	return cells
}

// traceLayers measures the trace layer on the recorded programs: decode
// cost per event of both framings, open times from the spans, streamed
// window statistics and encoded size per access.
func traceLayers(programs []replayProgram, t *tally, spans *spanLog) (map[string]metric, error) {
	var (
		v2NS, v3NS, v2Ev, v3Ev float64
		bytesV3, accesses      float64
		loads                  int
		maxOps                 uint64
	)
	for _, p := range programs {
		for _, v := range []struct {
			path   string
			ns, ev *float64
		}{{p.v2, &v2NS, &v2Ev}, {p.v3, &v3NS, &v3Ev}} {
			b, err := os.ReadFile(v.path)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			n, err := decodeAll(b)
			*v.ns += float64(spans.add("trace", "decode", v.path, start).Nanoseconds())
			*v.ev += float64(n)
			if !t.check(err == nil && n > 0, "decoding %s: %d events, %v", filepath.Base(v.path), n, err) {
				return nil, err
			}
		}
		st, err := os.Stat(p.v3)
		if err != nil {
			return nil, err
		}
		bytesV3 += float64(st.Size())
		accesses += float64(p.accesses)

		start := time.Now()
		if _, err := trace.ReadFile(p.v2); err != nil {
			return nil, err
		}
		spans.add("trace", "open.full", p.v2, start)
		start = time.Now()
		sr, err := trace.OpenStream(p.v3)
		if err != nil {
			return nil, err
		}
		sys := cheetah.New(cheetah.Config{Cores: sr.Cores})
		if err := sr.Prepare(sys.Heap(), sys.Globals()); err != nil {
			return nil, err
		}
		spans.add("trace", "open.stream", p.v3, start)
		sys.Run(sr.Program())
		l, ops := sr.WindowStats()
		loads += l
		maxOps = max(maxOps, ops)
	}
	return map[string]metric{
		"trace.decode_ns_per_event.v2": {ratio(v2NS, v2Ev), "ns"},
		"trace.decode_ns_per_event.v3": {ratio(v3NS, v3Ev), "ns"},
		"trace.open_ms.full":           {median(spans.durations("trace", "open.full")), "ms"},
		"trace.open_ms.stream":         {median(spans.durations("trace", "open.stream")), "ms"},
		"trace.window_loads":           {float64(loads), "count"},
		"trace.window_max_ops":         {float64(maxOps), "count"},
		"trace.bytes_per_access":       {ratio(bytesV3, accesses), "B"},
	}, nil
}

// decodeAll decodes every event of an in-memory trace.
func decodeAll(b []byte) (int, error) {
	dec := trace.NewDecoder(bytes.NewReader(b))
	n := 0
	for {
		_, err := dec.Next()
		if errors.Is(err, io.EOF) {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		n++
	}
}
