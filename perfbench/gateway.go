package main

// The gateway workload: a fresh cheetahd per run, with -worker-procs so
// sweep.ProcPool and the wire protocol are on the path, an empty cache
// directory and spool. A closed loop of clients (each sends its next job
// only after the previous report arrived) drives a seeded job mix:
// named-workload JSON jobs at small scale with 4 to 48 threads across
// every machine preset, plus trace uploads. A fixed share of jobs
// repeats an earlier spec — the previous job, usually still in flight,
// or any earlier one — so execution, cache hits and dedupe all carry
// load. Every report is checked against harness.RenderDetectionReport
// of the same cell run locally after the window.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	osexec "os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/workload"
)

// gatewayWorkerProcs is the daemon's -worker-procs (and -workers): one
// worker process executes cells while the daemon and the clients share
// the host's other CPU, so the loop is not a contest for two CPUs
// between four processes.
const gatewayWorkerProcs = 1

// gatewayThreads are the per-phase thread counts jobs ask for.
var gatewayThreads = []int{4, 8, 16, 32, 48}

// gatewayBlock is the job mix: every block of len(gatewayBlock) jobs
// holds these slots in a seeded order — new specs, repeats of the
// previous job's spec (usually still in flight, so it dedupes), repeats
// of any earlier spec (a cache hit), and a trace upload. Fixed counts
// per block keep the share of cheap repeats well below half, so the
// median job is an executed one whatever the seed.
var gatewayBlock = []jobSlot{
	slotNew, slotNew, slotNew, slotNew, slotNew, slotNew, slotNew,
	slotNew, slotNew, slotNew, slotNew, slotNew, slotNew, slotNew,
	slotPrevious, slotPrevious, slotEarlier, slotEarlier, slotEarlier, slotUpload,
}

type jobSlot uint8

const (
	slotNew jobSlot = iota
	slotPrevious
	slotEarlier
	slotUpload
)

// gatewayScaleOf is the scale a named job runs a workload at: the
// run-wide scale, reduced for the applications whose programs are
// several times larger than the rest at equal scale, so no single
// application dominates the loop's time.
func gatewayScaleOf(name string, scale float64) float64 {
	switch name {
	case "x264":
		return scale / 6
	case "canneal", "figure1":
		return scale / 3
	case "linear_regression", "bodytrack":
		return scale / 2
	}
	return scale
}

// gwSpec is one distinct job spec.
type gwSpec struct {
	label string
	// body is the JSON job spec, or nil for a trace upload.
	body  []byte
	trace int
	cell  harness.Cell

	mu     sync.Mutex
	report string
	// done marks a spec with at least one report received in the window.
	done bool
}

// jobMix generates the seeded job sequence. Slots come in blocks (see
// gatewayBlock); workloads, thread counts and presets each cycle through
// a seeded permutation, so every run spends its jobs on the same mix of
// program sizes whatever the seed.
type jobMix struct {
	mu      sync.Mutex
	rng     *rand.Rand
	scale   float64
	uploads []replayProgram
	jobs    []*gwSpec
	specs   map[string]*gwSpec
	order   []*gwSpec
	block   []jobSlot
	names   []string
	presets []string
	threads []int
	// cursor counts the draws from names, threads and presets.
	cursor [3]int
	upload int
}

func newJobMix(seed int64, scale float64, uploads []replayProgram) *jobMix {
	return &jobMix{
		rng: rand.New(rand.NewSource(seed)), scale: scale, uploads: uploads,
		specs: map[string]*gwSpec{}, names: workload.Names(), presets: machine.Names(),
		threads: append([]int(nil), gatewayThreads...),
	}
}

// next returns the spec of the next job.
func (m *jobMix) next() *gwSpec {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.block) == 0 {
		m.block = append([]jobSlot(nil), gatewayBlock...)
		m.rng.Shuffle(len(m.block), func(i, j int) { m.block[i], m.block[j] = m.block[j], m.block[i] })
	}
	slot := m.block[0]
	m.block = m.block[1:]
	var s *gwSpec
	switch {
	case slot == slotPrevious && len(m.jobs) > 0:
		s = m.jobs[len(m.jobs)-1]
	case slot == slotEarlier && len(m.jobs) > 0:
		s = m.jobs[m.rng.Intn(len(m.jobs))]
	case slot == slotUpload && len(m.uploads) > 0:
		s = m.spec(fmt.Sprintf("upload %d", m.upload%len(m.uploads)), nil, m.upload%len(m.uploads))
		m.upload++
	default:
		name := cycle(m.rng, &m.cursor[0], m.names)
		threads := cycle(m.rng, &m.cursor[1], m.threads)
		preset := cycle(m.rng, &m.cursor[2], m.presets)
		if preset == machine.Default().Name {
			preset = "" // the canonical spelling of the default preset
		}
		// A seeded ±20% jitter on the scale makes every new spec a
		// distinct cell, so "new" jobs really execute.
		scale := math.Round(gatewayScaleOf(name, m.scale)*(0.8+0.4*m.rng.Float64())*1e6) / 1e6
		body, _ := json.Marshal(map[string]any{"workload": name, "threads": threads, "scale": scale, "machine": preset})
		s = m.spec(string(body), body, -1)
		s.cell = harness.Cell{
			Kind: harness.KindProfiled, Workload: name, Threads: threads, Cores: 48,
			Scale: scale, PMU: harness.DetectionPMU(), Machine: preset,
		}
	}
	m.jobs = append(m.jobs, s)
	return s
}

// spec returns the distinct spec for a label, creating it once.
func (m *jobMix) spec(label string, body []byte, upload int) *gwSpec {
	if s, ok := m.specs[label]; ok {
		return s
	}
	s := &gwSpec{label: label, body: body, trace: upload}
	if upload >= 0 {
		p := m.uploads[upload]
		meta, err := trace.ReadMetaFile(p.v2)
		cores := 48
		if err == nil {
			cores = meta.Cores
		}
		s.cell = harness.Cell{
			Kind: harness.KindProfiled, Workload: workload.TracePrefix + p.v2,
			Threads: 1, Cores: cores, Scale: 1, PMU: harness.DetectionPMU(),
		}
	}
	m.specs[label] = s
	m.order = append(m.order, s)
	return s
}

// cycle returns the next element of a list walked in a fresh seeded
// permutation each pass.
func cycle[T any](rng *rand.Rand, n *int, xs []T) T {
	if *n%len(xs) == 0 {
		rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	}
	x := xs[*n%len(xs)]
	*n++
	return x
}

// daemon is one running cheetahd.
type daemon struct {
	cmd    *osexec.Cmd
	base   string
	logEOF chan struct{}
}

// startDaemon starts cheetahd with a fresh cache and spool under dir and
// waits until it answers /healthz.
func startDaemon(e *env, dir string) (*daemon, error) {
	logf, err := os.Create(filepath.Join(dir, "cheetahd.log"))
	if err != nil {
		return nil, err
	}
	cmd := osexec.Command(filepath.Join(e.bin, "cheetahd"),
		"-addr", "127.0.0.1:0",
		"-cache-dir", filepath.Join(dir, "cache"), "-spool", filepath.Join(dir, "spool"),
		"-worker-procs", fmt.Sprint(gatewayWorkerProcs), "-workers", fmt.Sprint(gatewayWorkerProcs))
	cmd.Env = append(os.Environ(), "TMPDIR="+dir)
	// If the benchmark dies, the daemon goes with it (and its workers
	// with it, on the EOF of their pipes).
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting cheetahd: %w", err)
	}
	d := &daemon{cmd: cmd, logEOF: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.logEOF)
		defer logf.Close()
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if _, rest, ok := strings.Cut(line, "serving detection on http://"); ok {
				if a, _, ok := strings.Cut(rest, " "); ok {
					select {
					case addr <- a:
					default:
					}
				}
			}
		}
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.logEOF:
		d.stop()
		return nil, fmt.Errorf("cheetahd exited during start-up (see %s)", filepath.Join(dir, "cheetahd.log"))
	case <-time.After(60 * time.Second):
		d.stop()
		return nil, fmt.Errorf("cheetahd did not start within 60s")
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("cheetahd at %s never became healthy", d.base)
		}
	}
}

// stop drains the daemon with SIGTERM (SIGKILL after 30s) and waits for
// it and its worker processes to exit.
func (d *daemon) stop() error {
	d.cmd.Process.Signal(syscall.SIGTERM)
	timer := time.AfterFunc(30*time.Second, func() { d.cmd.Process.Kill() })
	defer timer.Stop()
	<-d.logEOF
	return d.cmd.Wait()
}

// gatewayMetrics reads counters from the daemon's /metrics.json.
func (d *daemon) gatewayMetrics() (map[string]any, error) {
	resp, err := http.Get(d.base + "/metrics.json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("decoding /metrics.json: %w", err)
	}
	return m, nil
}

type gatewayBench struct {
	dir     string
	uploads []replayProgram
	refs    map[string]gwRef
	d       *daemon
	client  *http.Client
}

// setup records the upload traces, builds the local references of the
// first size.gatewayRefJobs jobs of the seeded mix, and starts a fresh
// daemon.
func (g *gatewayBench) setup(e *env, t *tally) error {
	dir, err := e.newDir("gateway")
	if err != nil {
		return err
	}
	g.dir = dir
	g.uploads = replaySpecs(e.seed+1, e.size.gatewayTraces, e.size.uploadFactor)
	for i := range g.uploads {
		p := &g.uploads[i]
		base := filepath.Join(dir, fmt.Sprintf("upload%d-%s-t%d", i, p.name, p.threads))
		p.v2, p.v3 = base+".v2.trace", base+".v3.trace"
		if err := recordProgram(p); err != nil {
			return err
		}
		if err := indexTrace(p.v2, p.v3); err != nil {
			return err
		}
	}
	mix := newJobMix(e.seed, e.size.gatewayScale, g.uploads)
	for i := 0; i < e.size.gatewayRefJobs; i++ {
		mix.next()
	}
	g.refs = map[string]gwRef{}
	for _, s := range mix.order {
		ref, err := reference(s)
		if err != nil {
			return fmt.Errorf("reference for %s: %w", s.label, err)
		}
		g.refs[s.label] = ref
	}
	g.d, err = g.freshDaemon(e)
	g.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4 * e.size.gatewayClients}}
	return err
}

// freshDaemon starts a daemon in a new directory of its own.
func (g *gatewayBench) freshDaemon(e *env) (*daemon, error) {
	dir, err := os.MkdirTemp(g.dir, "daemon-")
	if err != nil {
		return nil, err
	}
	return startDaemon(e, dir)
}

func (g *gatewayBench) teardown() {
	if g.d != nil {
		g.d.stop()
		g.d = nil
	}
	if g.client != nil {
		g.client.CloseIdleConnections()
	}
	if g.dir != "" {
		os.RemoveAll(g.dir)
	}
}

// jobTiming is the client's view of one job.
type jobTiming struct {
	submit, wait, running, report time.Duration
	sawRunning                    bool
	// unterminated marks an event stream that closed without a terminal
	// event.
	unterminated bool
}

// runJob submits one job, follows its events to the end and fetches the
// report.
func (g *gatewayBench) runJob(d *daemon, s *gwSpec, tenant string) (jobTiming, string, error) {
	var jt jobTiming
	start := time.Now()
	var req *http.Request
	var err error
	if s.body != nil {
		req, err = http.NewRequest("POST", d.base+"/v1/jobs", bytes.NewReader(s.body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
	} else {
		var b []byte
		if b, err = os.ReadFile(g.uploads[s.trace].v2); err == nil {
			req, err = http.NewRequest("POST", d.base+"/v1/jobs", bytes.NewReader(b))
		}
		if err == nil {
			req.Header.Set("Content-Type", "application/octet-stream")
		}
	}
	if err != nil {
		return jt, "", err
	}
	req.Header.Set("X-Tenant", tenant)
	resp, err := g.client.Do(req)
	if err != nil {
		return jt, "", err
	}
	var sub struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || err != nil || sub.ID == "" {
		return jt, "", fmt.Errorf("submit: HTTP %d (%v)", resp.StatusCode, err)
	}
	jt.submit = time.Since(start)

	mark := time.Now()
	resp, err = g.client.Get(d.base + "/v1/jobs/" + sub.ID + "/events")
	if err != nil {
		return jt, "", err
	}
	final := ""
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() && final == "" {
		switch ev, _ := strings.CutPrefix(sc.Text(), "event: "); ev {
		case "running":
			jt.running, jt.sawRunning = time.Since(mark), true
		case "done", "failed":
			final = ev
		}
	}
	resp.Body.Close()
	if final == "" {
		// The stream closed without a terminal event. cheetahd sets a
		// job's terminal state before it emits the terminal event, so a
		// subscriber arriving between the two gets a closed stream; the
		// job itself is fine. Fall back to its status and count it.
		jt.unterminated = true
		if final, err = g.awaitStatus(d, sub.ID); err != nil {
			return jt, "", err
		}
	}
	jt.wait = time.Since(mark)
	if final != "done" {
		return jt, "", fmt.Errorf("job %s ended %q", sub.ID, final)
	}

	mark = time.Now()
	resp, err = g.client.Get(d.base + "/v1/jobs/" + sub.ID + "/report")
	if err != nil {
		return jt, "", err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil {
		return jt, "", fmt.Errorf("report of %s: HTTP %d (%v)", sub.ID, resp.StatusCode, err)
	}
	jt.report = time.Since(mark)
	return jt, string(body), nil
}

// awaitStatus polls a job's status until it is terminal.
func (g *gatewayBench) awaitStatus(d *daemon, id string) (string, error) {
	for deadline := time.Now().Add(60 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		resp, err := g.client.Get(d.base + "/v1/jobs/" + id)
		if err != nil {
			return "", err
		}
		var st struct {
			State string `json:"state"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return "", fmt.Errorf("status of %s: %w", id, err)
		}
		if st.State == "done" || st.State == "failed" {
			return st.State, nil
		}
	}
	return "", fmt.Errorf("job %s did not finish within 60s", id)
}

// completion is one finished job as the client saw it.
type completion struct {
	at      time.Time
	latency time.Duration
	spec    *gwSpec
	// first marks the first report of its spec in this loop.
	first  bool
	timing jobTiming
}

// loop drives the daemon closed-loop until the window has closed and at
// least minJobs jobs completed (or, with jobs > 0, for exactly that many
// jobs), returning the completed jobs.
func (g *gatewayBench) loop(e *env, d *daemon, mix *jobMix, t *tally, end time.Time, jobs int) []completion {
	var (
		mu     sync.Mutex
		done   []completion
		issued int
		wg     sync.WaitGroup
	)
	take := func() bool {
		mu.Lock()
		defer mu.Unlock()
		if jobs > 0 {
			if issued >= jobs {
				return false
			}
		} else if time.Now().After(end) && issued >= e.size.gatewayMinJobs {
			return false
		}
		issued++
		return true
	}
	for c := 0; c < e.size.gatewayClients; c++ {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			for take() {
				s := mix.next()
				start := time.Now()
				jt, report, err := g.runJob(d, s, tenant)
				lat := time.Since(start)
				if !t.check(err == nil, "gateway job %s: %v", s.label, err) {
					continue
				}
				s.mu.Lock()
				first := !s.done
				if first {
					s.report, s.done = report, true
				}
				same := s.report == report
				s.mu.Unlock()
				if !first {
					t.check(same, "gateway job %s: report differs from an earlier report of the same spec", s.label)
				}
				mu.Lock()
				done = append(done, completion{at: time.Now(), latency: lat, spec: s, first: first, timing: jt})
				mu.Unlock()
			}
		}(fmt.Sprintf("client%d", c))
	}
	wg.Wait()
	return done
}

// gwRef is the local reference of one spec: the cell run in-process and
// its rendered report.
type gwRef struct {
	res    harness.CellResult
	report string
}

// reference runs a spec's cell locally.
func reference(s *gwSpec) (gwRef, error) {
	res, err := harness.RunCell(s.cell)
	if err != nil {
		return gwRef{}, err
	}
	if res.Report == nil {
		return gwRef{}, fmt.Errorf("cell %s produced no report", s.cell.ID())
	}
	return gwRef{res: res, report: harness.RenderDetectionReport(res.Report, res.Result, false, false)}, nil
}

// verifySpecs checks every distinct spec's report against its local
// reference (from set-up, or computed now, on every CPU, for specs past
// the set-up's prefix) and returns the simulated accesses of the
// distinct specs — each executed once by the daemon — and their
// references.
func verifySpecs(mix *jobMix, refs map[string]gwRef, t *tally) (uint64, map[*gwSpec]gwRef) {
	var todo []*gwSpec
	for _, s := range mix.order {
		if _, ok := refs[s.label]; s.done && !ok {
			todo = append(todo, s)
		}
	}
	computed := make([]gwRef, len(todo))
	errs := make([]error, len(todo))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				computed[i], errs[i] = reference(todo[i])
			}
		}()
	}
	for i := range todo {
		next <- i
	}
	close(next)
	wg.Wait()
	local := map[*gwSpec]int{}
	for i, s := range todo {
		local[s] = i
	}

	var accesses uint64
	checked := map[*gwSpec]gwRef{}
	for _, s := range mix.order {
		if !s.done {
			continue
		}
		ref, ok := refs[s.label]
		if i, late := local[s]; !ok && late {
			if !t.check(errs[i] == nil, "local run of %s: %v", s.label, errs[i]) {
				continue
			}
			ref = computed[i]
		}
		if t.check(s.report == ref.report, "gateway report of %s differs from the local report", s.label) {
			accesses += ref.res.Result.Accesses()
			checked[s] = ref
		}
	}
	return accesses, checked
}

// gatewaySlice is the length of one gateway sub-window.
const gatewaySlice = time.Second

func (g *gatewayBench) measure(e *env, t *tally) (window, error) {
	mix := newJobMix(e.seed, e.size.gatewayScale, g.uploads)
	pid := g.d.cmd.Process.Pid
	type tick struct {
		at     time.Time
		cpu    time.Duration
		rssMiB float64
	}
	// sample reads the CPU time of the clients, the daemon and its
	// workers, and the peak memory of the daemon and its workers since
	// the last sample.
	sample := func() tick {
		pids := procTree(pid)
		tk := tick{time.Now(), selfCPU() + treeCPU(pid), peakRSSMiB(pids)}
		resetPeakRSS(pids)
		return tk
	}
	ticks := []tick{sample()}
	start := ticks[0].at
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		tk := time.NewTicker(gatewaySlice)
		defer tk.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tk.C:
				ticks = append(ticks, sample())
			}
		}
	}()
	comps := g.loop(e, g.d, mix, t, e.deadline(start), 0)
	close(stop)
	<-stopped
	// A short last slice is dropped, unless it is the only one.
	if last := sample(); len(ticks) == 1 || last.at.Sub(ticks[len(ticks)-1].at) >= gatewaySlice/2 {
		ticks = append(ticks, last)
	}
	var w window
	_, checked := verifySpecs(mix, g.refs, t)
	for i := 0; i+1 < len(ticks); i++ {
		sl := slice{wall: ticks[i+1].at.Sub(ticks[i].at), cpu: ticks[i+1].cpu - ticks[i].cpu, rssMiB: ticks[i+1].rssMiB}
		for _, c := range comps {
			if c.at.Before(ticks[i].at) || !c.at.Before(ticks[i+1].at) {
				continue
			}
			sl.latencies = append(sl.latencies, ms(c.latency))
			if ref, ok := checked[c.spec]; ok && c.first {
				sl.accesses += ref.res.Result.Accesses()
			}
		}
		w.slices = append(w.slices, sl)
	}
	return w, nil
}

// traced runs the seeded mix's first jobs untraced, then the same mix on
// a fresh daemon with per-request spans until the window closes, and
// measures the layers behind the gateway: wire frames of the executed cells, the uploaded traces, and
// capture drives of seed-chosen executed cells.
func (g *gatewayBench) traced(e *env, t *tally) (map[string]metric, error) {
	jobs := e.size.gatewayMinJobs
	start := time.Now()
	g.loop(e, g.d, newJobMix(e.seed, e.size.gatewayScale, g.uploads), t, time.Time{}, jobs)
	untraced := time.Since(start)

	d, err := g.freshDaemon(e)
	if err != nil {
		return nil, err
	}
	g.d.stop()
	g.d = d
	mix := newJobMix(e.seed, e.size.gatewayScale, g.uploads)
	spans := newSpanLog()
	start = time.Now()
	comps := g.loop(e, d, mix, t, e.deadline(start), 0)
	tracedWall := time.Since(start)
	// The overhead compares the same first jobs of the same mix.
	sort.Slice(comps, func(i, j int) bool { return comps[i].at.Before(comps[j].at) })
	firstJobs := tracedWall
	if len(comps) >= jobs {
		firstJobs = comps[jobs-1].at.Sub(start)
	}
	counters, err := d.gatewayMetrics()
	if err != nil {
		return nil, err
	}

	var submit, queueWait, run, report []float64
	var busy time.Duration
	unterminated := 0
	for _, c := range comps {
		jt := c.timing
		start := c.at.Add(-c.latency)
		spans.record("cheetahd", "submit", c.spec.label, start, jt.submit)
		spans.record("cheetahd", "events", c.spec.label, start.Add(jt.submit), jt.wait)
		spans.record("cheetahd", "report", c.spec.label, c.at.Add(-jt.report), jt.report)
		if jt.unterminated {
			unterminated++
		}
		submit = append(submit, ms(jt.submit))
		report = append(report, ms(jt.report))
		if jt.sawRunning {
			queueWait = append(queueWait, ms(jt.running))
			run = append(run, ms(jt.wait-jt.running))
		}
		busy += jt.submit + jt.wait + jt.report
	}
	_, results := verifySpecs(mix, g.refs, t)

	m := map[string]metric{
		"cheetahd.submit_ms":        {median(submit), "ms"},
		"cheetahd.queue_wait_ms":    {median(queueWait), "ms"},
		"cheetahd.run_ms":           {median(run), "ms"},
		"cheetahd.report_ms":        {median(report), "ms"},
		"cheetahd.rejected":         {counter(counters, "cheetah_gateway_jobs_rejected_total"), "count"},
		"cheetahd.sse_unterminated": {float64(unterminated), "count"},
	}
	executed := counter(counters, "cheetah_gateway_cells_executed_total")
	served := counter(counters, "cheetah_gateway_cells_cached_total") + counter(counters, "cheetah_gateway_cells_deduped_total")
	m["cheetahd.cache_hit_ratio"] = metric{ratio(served, served+executed), "ratio"}

	wireUS, wireBytes, n := 0.0, 0.0, 0.0
	for s, ref := range results {
		us, b, err := wireRoundTrip(s.cell, ref.res, spans)
		if !t.check(err == nil, "wire round trip of %s: %v", s.label, err) {
			continue
		}
		wireUS += us
		wireBytes += b
		n++
	}
	m["sweep.wire_us_per_cell"] = metric{ratio(wireUS, n), "us"}
	m["sweep.wire_bytes_per_cell"] = metric{ratio(wireBytes, n), "B"}

	tl, err := traceLayers(g.uploads, t, spans)
	if err != nil {
		return nil, err
	}
	for k, v := range tl {
		m[k] = v
	}
	lt := newLayerTimes()
	for _, c := range gatewayDriveCells(mix, e.seed, e.size.driveCells) {
		if err := driveCell(c, lt, t, spans); err != nil {
			return nil, err
		}
	}
	for k, v := range accessLayers(lt) {
		m[k] = v
	}
	addIdleLayers(m, "harness")
	if err := spans.write(e.spanPath("gateway")); err != nil {
		return nil, err
	}
	m["traced.coverage"] = metric{busy.Seconds() / (tracedWall.Seconds() * float64(e.size.gatewayClients)), "ratio"}
	m["traced.overhead"] = metric{firstJobs.Seconds()/untraced.Seconds() - 1, "ratio"}
	return m, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// counter reads a counter from a /metrics.json map (0 when absent).
func counter(m map[string]any, name string) float64 {
	v, _ := m[name].(float64)
	return v
}

// wireRoundTrip encodes and decodes a cell's run frame and result frame
// as a pool worker exchange does, returning microseconds and bytes.
func wireRoundTrip(c harness.Cell, res harness.CellResult, spans *spanLog) (float64, float64, error) {
	var buf bytes.Buffer
	start := time.Now()
	if err := sweep.WriteMessage(&buf, &sweep.Message{Type: sweep.MsgRun, Seq: 1, Cell: &c}); err != nil {
		return 0, 0, err
	}
	if err := sweep.WriteMessage(&buf, &sweep.Message{Type: sweep.MsgResult, Seq: 1, Result: &res}); err != nil {
		return 0, 0, err
	}
	n := buf.Len()
	br := bufio.NewReader(&buf)
	for i := 0; i < 2; i++ {
		if _, err := sweep.ReadMessage(br); err != nil {
			return 0, 0, err
		}
	}
	d := spans.add("sweep", "wire", c.ID(), start)
	return float64(d.Nanoseconds()) / 1e3, float64(n), nil
}

// gatewayDriveCells picks up to n executed named-workload specs for the
// layer drives, seeded, with the 32/48-thread and the smaller programs
// both represented.
func gatewayDriveCells(mix *jobMix, seed int64, n int) []harness.Cell {
	var big, small []harness.Cell
	for _, s := range mix.order {
		if !s.done || s.body == nil {
			continue
		}
		if s.cell.Threads >= 32 {
			big = append(big, s.cell)
		} else {
			small = append(small, s.cell)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(big), func(i, j int) { big[i], big[j] = big[j], big[i] })
	rng.Shuffle(len(small), func(i, j int) { small[i], small[j] = small[j], small[i] })
	var out []harness.Cell
	for i := 0; len(out) < n && (i < len(big) || i < len(small)); i++ {
		if i < len(big) {
			out = append(out, big[i])
		}
		if i < len(small) && len(out) < n {
			out = append(out, small[i])
		}
	}
	return out
}
