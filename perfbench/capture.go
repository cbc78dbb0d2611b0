package main

// Capture and replay: the traced run times the per-access layers (exec,
// cache, pmu, shadow/core, baseline) from outside the program. It runs a
// cell through exec.New itself, with a recording exec.Machine wrapped
// around cache.Sim and a recording exec.Probe in front of the cell's
// real probes, then drives each captured stream into a fresh instance
// of one layer and times that loop alone. Every drive must reproduce
// its source exactly — the same exec.Result, cache.Stats, pmu.Stats,
// report bytes and findings; a drive that diverges is a failure, not a
// number.

import (
	"fmt"
	"reflect"
	"time"

	cheetah "repro"
	"repro/internal/baseline"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/pmu"
	"repro/internal/workload"
)

// machRec is one recorded Machine.Access call. Records are fixed-size
// (24 bytes) so a capture costs 24 bytes per access on the machine side.
type machRec struct {
	addr  mem.Addr
	now   uint64
	lat   uint32
	core  uint16
	write bool
}

// accRec is the probe side of one access (24 bytes). Its address, kind,
// latency and issue time are those of the machine record with the same
// index: while any probe is attached the engine dispatches every access
// to the probes right after the machine call, so the two streams align.
type accRec struct {
	instrs uint64
	thread mem.ThreadID
	// charge is the overhead the real probes returned for the access.
	charge uint32
	size   uint8
}

// lifeKind tags a lifecycle event.
type lifeKind uint8

const (
	evProgramStart lifeKind = iota
	evPhaseStart
	evPhaseEnd
	evThreadStart
	evThreadEnd
	evProgramEnd
)

// lifeEvent is one recorded non-access probe call. They are rare (per
// phase and thread), so they carry their arguments as is.
type lifeEvent struct {
	// at is the number of accesses recorded before the event.
	at     int
	kind   lifeKind
	name   string
	cores  int
	phase  exec.PhaseInfo
	thread exec.ThreadInfo
	total  uint64
	// charge is what the real probes returned from ThreadStart.
	charge uint64
}

// capture is everything recorded from one run.
type capture struct {
	mach []machRec
	acc  []accRec
	life []lifeEvent
}

// access reassembles access i as the probes saw it.
func (c *capture) access(i int) mem.Access {
	m, a := &c.mach[i], &c.acc[i]
	kind := mem.Read
	if m.write {
		kind = mem.Write
	}
	return mem.Access{Addr: m.addr, Thread: a.thread, Kind: kind, Size: a.size, Latency: m.lat, Time: m.now}
}

// recMachine records every access the engine presents to the cache
// simulator, with the latency the simulator returned.
type recMachine struct {
	sim *cache.Sim
	c   *capture
}

func (m *recMachine) Access(core int, addr mem.Addr, write bool, now uint64) uint32 {
	lat := m.sim.Access(core, addr, write, now)
	m.c.mach = append(m.c.mach, machRec{addr: addr, now: now, lat: lat, core: uint16(core), write: write})
	return lat
}

func (m *recMachine) Cores() int { return m.sim.Cores() }

// recProbe forwards every probe call to the real probes and records it
// with the overhead they charged. It is deliberately not an
// exec.AccessPacer, so the engine dispatches every access to it; pacing
// never changes a schedule, only how many no-op calls are skipped.
type recProbe struct {
	inner []exec.Probe
	c     *capture
}

func (p *recProbe) event(ev lifeEvent) {
	ev.at = len(p.c.acc)
	p.c.life = append(p.c.life, ev)
}

func (p *recProbe) ProgramStart(name string, cores int) {
	p.event(lifeEvent{kind: evProgramStart, name: name, cores: cores})
	for _, q := range p.inner {
		q.ProgramStart(name, cores)
	}
}

func (p *recProbe) PhaseStart(ph exec.PhaseInfo) {
	p.event(lifeEvent{kind: evPhaseStart, phase: ph})
	for _, q := range p.inner {
		q.PhaseStart(ph)
	}
}

func (p *recProbe) PhaseEnd(ph exec.PhaseInfo) {
	p.event(lifeEvent{kind: evPhaseEnd, phase: ph})
	for _, q := range p.inner {
		q.PhaseEnd(ph)
	}
}

func (p *recProbe) ThreadStart(th exec.ThreadInfo) uint64 {
	var charge uint64
	for _, q := range p.inner {
		charge += q.ThreadStart(th)
	}
	p.event(lifeEvent{kind: evThreadStart, thread: th, charge: charge})
	return charge
}

func (p *recProbe) ThreadEnd(th exec.ThreadInfo) {
	p.event(lifeEvent{kind: evThreadEnd, thread: th})
	for _, q := range p.inner {
		q.ThreadEnd(th)
	}
}

func (p *recProbe) Access(a mem.Access, instrs uint64) uint64 {
	var charge uint64
	for _, q := range p.inner {
		charge += q.Access(a, instrs)
	}
	p.c.acc = append(p.c.acc, accRec{instrs: instrs, thread: a.Thread, charge: uint32(charge), size: a.Size})
	return charge
}

func (p *recProbe) ProgramEnd(total uint64) {
	p.event(lifeEvent{kind: evProgramEnd, total: total})
	for _, q := range p.inner {
		q.ProgramEnd(total)
	}
}

// replayMachine answers the engine with the recorded latencies, counting
// every call that differs from the recording.
type replayMachine struct {
	c        *capture
	cores    int
	i        int
	diverged int
}

func (m *replayMachine) Access(core int, addr mem.Addr, write bool, now uint64) uint32 {
	if m.i >= len(m.c.mach) {
		m.diverged++
		return 0
	}
	r := &m.c.mach[m.i]
	m.i++
	if int(r.core) != core || r.addr != addr || r.write != write || r.now != now {
		m.diverged++
	}
	return r.lat
}

func (m *replayMachine) Cores() int { return m.cores }

// replayProbe stands in for probes that take every access (Predator,
// Sheriff) during the exec drive: it charges the recorded overheads and
// counts calls that differ from the recording.
type replayProbe struct {
	exec.BaseProbe
	c        *capture
	i        int
	threads  int
	diverged int
}

func (p *replayProbe) ThreadStart(th exec.ThreadInfo) uint64 {
	for ; p.threads < len(p.c.life); p.threads++ {
		if ev := &p.c.life[p.threads]; ev.kind == evThreadStart {
			p.threads++
			if ev.thread != th {
				p.diverged++
			}
			return ev.charge
		}
	}
	p.diverged++
	return 0
}

func (p *replayProbe) Access(a mem.Access, instrs uint64) uint64 {
	if p.i >= len(p.c.acc) {
		p.diverged++
		return 0
	}
	r := &p.c.acc[p.i]
	p.i++
	if r.instrs != instrs || r.thread != a.Thread || r.size != a.Size {
		p.diverged++
	}
	return uint64(r.charge)
}

// pacedProbe stands in for probes that are all exec.AccessPacers (the
// profiler's PMU and the profiler itself): it paces the engine to the
// accesses the real probes charged, so the engine skips dispatch where
// the real run skipped it and the drive times the engine's paced path.
type pacedProbe struct {
	replayProbe
	phase int
	// charged holds, per (thread, phase), the accesses the real probes
	// charged, in order; instruction counts restart with each phase.
	charged map[threadPhase][]chargedAccess
	next    map[threadPhase]int
}

type threadPhase struct {
	thread mem.ThreadID
	phase  int
}

type chargedAccess struct {
	instrs uint64
	charge uint32
}

func newPacedProbe(c *capture) *pacedProbe {
	p := &pacedProbe{
		replayProbe: replayProbe{c: c},
		charged:     map[threadPhase][]chargedAccess{},
		next:        map[threadPhase]int{},
	}
	phase, li := -1, 0
	for i := range c.acc {
		for ; li < len(c.life) && c.life[li].at <= i; li++ {
			if ev := &c.life[li]; ev.kind == evPhaseStart {
				phase = ev.phase.Index
			}
		}
		if a := &c.acc[i]; a.charge != 0 {
			k := threadPhase{a.thread, phase}
			p.charged[k] = append(p.charged[k], chargedAccess{a.instrs, a.charge})
		}
	}
	return p
}

func (p *pacedProbe) PhaseStart(ph exec.PhaseInfo) { p.phase = ph.Index }

// AccessPace implements exec.AccessPacer: nothing happens before the
// thread's next charged access.
func (p *pacedProbe) AccessPace(id mem.ThreadID) (instrPace, cyclePace uint64) {
	k := threadPhase{id, p.phase}
	if q := p.charged[k]; p.next[k] < len(q) {
		return q[p.next[k]].instrs, ^uint64(0)
	}
	return ^uint64(0), ^uint64(0)
}

func (p *pacedProbe) Access(a mem.Access, instrs uint64) uint64 {
	k := threadPhase{a.Thread, p.phase}
	q := p.charged[k]
	if p.next[k] >= len(q) || instrs < q[p.next[k]].instrs {
		return 0
	}
	ca := q[p.next[k]]
	if instrs > ca.instrs {
		p.diverged++ // the engine went past a charged access
	}
	p.next[k]++
	return uint64(ca.charge)
}

// consumed reports whether every charged access was charged, in order.
func (p *pacedProbe) consumed() bool {
	for k, q := range p.charged {
		if p.next[k] != len(q) {
			return false
		}
	}
	return p.diverged == 0
}

// allPacers reports whether every probe lets the engine skip dispatch.
func allPacers(probes []exec.Probe) bool {
	for _, p := range probes {
		if _, ok := p.(exec.AccessPacer); !ok {
			return false
		}
	}
	return true
}

// deliver replays one lifecycle event into a probe, returning what the
// probe charged.
func deliver(p exec.Probe, ev *lifeEvent) uint64 {
	switch ev.kind {
	case evProgramStart:
		p.ProgramStart(ev.name, ev.cores)
	case evPhaseStart:
		p.PhaseStart(ev.phase)
	case evPhaseEnd:
		p.PhaseEnd(ev.phase)
	case evThreadStart:
		return p.ThreadStart(ev.thread)
	case evThreadEnd:
		p.ThreadEnd(ev.thread)
	case evProgramEnd:
		p.ProgramEnd(ev.total)
	}
	return 0
}

// driveProbe feeds the whole recorded probe stream into p, returning the
// busy time and the number of calls whose charge differs from the
// recording.
func driveProbe(p exec.Probe, c *capture, before func(i int)) (time.Duration, int) {
	bad, li := 0, 0
	start := time.Now()
	for i := range c.acc {
		for ; li < len(c.life) && c.life[li].at <= i; li++ {
			if ev := &c.life[li]; deliver(p, ev) != ev.charge {
				bad++
			}
		}
		if before != nil {
			before(i)
		}
		if p.Access(c.access(i), c.acc[i].instrs) != uint64(c.acc[i].charge) {
			bad++
		}
	}
	for ; li < len(c.life); li++ {
		if ev := &c.life[li]; deliver(p, ev) != ev.charge {
			bad++
		}
	}
	return time.Since(start), bad
}

// sampleSink is the pmu.Handler of the pmu drive: it notes which
// accesses the PMU delivered as samples.
type sampleSink struct {
	cur     int
	samples []uint32
}

func (s *sampleSink) Sample(mem.Access, uint64) { s.samples = append(s.samples, uint32(s.cur)) }

// layerTimes accumulates drive results over a workload's drive cells.
type layerTimes struct {
	execNS, execAcc     float64
	exec48NS, exec48Acc float64
	// execKind splits execNS/execAcc by cell kind: the engine's cost per
	// access depends on whether the cell's probes let it skip dispatch.
	execKind          map[string][2]float64
	cacheNS, cacheAcc float64
	invalidations     uint64
	dirLines          uint64
	pmuNS, pmuAcc     float64
	samples           uint64
	coreNS            float64
	coreSamples       float64
	coreAcc           float64
	reportMS          []float64
	shadowLines       uint64
	instances         uint64
	predNS, predAcc   float64
	sherNS, sherAcc   float64
}

func newLayerTimes() *layerTimes { return &layerTimes{execKind: map[string][2]float64{}} }

// ratio returns x/n, or 0 when n is 0 (nothing was driven or counted).
func ratio(x, n float64) float64 {
	if n == 0 {
		return 0
	}
	return x / n
}

// cellSystem builds the system and program of a cell exactly as
// harness.RunCell does.
func cellSystem(c harness.Cell) (*cheetah.System, exec.Program, error) {
	w, ok := workload.ByName(c.Workload)
	if !ok {
		return nil, exec.Program{}, fmt.Errorf("unknown workload %q", c.Workload)
	}
	ccfg := cheetah.Config{Cores: c.Cores, Engine: exec.Config{Sched: c.Sched}}
	if c.Machine != "" {
		m, ok := machine.Preset(c.Machine)
		if !ok {
			return nil, exec.Program{}, fmt.Errorf("unknown machine preset %q", c.Machine)
		}
		ccfg.Machine = m
	}
	sys := cheetah.New(ccfg)
	return sys, w.Build(sys, workload.Params{Threads: c.Threads, Scale: c.Scale, Fixed: c.Fixed}), nil
}

// engineConfig is the engine configuration cheetah.New gives a cell.
func engineConfig(c harness.Cell) exec.Config {
	cfg := exec.DefaultConfig()
	cfg.Sched = c.Sched
	return cfg
}

// driveCell captures one cell, checks the capture against
// harness.RunCell, and drives every layer the cell's kind exercises.
// Rule cells are not driven: their probes are internal to the harness.
func driveCell(c harness.Cell, lt *layerTimes, t *tally, spans *spanLog) error {
	want, err := harness.RunCell(c)
	if err != nil {
		return fmt.Errorf("cell %s: %w", c.ID(), err)
	}
	sys, prog, err := cellSystem(c)
	if err != nil {
		return err
	}
	var (
		probes []exec.Probe
		prof   *core.Profiler
		pred   *baseline.Predator
		sher   *baseline.Sheriff
	)
	switch c.Kind {
	case harness.KindNative:
	case harness.KindProfiled:
		prof = sys.NewProfiler(cheetah.ProfileOptions{PMU: c.PMU})
		probes = prof.Probes()
	case harness.KindPredator:
		pred = baseline.NewPredator(baseline.DefaultPredatorConfig(), sys.Heap(), sys.Globals())
		probes = []exec.Probe{pred}
	case harness.KindSheriff:
		sher = baseline.NewSheriff(baseline.DefaultSheriffConfig(), sys.Heap(), sys.Globals())
		probes = []exec.Probe{sher}
	default:
		return fmt.Errorf("cell %s: kind %q is not driven", c.ID(), c.Kind)
	}

	// Source run.
	capt := &capture{}
	sim := cache.New(cache.ConfigFor(sys.Model()))
	var eng *exec.Engine
	if len(probes) > 0 {
		eng = exec.New(&recMachine{sim: sim, c: capt}, engineConfig(c), &recProbe{inner: probes, c: capt})
	} else {
		eng = exec.New(&recMachine{sim: sim, c: capt}, engineConfig(c))
	}
	res := eng.Run(prog)
	id := c.ID()
	if !t.check(reflect.DeepEqual(res, want.Result), "capture of %s: engine result differs from harness.RunCell", id) {
		return nil
	}
	var report string
	switch {
	case prof != nil:
		report = prof.Report().Format()
		if !t.check(want.Report != nil && report == want.Report.Format(), "capture of %s: report differs from harness.RunCell", id) {
			return nil
		}
	case pred != nil:
		if !t.check(reflect.DeepEqual(pred.Findings(), want.Findings), "capture of %s: predator findings differ", id) {
			return nil
		}
	case sher != nil:
		if !t.check(reflect.DeepEqual(sher.Findings(), want.Findings), "capture of %s: sheriff findings differ", id) {
			return nil
		}
	}
	accesses := float64(len(capt.mach))

	// exec: the engine against the recorded machine (and recorded probe
	// charges), on a freshly built copy of the program.
	_, prog2, err := cellSystem(c)
	if err != nil {
		return err
	}
	// Probes that all pace get a pacing stand-in, the others one that
	// takes every access, so the engine runs the path the cell ran.
	rm := &replayMachine{c: capt, cores: sim.Cores()}
	probeOK := func() bool { return true }
	switch {
	case len(probes) == 0:
		eng = exec.New(rm, engineConfig(c))
	case allPacers(probes):
		pp := newPacedProbe(capt)
		eng = exec.New(rm, engineConfig(c), pp)
		probeOK = pp.consumed
	default:
		rp := &replayProbe{c: capt}
		eng = exec.New(rm, engineConfig(c), rp)
		probeOK = func() bool { return rp.diverged == 0 && rp.i == len(capt.acc) }
	}
	start := time.Now()
	res2 := eng.Run(prog2)
	ns := float64(spans.add("exec", "drive", id, start).Nanoseconds())
	if t.check(rm.diverged == 0 && rm.i == len(capt.mach) && probeOK() && reflect.DeepEqual(res2, res),
		"exec drive of %s diverged (%d machine calls)", id, rm.diverged) {
		if c.Threads >= 32 {
			lt.exec48NS += ns
			lt.exec48Acc += accesses
		} else {
			lt.execNS += ns
			lt.execAcc += accesses
			k := lt.execKind[c.Kind]
			lt.execKind[c.Kind] = [2]float64{k[0] + ns, k[1] + accesses}
		}
	}

	// cache: the recorded (core, addr, write, now) stream into a fresh
	// simulator.
	sim2 := cache.New(cache.ConfigFor(sys.Model()))
	bad := 0
	start = time.Now()
	for i := range capt.mach {
		r := &capt.mach[i]
		if sim2.Access(int(r.core), r.addr, r.write, r.now) != r.lat {
			bad++
		}
	}
	ns = float64(spans.add("cache", "drive", id, start).Nanoseconds())
	if t.check(bad == 0 && sim2.Stats() == sim.Stats() && sim2.DirLines() == sim.DirLines(),
		"cache drive of %s diverged (%d latencies)", id, bad) {
		lt.cacheNS += ns
		lt.cacheAcc += accesses
		lt.invalidations += sim.Stats().Invalidations
		lt.dirLines += uint64(sim.DirLines())
	}

	switch {
	case prof != nil:
		// pmu: every access into a fresh PMU; the sink keeps the samples
		// for the detector drive.
		sink := &sampleSink{}
		p := pmu.New(c.PMU, sink)
		d, bad := driveProbe(p, capt, func(i int) { sink.cur = i })
		spans.record("pmu", "drive", id, time.Now().Add(-d), d)
		if !t.check(bad == 0 && p.Stats() == prof.PMUStats(), "pmu drive of %s diverged (%d charges)", id, bad) {
			return nil
		}
		lt.pmuNS += float64(d.Nanoseconds())
		lt.pmuAcc += accesses
		lt.samples += p.Stats().Delivered

		// shadow + core: the samples into a fresh profiler, then the
		// report.
		prof2 := sys.NewProfiler(cheetah.ProfileOptions{PMU: c.PMU})
		li := 0
		start := time.Now()
		for _, j := range sink.samples {
			for ; li < len(capt.life) && capt.life[li].at <= int(j); li++ {
				deliver(prof2, &capt.life[li])
			}
			prof2.Sample(capt.access(int(j)), capt.acc[j].instrs)
		}
		for ; li < len(capt.life); li++ {
			deliver(prof2, &capt.life[li])
		}
		sampleNS := float64(spans.add("core", "drive", id, start).Nanoseconds())
		start = time.Now()
		rep := prof2.Report()
		reportMS := float64(spans.add("core", "report", id, start).Nanoseconds()) / 1e6
		if t.check(rep.Format() == report, "detector drive of %s: report differs", id) {
			lt.coreNS += sampleNS
			lt.coreSamples += float64(len(sink.samples))
			lt.coreAcc += accesses
			lt.reportMS = append(lt.reportMS, reportMS)
			lt.shadowLines += uint64(prof2.Shadow().Len())
			lt.instances += uint64(len(rep.Instances))
		}
	case pred != nil:
		det := baseline.NewPredator(baseline.DefaultPredatorConfig(), sys.Heap(), sys.Globals())
		d, bad := driveProbe(det, capt, nil)
		spans.record("baseline", "predator", id, time.Now().Add(-d), d)
		if t.check(bad == 0 && reflect.DeepEqual(det.Findings(), want.Findings), "predator drive of %s diverged", id) {
			lt.predNS += float64(d.Nanoseconds())
			lt.predAcc += accesses
		}
	case sher != nil:
		det := baseline.NewSheriff(baseline.DefaultSheriffConfig(), sys.Heap(), sys.Globals())
		d, bad := driveProbe(det, capt, nil)
		spans.record("baseline", "sheriff", id, time.Now().Add(-d), d)
		if t.check(bad == 0 && reflect.DeepEqual(det.Findings(), want.Findings), "sheriff drive of %s diverged", id) {
			lt.sherNS += float64(d.Nanoseconds())
			lt.sherAcc += accesses
		}
	}
	return nil
}

// accessLayers reports the per-access layers from the drives. Layers a
// workload's drive cells do not exercise read 0.
func accessLayers(lt *layerTimes) map[string]metric {
	return map[string]metric{
		"exec.ns_per_access":              {ratio(lt.execNS, lt.execAcc), "ns"},
		"exec.ns_per_access.t48":          {ratio(lt.exec48NS, lt.exec48Acc), "ns"},
		"exec.accesses":                   {lt.execAcc + lt.exec48Acc, "count"},
		"cache.ns_per_access":             {ratio(lt.cacheNS, lt.cacheAcc), "ns"},
		"cache.invalidations":             {float64(lt.invalidations), "count"},
		"cache.dir_lines":                 {float64(lt.dirLines), "count"},
		"pmu.ns_per_access":               {ratio(lt.pmuNS, lt.pmuAcc), "ns"},
		"pmu.samples":                     {float64(lt.samples), "count"},
		"core.ns_per_sample":              {ratio(lt.coreNS, lt.coreSamples), "ns"},
		"core.report_ms":                  {median(lt.reportMS), "ms"},
		"shadow.lines":                    {float64(lt.shadowLines), "count"},
		"core.instances":                  {float64(lt.instances), "count"},
		"baseline.predator_ns_per_access": {ratio(lt.predNS, lt.predAcc), "ns"},
		"baseline.sheriff_ns_per_access":  {ratio(lt.sherNS, lt.sherAcc), "ns"},
	}
}

// kindCost is the drive-measured host cost of one simulated access in a
// cell of the given kind: engine plus simulator, plus the kind's probes.
func (lt *layerTimes) kindCost(kind string, threads int) float64 {
	execNS := ratio(lt.execNS, lt.execAcc)
	if k, ok := lt.execKind[kind]; ok {
		execNS = ratio(k[0], k[1])
	}
	if threads >= 32 && lt.exec48Acc > 0 {
		execNS = ratio(lt.exec48NS, lt.exec48Acc)
	}
	ns := execNS + ratio(lt.cacheNS, lt.cacheAcc)
	switch kind {
	case harness.KindProfiled:
		ns += ratio(lt.pmuNS, lt.pmuAcc) + ratio(lt.coreNS+sum(lt.reportMS)*1e6, lt.coreAcc)
	case harness.KindPredator:
		ns += ratio(lt.predNS, lt.predAcc)
	case harness.KindSheriff:
		ns += ratio(lt.sherNS, lt.sherAcc)
	}
	return ns
}
