package sweep

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
)

// Pool executes cells on a set of handshaken worker transports speaking
// the sweep wire protocol: Procs spawned local workers (subprocesses via
// SpawnWorkerProc, so simulations run outside the caller's heap and a
// crashing cell kills a worker, not the process) plus any remote
// workers that dial in on the Listener. It is the one cell executor:
// RunCells fans a sweep's uncached cells out to Exec, and the cheetahd
// gateway plugs Exec into QueueConfig.Exec for the life of the daemon.
//
// Its failure policy, for every caller alike:
//   - a cell-level error, a transport failure, a protocol violation or
//     a reply past CellTimeout is retried on the next free worker, and
//     the cell fails after MaxAttempts attempts;
//   - a cell has at most one attempt in flight, and a timed-out
//     transport is closed before the retry, so no stale reply can
//     arrive for a finished cell;
//   - a dead spawned worker is replaced while the respawn budget
//     (MaxRespawns since a worker last returned a result) lasts; TCP
//     workers are never replaced;
//   - once no worker is live or joining and none can arrive, every
//     waiting and future Exec fails naming worker loss.
type Pool struct {
	cfg    Config
	budget int

	// accepting tracks the accept loop and the handshakes of accepted
	// connections, so Close returns only after they have stopped.
	accepting sync.WaitGroup
	logMu     sync.Mutex

	mu sync.Mutex
	// idle holds free workers in release order; waiters are the Execs
	// blocked for one, served first come first served. A closed waiter
	// channel means the pool failed (err says why).
	idle    []*poolWorker
	waiters []chan *poolWorker
	// conns is every open transport, joining, idle or busy, for Close.
	conns         map[io.Closer]struct{}
	live, joining int
	nspawned      int
	// sinceResult counts respawns since a worker last returned a result;
	// the respawn budget bounds it.
	sinceResult int
	stats       Stats
	closed      bool
	err         error
}

// poolWorker is one handshaken transport plus its buffered framing
// state.
type poolWorker struct {
	t   io.ReadWriteCloser
	br  *bufio.Reader
	bw  *bufio.Writer
	seq uint64
	// id numbers workers for span attribution (the tid column of cell
	// spans in the Chrome trace).
	id int
	// local marks workers created via Spawn, the only kind the pool
	// replaces.
	local bool
}

var (
	errWorkersGone = errors.New("sweep: all workers are gone and none can be replaced")
	errPoolClosed  = errors.New("sweep: pool closed")
)

// NewPool spawns cfg.Procs workers, verifies each one's hello handshake
// and, with a Listener, starts accepting remote workers. It fails only
// when no worker handshakes and no listener is set.
func NewPool(cfg Config) (*Pool, error) {
	if cfg.Procs > 0 && cfg.Spawn == nil {
		return nil, fmt.Errorf("sweep: Procs = %d with no Spawn function", cfg.Procs)
	}
	if cfg.Procs <= 0 && cfg.Listener == nil {
		return nil, fmt.Errorf("sweep: no workers: need Procs > 0 or a Listener")
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	p := &Pool{cfg: cfg, budget: cfg.MaxRespawns, conns: map[io.Closer]struct{}{}}
	if p.budget == 0 {
		p.budget = 2 * cfg.Procs
	}

	// Start every process before reading any hello, so they boot in
	// parallel. All joining slots are reserved up front: one early
	// failure must not declare the pool dead while the rest boot.
	p.joining = max(cfg.Procs, 0)
	started := make([]io.ReadWriteCloser, 0, p.joining)
	for range p.joining {
		if t := p.start(); t != nil {
			started = append(started, t)
		}
	}
	for _, t := range started {
		p.join(t, true)
	}
	if cfg.Listener != nil {
		p.accepting.Add(1)
		go p.acceptLoop()
	} else if st, _ := p.state(); st.Workers == 0 {
		p.Close()
		return nil, fmt.Errorf("sweep: no workers could be spawned")
	}
	return p, nil
}

// Exec runs one cell on the next free worker, retrying under the pool's
// failure policy. It is safe for concurrent callers. With no
// CellTimeout it starts no goroutine and no timer.
func (p *Pool) Exec(cell harness.Cell) (harness.CellResult, error) {
	mCellsEnqueued.Inc()
	for attempt := 1; ; attempt++ {
		w, err := p.acquire()
		if err != nil {
			return harness.CellResult{}, err
		}
		res, dead, err := p.run(w, cell)
		if dead {
			p.lose(w, err)
		} else {
			p.release(w, err == nil)
		}
		if err == nil {
			mCellsCompleted.Inc()
			return res, nil
		}
		p.mu.Lock()
		gone, retry := p.err, attempt < p.cfg.MaxAttempts
		if gone == nil && retry {
			p.stats.Retries++
		}
		p.mu.Unlock()
		id := cell.ID()
		if gone != nil {
			return harness.CellResult{}, gone
		}
		if !retry {
			return harness.CellResult{}, fmt.Errorf("sweep: cell %s failed %d times, last: %v", id, attempt, err)
		}
		p.logf("sweep: retrying %s (%v)", id, err)
		mCellsRequeued.Inc()
		if obs.TracingEnabled() {
			obs.Event("sweep", "cell-requeue", 0, map[string]any{
				"cell": id, "attempt": attempt, "cause": err.Error(),
			})
		}
	}
}

// state reports the pool's worker and retry counters (Workers,
// Respawns, Retries; the cell counts belong to RunCells) and how many
// workers are past their handshake.
func (p *Pool) state() (Stats, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats, p.live
}

// Close stops accepting remote workers, asks idle workers to exit,
// closes every other transport (so busy Execs fail promptly) and fails
// waiting and future Exec calls. It is idempotent.
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.failLocked(errPoolClosed)
	idle, conns := p.idle, p.conns
	p.idle, p.conns = nil, nil
	mWorkersLive.Add(-int64(p.live))
	p.live = 0
	p.mu.Unlock()

	if p.cfg.Listener != nil {
		p.cfg.Listener.Close()
	}
	for _, w := range idle {
		if err := WriteMessage(w.bw, &Message{Type: MsgShutdown}); err == nil {
			w.bw.Flush()
		}
	}
	for t := range conns {
		t.Close()
	}
	p.accepting.Wait()
	return nil
}

// acquire takes the next free worker, waiting for one if none is idle.
func (p *Pool) acquire() (*poolWorker, error) {
	p.mu.Lock()
	if p.err != nil {
		defer p.mu.Unlock()
		return nil, p.err
	}
	if len(p.idle) > 0 {
		w := p.idle[0]
		p.idle = p.idle[1:]
		p.mu.Unlock()
		return w, nil
	}
	ch := make(chan *poolWorker, 1)
	p.waiters = append(p.waiters, ch)
	p.mu.Unlock()
	if w, ok := <-ch; ok {
		return w, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return nil, p.err
}

// release returns a worker that survived its assignment; served
// reports that it returned a result, which resets the respawn budget.
func (p *Pool) release(w *poolWorker, served bool) {
	p.mu.Lock()
	if served {
		p.sinceResult = 0
	}
	if p.closed {
		p.mu.Unlock()
		w.t.Close()
		return
	}
	p.handoffLocked(w)
	p.mu.Unlock()
}

// handoffLocked gives w to the longest-waiting Exec, or idles it.
func (p *Pool) handoffLocked(w *poolWorker) {
	if len(p.waiters) > 0 {
		ch := p.waiters[0]
		p.waiters = p.waiters[1:]
		ch <- w
		return
	}
	p.idle = append(p.idle, w)
}

// failLocked fails the pool with err, waking every waiting Exec.
func (p *Pool) failLocked(err error) {
	if p.err != nil {
		return
	}
	p.err = err
	for _, ch := range p.waiters {
		close(ch)
	}
	p.waiters = nil
}

// checkGoneLocked fails the pool once no worker can ever serve again.
func (p *Pool) checkGoneLocked() {
	if p.live == 0 && p.joining == 0 && p.cfg.Listener == nil {
		p.failLocked(errWorkersGone)
	}
}

// lose retires a worker whose transport failed and, while the budget
// lasts, replaces a local one.
func (p *Pool) lose(w *poolWorker, cause error) {
	w.t.Close()
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	delete(p.conns, w.t)
	p.live--
	mWorkersLive.Add(-1)
	respawn := w.local && p.sinceResult < p.budget
	if respawn {
		p.sinceResult++
		p.stats.Respawns++
		p.joining++
	} else {
		p.checkGoneLocked()
	}
	used := p.sinceResult
	p.mu.Unlock()

	p.logf("sweep: worker lost: %v", cause)
	mWorkersLost.Inc()
	obs.Event("sweep", "worker-down", 0, nil)
	if !respawn {
		return
	}
	if t := p.start(); t != nil && p.join(t, true) {
		mWorkersRespawned.Inc()
		obs.Event("sweep", "worker-respawn", 0, nil)
		p.logf("sweep: re-spawned a worker to replace a dead one (%d/%d respawns since the last result)",
			used, p.budget)
	}
}

// start spawns the next local worker transport into a joining slot the
// caller reserved, releasing the slot if Spawn fails.
func (p *Pool) start() io.ReadWriteCloser {
	p.mu.Lock()
	i := p.nspawned
	p.nspawned++
	p.mu.Unlock()
	t, err := p.cfg.Spawn(i)
	if err != nil {
		p.logf("sweep: spawning worker %d: %v", i, err)
		p.mu.Lock()
		p.joining--
		p.checkGoneLocked()
		p.mu.Unlock()
		return nil
	}
	return t
}

// join handshakes a transport in a reserved joining slot and, on
// success, hands the new worker to a waiting Exec or the idle set.
func (p *Pool) join(t io.ReadWriteCloser, local bool) bool {
	p.mu.Lock()
	if p.closed {
		p.joining--
		p.mu.Unlock()
		t.Close()
		return false
	}
	p.conns[t] = struct{}{}
	p.mu.Unlock()

	w := &poolWorker{t: t, br: bufio.NewReader(t), bw: bufio.NewWriter(t), local: local}
	hello, err := ReadMessage(w.br)
	if err == nil && (hello.Type != MsgHello || hello.Proto != ProtoVersion) {
		err = fmt.Errorf("got %q proto %q, want %q", hello.Type, hello.Proto, ProtoVersion)
	}

	p.mu.Lock()
	p.joining--
	if err != nil || p.closed {
		closed := p.closed
		delete(p.conns, t)
		p.checkGoneLocked()
		p.mu.Unlock()
		t.Close()
		if !closed {
			p.logf("sweep: worker lost: handshake: %v", err)
			mWorkersLost.Inc()
		}
		return false
	}
	p.live++
	p.stats.Workers++
	w.id = p.stats.Workers
	mWorkersSpawned.Inc()
	mWorkersLive.Add(1)
	p.handoffLocked(w)
	p.mu.Unlock()
	obs.Event("sweep", "worker-up", 0, nil)
	return true
}

// acceptLoop turns incoming TCP connections into workers until the
// listener closes — which Close does — so no worker is accepted into a
// finished sweep. The resulting net.ErrClosed is the loop's normal
// exit, not worth a log line; any other accept error is real and
// reported.
func (p *Pool) acceptLoop() {
	defer p.accepting.Done()
	for {
		conn, err := p.cfg.Listener.Accept()
		if err != nil {
			if !errors.Is(err, net.ErrClosed) {
				p.logf("sweep: accept: %v", err)
			}
			return
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			conn.Close()
			return
		}
		p.joining++
		p.accepting.Add(1)
		p.mu.Unlock()
		go func() {
			defer p.accepting.Done()
			p.join(conn, false)
		}()
	}
}

// run performs one assignment on w. dead reports that the transport is
// unusable, as opposed to a cell-level error with the worker intact.
func (p *Pool) run(w *poolWorker, cell harness.Cell) (res harness.CellResult, dead bool, err error) {
	start := time.Now()
	w.seq++
	err = WriteMessage(w.bw, &Message{Type: MsgRun, Seq: w.seq, Cell: &cell})
	if err == nil {
		err = w.bw.Flush()
	}
	var m *Message
	if err == nil {
		m, err = p.readReply(w)
	}
	if err == nil && (m.Seq != w.seq || (m.Type != MsgResult && m.Type != MsgError)) {
		err = fmt.Errorf("protocol violation: %q frame seq %d, want reply to seq %d", m.Type, m.Seq, w.seq)
	}
	if obs.TracingEnabled() {
		obs.Span("sweep", "cell", start, time.Now(), w.id, map[string]any{
			"cell": cell.ID(), "ok": err == nil && m.Type == MsgResult,
		})
	}
	switch {
	case err != nil:
		return harness.CellResult{}, true, err
	case m.Type == MsgError:
		return harness.CellResult{}, false, errors.New(m.Error)
	}
	mCellSeconds.Observe(time.Since(start).Seconds())
	return *m.Result, false, nil
}

// readReply reads one reply frame, enforcing the per-cell timeout when
// one is configured. On timeout the transport is closed — which
// unblocks the pending read — before the error returns, so the retry
// can never race a late reply.
func (p *Pool) readReply(w *poolWorker) (*Message, error) {
	if p.cfg.CellTimeout <= 0 {
		return ReadMessage(w.br)
	}
	type reply struct {
		m   *Message
		err error
	}
	ch := make(chan reply, 1)
	go func() {
		m, err := ReadMessage(w.br)
		ch <- reply{m, err}
	}()
	timer := time.NewTimer(p.cfg.CellTimeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.m, r.err
	case <-timer.C:
		w.t.Close()
		<-ch // the closed transport unblocks the reader goroutine
		mCellTimeouts.Inc()
		obs.Event("sweep", "cell-timeout", 0, nil)
		return nil, fmt.Errorf("no reply within the %v cell timeout", p.cfg.CellTimeout)
	}
}

func (p *Pool) logf(format string, args ...any) {
	if p.cfg.Log == nil {
		return
	}
	p.logMu.Lock()
	defer p.logMu.Unlock()
	fmt.Fprintf(p.cfg.Log, format+"\n", args...)
}
