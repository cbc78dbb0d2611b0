package sweep

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/harness"
)

// fakeCell builds a syntactically valid cell for tests whose workers
// never execute anything.
func fakeCell(name string) harness.Cell {
	return harness.Cell{Kind: harness.KindNative, Workload: name, Threads: 1, Cores: 1, Scale: 1}
}

// pipeWorker spawns an in-process worker over a net.Pipe — the real
// wire protocol without subprocess or TCP overhead.
func pipeWorker(int) (io.ReadWriteCloser, error) {
	coordSide, workerSide := net.Pipe()
	go Serve(workerSide, workerSide)
	return coordSide, nil
}

// TestRunCellsDuplicateCellsNoHang: a cell list containing the same
// cell twice must complete and yield one result per distinct ID.
// Before deduplication the completion counter included the duplicate,
// but only one copy could ever finish — the sweep hung forever.
func TestRunCellsDuplicateCellsNoHang(t *testing.T) {
	t.Parallel()
	cells := harness.EnumerateCells(testConfig(t))[:3]
	withDup := append([]harness.Cell{cells[0]}, cells...)

	type out struct {
		results map[string]harness.CellResult
		stats   Stats
		err     error
	}
	done := make(chan out, 1)
	go func() {
		results, stats, err := RunCells(Config{Procs: 1, Spawn: pipeWorker}, withDup)
		done <- out{results, stats, err}
	}()
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatalf("RunCells with duplicate cells: %v", o.err)
		}
		if o.stats.Cells != 3 {
			t.Errorf("stats.Cells = %d, want 3 distinct", o.stats.Cells)
		}
		if len(o.results) != 3 {
			t.Errorf("got %d results, want 3", len(o.results))
		}
		for _, c := range cells {
			if _, ok := o.results[c.ID()]; !ok {
				t.Errorf("no result for cell %s", c.ID())
			}
		}
	case <-time.After(120 * time.Second):
		t.Fatal("RunCells hung on a duplicated cell")
	}
}

// helloWorker starts an in-process worker over a net.Pipe that sends
// its hello and then hands the stream to serve, closing it when serve
// returns.
func helloWorker(serve func(br *bufio.Reader, bw *bufio.Writer)) io.ReadWriteCloser {
	coordSide, workerSide := net.Pipe()
	go func() {
		defer workerSide.Close()
		br, bw := bufio.NewReader(workerSide), bufio.NewWriter(workerSide)
		if err := WriteMessage(bw, &Message{Type: MsgHello, Proto: ProtoVersion}); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
		serve(br, bw)
	}()
	return coordSide
}

// execWithin runs one Exec and fails the test if it does not return
// within d.
func execWithin(t *testing.T, p *Pool, cell harness.Cell, d time.Duration) error {
	t.Helper()
	errc := make(chan error, 1)
	go func() {
		_, err := p.Exec(cell)
		errc <- err
	}()
	select {
	case err := <-errc:
		return err
	case <-time.After(d):
		t.Fatalf("Exec still blocked after %v", d)
		return nil
	}
}

// TestPoolNoWorkerLeftFailsExec: a one-worker pool whose worker dies on
// its first assignment, and whose every respawn fails, has no worker
// left and can get none. Every Exec — the one that lost the worker, one
// already waiting for a free worker when it died, and any later one —
// must fail naming worker loss instead of blocking forever.
func TestPoolNoWorkerLeftFailsExec(t *testing.T) {
	t.Parallel()
	cell := fakeCell("x")
	// dyingPool's first worker signals assigned when its first cell
	// arrives, waits for die to close, then drops dead; respawns fail.
	dyingPool := func(t *testing.T, assigned, die chan struct{}) *Pool {
		p, err := NewPool(Config{Procs: 1, Spawn: func(i int) (io.ReadWriteCloser, error) {
			if i > 0 {
				return nil, fmt.Errorf("forced respawn failure")
			}
			return helloWorker(func(br *bufio.Reader, _ *bufio.Writer) {
				ReadMessage(br)
				close(assigned)
				<-die
			}), nil
		}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		return p
	}

	t.Run("later", func(t *testing.T) {
		t.Parallel()
		die := make(chan struct{})
		close(die)
		p := dyingPool(t, make(chan struct{}), die)
		for i := 1; i <= 2; i++ {
			if err := execWithin(t, p, cell, 30*time.Second); !errors.Is(err, errWorkersGone) {
				t.Errorf("Exec %d: err = %v, want %v", i, err, errWorkersGone)
			}
		}
	})

	t.Run("waiting", func(t *testing.T) {
		t.Parallel()
		assigned, die := make(chan struct{}), make(chan struct{})
		p := dyingPool(t, assigned, die)
		errc := make(chan error, 2)
		exec := func() {
			_, err := p.Exec(cell)
			errc <- err
		}
		go exec()
		<-assigned
		go exec()
		// Let the second Exec queue for the busy worker before it dies.
		for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
			p.mu.Lock()
			waiting := len(p.waiters)
			p.mu.Unlock()
			if waiting == 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("second Exec never waited for a worker")
			}
		}
		close(die)
		for i := 1; i <= 2; i++ {
			select {
			case err := <-errc:
				if !errors.Is(err, errWorkersGone) {
					t.Errorf("Exec: err = %v, want %v", err, errWorkersGone)
				}
			case <-time.After(30 * time.Second):
				t.Fatalf("%d of 2 Execs still blocked 30s after the last worker died", 3-i)
			}
		}
	})
}

// TestPoolRespawnBudgetRenewsOnResult pins the respawn rule for a
// long-lived pool: the budget bounds respawns since a worker last
// returned a result, not over the pool's lifetime. Every worker here
// serves one cell and dies holding its next, so each of cells 2..6
// costs one respawn; the default budget of 2 for one proc still carries
// all six, where a lifetime budget would fail at the fourth cell.
func TestPoolRespawnBudgetRenewsOnResult(t *testing.T) {
	t.Parallel()
	cell := harness.EnumerateCells(testConfig(t))[0]
	res, err := harness.RunCell(cell)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPool(Config{Procs: 1, Spawn: func(int) (io.ReadWriteCloser, error) {
		return helloWorker(func(br *bufio.Reader, bw *bufio.Writer) {
			m, err := ReadMessage(br)
			if err != nil {
				return
			}
			if err := WriteMessage(bw, &Message{Type: MsgResult, Seq: m.Seq, Result: &res}); err != nil {
				return
			}
			bw.Flush()
			ReadMessage(br) // dies holding its second assignment
		}), nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 1; i <= 6; i++ {
		if err := execWithin(t, p, cell, 60*time.Second); err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
	}
	if s, _ := p.state(); s.Respawns != 5 || s.Workers != 6 {
		t.Errorf("Respawns = %d, Workers = %d, want 5 and 6", s.Respawns, s.Workers)
	}
}
