package exec

import "repro/internal/mem"

// SchedSorted is the only non-empty value Config.Sched accepts; it and
// the empty string both select the sorted run queue, the engine's one
// scheduler.
const SchedSorted = "sorted"

// scheduler is the engine's thread-selection structure: a priority queue
// of runnable threads keyed by (vtime, id). The id tie-break makes the
// key total, so the schedule is fully deterministic. There are two
// implementations: sortedQueue, which the batched loop runs on, and
// refSched, the naive oracle behind Config.Unbatched. The interface
// exists so TestSchedulerMatchesReference can run one script against
// both.
//
// The minimum thread stays *in* the scheduler while it runs: the engine
// peeks the minimum (Min), runs it in place until its clock passes the
// second-earliest key (NextKey), then calls FixMin to restore order.
// Only Min's vtime may change between calls.
type scheduler interface {
	// Push inserts a runnable thread keyed by its current (vtime, id).
	Push(th *thread)
	// Len reports how many threads are scheduled.
	Len() int
	// Min returns the thread with the smallest (vtime, id) key without
	// removing it.
	Min() *thread
	// NextKey returns the (vtime, id) key of the second-earliest thread —
	// the point up to which Min may run unchallenged — or
	// (^uint64(0), maxThreadID) when Min is alone.
	NextKey() (uint64, mem.ThreadID)
	// FixMin restores order after Min's vtime has increased in place.
	FixMin()
	// PopMin removes and returns the earliest thread.
	PopMin() *thread
}

// maxThreadID is the NextKey id sentinel when Min is alone: no real
// thread id compares at or above it.
const maxThreadID = mem.ThreadID(1<<31 - 1)

// refSched is the reference scheduler: an unordered slice scanned
// linearly on every query. It is O(n) per call and shares no code with
// sortedQueue, which is what makes it a useful oracle. Like any
// scheduler it orders by the key each thread had when last pushed or
// fixed, so PopMin after an unfixed advance still removes the thread
// that ran.
type refSched struct{ items []refItem }

// refItem is one reference-scheduler entry: the thread and its vtime
// as of the last Push or FixMin.
type refItem struct {
	vt uint64
	th *thread
}

func (r *refSched) Push(th *thread) { r.items = append(r.items, refItem{th.vtime, th}) }
func (r *refSched) Len() int        { return len(r.items) }

// minIndex returns the position of the smallest (vt, id) key, ignoring
// position skip (-1 skips nothing), or -1 when no entry qualifies.
func (r *refSched) minIndex(skip int) int {
	best := -1
	for i, it := range r.items {
		if i == skip {
			continue
		}
		if best < 0 {
			best = i
			continue
		}
		b := r.items[best]
		if it.vt < b.vt || (it.vt == b.vt && it.th.id < b.th.id) {
			best = i
		}
	}
	return best
}

func (r *refSched) Min() *thread { return r.items[r.minIndex(-1)].th }

func (r *refSched) NextKey() (uint64, mem.ThreadID) {
	i := r.minIndex(r.minIndex(-1))
	if i < 0 {
		return ^uint64(0), maxThreadID
	}
	return r.items[i].vt, r.items[i].th.id
}

func (r *refSched) FixMin() {
	it := &r.items[r.minIndex(-1)]
	it.vt = it.th.vtime
}

func (r *refSched) PopMin() *thread {
	i := r.minIndex(-1)
	th := r.items[i].th
	r.items = append(r.items[:i], r.items[i+1:]...)
	return th
}
