// Persistent worker pool for a daemon that fields profiling jobs for
// days: a fixed set of workers over a bounded FIFO queue, with an
// idempotent, context-aware shutdown that a server can call from a signal
// handler without leaking workers — even when a job is still running and
// the shutdown context has already expired.
package experiments

import (
	"context"
	"errors"
	"runtime"
	"sync"
)

// Typed pool errors. Submitters branch on these: a full queue is
// backpressure (retry later), a closed pool is a lifecycle fact (stop
// submitting).
var (
	// ErrPoolClosed reports a submit after Shutdown began.
	ErrPoolClosed = errors.New("experiments: pool closed")
	// ErrPoolFull reports a submit that found the bounded queue full.
	ErrPoolFull = errors.New("experiments: pool queue full")
)

// Pool is a fixed-size worker pool over a bounded FIFO job queue. Jobs are
// dispatched in submission order (the queue is a channel), so result
// ordering is deterministic for callers that care — each job writes to its
// own slot.
type Pool struct {
	jobs    chan func()
	done    chan struct{} // closed once every worker has exited
	workers int

	mu     sync.Mutex
	closed bool
}

// NewPool starts workers goroutines over a queue holding up to queue
// pending jobs (workers < 1 means GOMAXPROCS; queue < 0 means 0, i.e.
// hand-off only).
func NewPool(workers, queue int) *Pool {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if queue < 0 {
		queue = 0
	}
	p := &Pool{jobs: make(chan func(), queue), done: make(chan struct{}), workers: workers}
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			for fn := range p.jobs {
				fn()
			}
		}()
	}
	go func() {
		wg.Wait()
		close(p.done)
	}()
	return p
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.workers }

// QueueCap returns the job queue's capacity.
func (p *Pool) QueueCap() int { return cap(p.jobs) }

// QueueLen returns the number of jobs queued and not yet picked up.
func (p *Pool) QueueLen() int { return len(p.jobs) }

// TrySubmit enqueues fn without blocking. It returns ErrPoolClosed once
// Shutdown has begun and ErrPoolFull when the bounded queue is at
// capacity — never both silently dropping the job.
func (p *Pool) TrySubmit(fn func()) error {
	// The lock is held across the send so a concurrent Shutdown cannot
	// close the channel between the check and the enqueue.
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrPoolClosed
	}
	select {
	case p.jobs <- fn:
		return nil
	default:
		return ErrPoolFull
	}
}

// Shutdown stops intake and waits for every queued and running job to
// finish. It is idempotent — any number of callers, concurrently or in
// sequence, each get the same answer — and context-aware: when ctx expires
// first, Shutdown returns ctx.Err() immediately but the workers keep
// draining in the background and exit on their own, so an impatient caller
// never leaks them. A later Shutdown call with a fresh context resumes
// waiting on the same drain.
func (p *Pool) Shutdown(ctx context.Context) error {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.jobs)
	}
	p.mu.Unlock()
	select {
	case <-p.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Done exposes the drained signal: the channel closes once every worker
// has exited. Servers select on it next to their own shutdown context.
func (p *Pool) Done() <-chan struct{} { return p.done }
