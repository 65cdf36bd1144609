// Package shard provides the worker pool behind within-run parallelism:
// a fixed set of workers that the simulation's single event-loop
// goroutine forks bounded parallel sections onto (reception verdicts,
// beacon construction, mobility reindexing, anti-entropy diffs), then
// joins before committing any state.
//
// The pool never owns simulation state and never decides commit order —
// parallel sections compute pure read-only verdicts into caller-indexed
// slots, and every mutation happens on the event-loop goroutine in the
// exact order the serial engine would use. That discipline is what keeps
// sharded runs byte-identical to serial ones (see docs/ARCHITECTURE.md).
package shard

import (
	"sync"
	"sync/atomic"
)

// Pool is a fixed-size fork-join worker pool. A Pool with one worker
// degenerates to inline serial execution and starts no goroutines.
//
// Run may only be called from one goroutine at a time (the simulation
// event loop); the workers themselves may not call it.
type Pool struct {
	workers int
	tasks   chan func()
	closed  atomic.Bool
}

// NewPool returns a pool with the given number of workers (values < 1
// are treated as 1). workers-1 goroutines are started; the caller of Run
// acts as the final worker.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{workers: workers}
	if workers > 1 {
		// One slot per helper: a fork never blocks handing out work.
		p.tasks = make(chan func(), workers-1)
		for i := 0; i < workers-1; i++ {
			go p.worker()
		}
	}
	return p
}

// Workers returns the pool size (≥ 1).
func (p *Pool) Workers() int { return p.workers }

func (p *Pool) worker() {
	for fn := range p.tasks {
		fn()
	}
}

// Run executes fn(0..n-1) across the pool and returns when every call
// has finished (a fork-join barrier). Work is claimed by atomic counter,
// so uneven shards balance across workers; the caller participates, so a
// single-worker pool runs everything inline. fn must not call back into
// the pool.
func (p *Pool) Run(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if p.workers == 1 || n == 1 || p.closed.Load() {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	body := func() {
		defer wg.Done()
		for {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			fn(i)
		}
	}
	helpers := p.workers - 1
	if helpers > n-1 {
		helpers = n - 1
	}
	wg.Add(helpers)
	for i := 0; i < helpers; i++ {
		p.tasks <- body
	}
	for {
		i := int(next.Add(1) - 1)
		if i >= n {
			break
		}
		fn(i)
	}
	wg.Wait()
}

// Close releases the workers. After Close, Run executes inline; Close
// is idempotent.
func (p *Pool) Close() {
	if p.closed.CompareAndSwap(false, true) && p.tasks != nil {
		close(p.tasks)
	}
}
