// Package engine provides the concurrency machinery behind the public
// exsample.Engine: a bounded worker pool for black-box detector invocations
// and a fair-share round scheduler that multiplexes many simultaneous
// distinct-object queries onto that pool. Run drives the same round for one
// query on the caller's goroutine.
//
// The package is deliberately ignorant of datasets, samplers and reports —
// queries are an interface, detector outputs are opaque. The scheduling
// contract is the one the paper's cost model demands: detector calls are the
// expensive part and may run concurrently (the detector is a stateless
// black box, §II-A); everything that touches per-query state (Thompson
// bookkeeping, the discriminator, report accumulation) runs on the single
// scheduler goroutine, in propose order, so a query behaves exactly as if it
// were running alone.
package engine

import "sync"

// Pool is a bounded pool of persistent workers executing opaque tasks. One
// pool is shared by every query of an Engine, bounding total detector
// concurrency no matter how many queries are in flight. A one-worker pool
// starts no goroutine: it runs its tasks in order on the calling goroutine.
type Pool struct {
	tasks   chan task // nil for a one-worker pool
	workers int
	wg      sync.WaitGroup
	once    sync.Once
}

// task pairs a unit of work with the batch-completion group it reports to.
// It travels through the task channel by value, so dispatching a batch
// allocates nothing beyond whatever the caller's wait group costs.
type task struct {
	fn   func()
	done *sync.WaitGroup
}

// NewPool starts a pool with the given number of workers (minimum 1).
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{workers: workers}
	if workers == 1 {
		return p
	}
	p.tasks = make(chan task)
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.wg.Done()
			for t := range p.tasks {
				t.fn()
				t.done.Done()
			}
		}()
	}
	return p
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return p.workers }

// DoWith runs every task on the pool and returns when all have completed.
// At most Workers tasks run at any moment; excess tasks queue. The caller
// supplies the wait group, so a steady-state caller (the engine's round
// scheduler) reuses one across rounds instead of heap-allocating one per
// round; the group must be otherwise unused. DoWith adds, dispatches and
// waits.
func (p *Pool) DoWith(wg *sync.WaitGroup, tasks []func()) {
	if p.tasks == nil {
		for _, fn := range tasks {
			fn()
		}
		return
	}
	if len(tasks) == 0 {
		return
	}
	wg.Add(len(tasks))
	for _, fn := range tasks {
		p.tasks <- task{fn: fn, done: wg}
	}
	wg.Wait()
}

// Close shuts the workers down. It must not be called concurrently with
// DoWith; it is idempotent.
func (p *Pool) Close() {
	if p.tasks == nil {
		return
	}
	p.once.Do(func() { close(p.tasks) })
	p.wg.Wait()
}
