package core

import (
	"context"
	"sync"

	"seccloud/internal/obs"
)

// pool is the bounded worker pool behind the parallel audit pipeline. It
// fans independent tasks — challenge rounds, per-index checks — across at
// most `workers` goroutines beyond the caller's own, so network round
// trips overlap with CPU-side verification instead of alternating with it.
//
// The scheduling rule is "spawn if a slot is free, otherwise run inline in
// the submitting goroutine". Inline execution makes nested forEach calls
// (a round task fanning out its per-item checks) deadlock-free by
// construction: a task that cannot get a slot still makes progress on the
// goroutine that already has one.
//
// Callers are responsible for determinism: tasks write only to their own
// indexed slots and all shared state (reports, samples, RNG draws) is
// read or assembled sequentially outside the pool.
type pool struct {
	sem chan struct{} // nil = sequential
	// inflight, when set, gauges how many tasks hold a pool slot at any
	// instant (audit_pool_inflight). Inline tasks are not counted: they
	// run on the submitting goroutine, which already owns its slot.
	inflight *obs.Gauge
}

// newPool builds a pool running at most `workers` tasks concurrently
// (including the submitting goroutine). workers <= 1 yields a sequential
// pool whose forEach degenerates to a plain loop.
func newPool(workers int) *pool {
	if workers <= 1 {
		return &pool{}
	}
	return &pool{sem: make(chan struct{}, workers-1)}
}

// size is the pool's worker budget, the submitting goroutine included:
// the resolved cfg.Workers / Agency.workers setting, at least 1.
func (p *pool) size() int { return cap(p.sem) + 1 }

// forEach runs fn(0) … fn(n-1) across the pool and waits for all of them,
// skipping tasks not yet dispatched once ctx is cancelled — an aborted
// audit drains promptly instead of burning CPU on queued checks whose
// report will be discarded (or whose deadline has already passed). A nil
// ctx never cancels. Callers that need a verdict for every slot must
// treat never-dispatched slots (zero values) explicitly.
//
// Tasks must not touch shared state without their own synchronization;
// writes to distinct indexed slots need none.
func (p *pool) forEach(ctx context.Context, n int, fn func(i int)) {
	done := func() bool { return ctx != nil && ctx.Err() != nil }
	if p.sem == nil || n <= 1 {
		for i := 0; i < n; i++ {
			if done() {
				return
			}
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		if done() {
			break
		}
		select {
		case p.sem <- struct{}{}:
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer func() { <-p.sem }()
				p.inflight.Add(1)
				defer p.inflight.Add(-1)
				if done() {
					return
				}
				fn(i)
			}(i)
		default:
			fn(i)
		}
	}
	wg.Wait()
}
