// Parallel step execution: the engine partitions a step's traverser batch
// into contiguous chunks and dispatches them to a bounded worker pool.
// Determinism contract: every chunk writes into a pre-indexed slot and the
// slots are merged in input order, so a parallel run produces exactly the
// traverser sequence the serial run would. Budgets are enforced across
// workers with atomic counters, the first failing chunk cancels its
// siblings through the query context, and worker panics are captured as
// *PanicError just like panics on the query goroutine.
package gremlin

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"db2graph/internal/graph"
	"db2graph/internal/telemetry"
)

// Chunk-size floors. Backend fan-out steps batch many ids into one call, so
// splitting below vertexChunkMin trades a batched lookup for goroutine and
// call overhead. Sub-traversal loops (where/union/until) run a full plan per
// traverser, which is expensive enough to farm out in small groups.
const (
	vertexChunkMin = 16
	subChunkMin    = 4
)

// workerPool bounds the extra goroutines a query may use for step-level
// parallelism. The pool holds n-1 tokens for a parallelism of n: the
// query's own goroutine always executes one chunk itself, so a chunked step
// makes progress even when every token is borrowed (nested parallel steps
// inside where()/union() sub-traversals degrade to inline execution instead
// of deadlocking on the pool). The token channel is made on the first
// borrow, so a query whose steps never split (every point read) pays for
// no channel.
type workerPool struct {
	n    int // parallelism
	once sync.Once
	sem  chan struct{}
	// gauge, when non-nil, tracks the number of borrowed workers
	// (gremlin_parallel_workers in the server's registry).
	gauge *telemetry.Gauge
}

// tryAcquire borrows a worker token without blocking. Callers that fail to
// acquire must run the work inline. A nil pool (the serial engine) never
// lends workers.
func (p *workerPool) tryAcquire() bool {
	if p == nil {
		return false
	}
	p.once.Do(func() { p.sem = make(chan struct{}, p.n-1) })
	select {
	case p.sem <- struct{}{}:
		if p.gauge != nil {
			p.gauge.Inc()
		}
		return true
	default:
		return false
	}
}

// release returns a borrowed token.
func (p *workerPool) release() {
	<-p.sem
	if p.gauge != nil {
		p.gauge.Dec()
	}
}

// chunkable reports how many chunks a batch of total items should split
// into: 1 unless the execution has a pool and the batch clears the floor,
// then one per minChunk items up to the pool size.
func (ctx *execCtx) chunkable(total, minChunk int) int {
	if ctx.pool == nil || total < 2*minChunk {
		return 1
	}
	return min(total/minChunk, ctx.pool.n)
}

// runChunks splits [0, total) into nchunks contiguous ranges and runs fn on
// each, concurrently when workers are available. fn receives an execCtx
// whose context is cancelled as soon as any sibling chunk fails, so backend
// calls inside a doomed step stop early. Panics inside a chunk are captured
// as *PanicError. The error returned is deterministic: the first real
// failure in chunk order wins, and cancellation errors that are mere
// fallout of a sibling's failure (or of the caller's own context) never
// mask it.
func (ctx *execCtx) runChunks(total, nchunks int, fn func(c *execCtx, idx, lo, hi int) error) error {
	if nchunks <= 1 {
		return fn(ctx, 0, 0, total)
	}
	goctx, cancel := context.WithCancel(ctx.goctx)
	defer cancel()
	child := *ctx
	child.goctx = goctx
	errs := make([]error, nchunks)
	run := func(i, lo, hi int) {
		defer func() {
			if r := recover(); r != nil {
				errs[i] = &PanicError{Value: r, Stack: string(debug.Stack())}
				cancel()
			}
		}()
		// Each chunk gets a private traverser allocator: chunk goroutines
		// bump-allocate without contention, and two chunks can never be
		// handed the same slot (see alloc.go).
		cctx := child
		cctx.alloc = newTravAlloc()
		if err := fn(&cctx, i, lo, hi); err != nil {
			errs[i] = err
			cancel()
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < nchunks; i++ {
		lo, hi := i*total/nchunks, (i+1)*total/nchunks
		// The last chunk always runs on the calling goroutine; earlier
		// chunks run inline too when the pool is exhausted.
		if i == nchunks-1 || !ctx.pool.tryAcquire() {
			run(i, lo, hi)
			continue
		}
		wg.Add(1)
		go func(i, lo, hi int) {
			defer wg.Done()
			defer ctx.pool.release()
			run(i, lo, hi)
		}(i, lo, hi)
	}
	wg.Wait()
	var firstErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if firstErr == nil {
			firstErr = err
		}
		if !errors.Is(err, context.Canceled) {
			return err
		}
	}
	if firstErr == nil {
		return nil
	}
	// Every failure is a cancellation: either the caller's context fired
	// (report that, as the serial engine would), or — not reachable with
	// the current chunk bodies — a chunk returned context.Canceled on its
	// own; surface it rather than swallow it.
	if err := ctx.interrupted(); err != nil {
		return err
	}
	return firstErr
}

// mapChunks runs fn over nchunks contiguous chunks of [0, total) and
// concatenates the per-chunk traverser slices in chunk order, giving a
// result identical to one serial left-to-right pass. The traverser budget
// is enforced across workers with a shared atomic counter so a chunk that
// blows the limit aborts its siblings instead of materializing the rest of
// an oversized frontier.
func (ctx *execCtx) mapChunks(total, nchunks int, fn func(c *execCtx, lo, hi int) ([]*Traverser, error)) ([]*Traverser, error) {
	if nchunks <= 1 {
		// Serial: runSteps' post-step frame check enforces the budget.
		return fn(ctx, 0, total)
	}
	outs := make([][]*Traverser, nchunks)
	var produced atomic.Int64
	lim := int64(ctx.limits.MaxTraversers)
	err := ctx.runChunks(total, nchunks, func(c *execCtx, idx, lo, hi int) error {
		out, err := fn(c, lo, hi)
		if err != nil {
			return err
		}
		if lim > 0 && produced.Add(int64(len(out))) > lim {
			return &graph.BudgetError{Resource: "traversers", Limit: int(lim)}
		}
		outs[idx] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	var n int
	for _, o := range outs {
		n += len(o)
	}
	merged := make([]*Traverser, 0, n)
	for _, o := range outs {
		merged = append(merged, o...)
	}
	return merged, nil
}

// plansSideEffects reports whether any step (recursively) writes or reads
// the shared side-effect store. Sub-traversal loops over such plans stay
// serial: store() appends in traverser order, and that order is part of the
// observable result of cap().
func plansSideEffects(steps []Step) bool {
	for _, s := range steps {
		switch x := s.(type) {
		case *StoreStep, *CapStep:
			return true
		case *RepeatStep:
			if plansSideEffects(x.Body) || plansSideEffects(x.Until) {
				return true
			}
		case *WhereStep:
			if plansSideEffects(x.Sub) {
				return true
			}
		case *UnionStep:
			for _, b := range x.Branches {
				if plansSideEffects(b) {
					return true
				}
			}
		}
	}
	return false
}

// serial returns an execution context that runs everything inline. Used for
// sub-traversal loops whose plans carry side effects.
func (ctx *execCtx) serial() *execCtx {
	if ctx.pool == nil {
		return ctx
	}
	cp := *ctx
	cp.pool = nil
	return &cp
}

// runSubFilter evaluates a filter sub-traversal for every input traverser,
// in parallel chunks, writing verdicts into a pre-indexed slice so the
// caller partitions the frame in input order.
func runSubFilter(ctx *execCtx, sub []Step, in []*Traverser) ([]bool, error) {
	sctx := ctx
	if plansSideEffects(sub) {
		sctx = ctx.serial()
	}
	keep := make([]bool, len(in))
	nchunks := sctx.chunkable(len(in), subChunkMin)
	err := sctx.runChunks(len(in), nchunks, func(c *execCtx, _, lo, hi int) error {
		for i := lo; i < hi; i++ {
			res, err := runSteps(c, sub, []*Traverser{c.cloneForSub(in[i])})
			if err != nil {
				return err
			}
			keep[i] = len(res) > 0
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return keep, nil
}

// checkEdgeVertices validates the positional contract of
// Backend.EdgeVertices for DirOut/DirIn resolution.
func checkEdgeVertices(b graph.Backend, vs, batch []*graph.Element) error {
	if len(vs) != len(batch) {
		return fmt.Errorf("gremlin: backend %s returned %d vertices for %d edges",
			b.Name(), len(vs), len(batch))
	}
	return nil
}
