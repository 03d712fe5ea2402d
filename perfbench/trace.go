package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"db2graph/internal/graph"
	"db2graph/internal/sql/types"
	"db2graph/internal/telemetry"
)

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	// spanGremlin wraps gremlin.RunScriptCtx for one read.
	spanGremlin spanKind = iota
	// spanDML wraps one prepared DML call on engine.Database.
	spanDML
	// spanBackend wraps one call into the query's graph backend: core
	// over SQL, or the cluster coordinator.
	spanBackend
	// spanShard wraps one backend call inside a shard server.
	spanShard
)

var spanNames = [...]string{"gremlin", "dml", "backend", "shard"}

// span is one timed call. op ties it to the operation that caused it; the
// parent is that op's gremlin or dml span. Backend spans also carry the SQL
// work exec.Run recorded on the telemetry.Span attached to the call.
type span struct {
	op         int32
	kind       spanKind
	start, end int64 // ns since the tracer's epoch
	sqlNs      int64
	stmts      int32
	rows       int32
}

// tracer keeps spans in memory while a traced phase runs; they are written
// out after it. It is off (records nothing) until start is called, so
// warm-up operations leave no spans.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	ops   atomic.Int32
	// current is the op the single client of a sharded run is executing;
	// shard servers attribute their spans to it, since no context crosses
	// the wire.
	current atomic.Int32

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

type opKey struct{}

// beginOp assigns the next op id and carries it in ctx. It returns -1 while
// the tracer is off.
func (t *tracer) beginOp(ctx context.Context) (context.Context, int32) {
	if t == nil || !t.on.Load() {
		return ctx, -1
	}
	id := t.ops.Add(1) - 1
	t.current.Store(id)
	return context.WithValue(ctx, opKey{}, id), id
}

func opOf(ctx context.Context) (int32, bool) {
	id, ok := ctx.Value(opKey{}).(int32)
	return id, ok
}

// tracedBackend decorates a graph backend with spans. It forwards every
// optional interface the engine, the statistics provider and the server
// probe for, so wrapping changes no plan and no answer.
type tracedBackend struct {
	inner graph.Backend
	batch graph.BatchBackend
	tr    *tracer
	kind  spanKind
}

func traceBackend(b graph.Backend, tr *tracer, kind spanKind) *tracedBackend {
	return &tracedBackend{inner: b, batch: graph.Batched(b), tr: tr, kind: kind}
}

// begin starts a span. Client-side spans attach a fresh telemetry.Span so
// the SQL statements exec.Run executes inside the call are attributed to it.
func (b *tracedBackend) begin(ctx context.Context) (context.Context, func()) {
	if !b.tr.on.Load() {
		return ctx, func() {}
	}
	id, ok := opOf(ctx)
	if b.kind == spanShard {
		id, ok = b.tr.current.Load(), true
	}
	if !ok {
		return ctx, func() {}
	}
	var ts *telemetry.Span
	if b.kind == spanBackend {
		ts = telemetry.NewSpan()
		ctx = telemetry.WithSpan(ctx, ts)
	}
	start := b.tr.now()
	return ctx, func() {
		s := span{op: id, kind: b.kind, start: start, end: b.tr.now()}
		for _, o := range ts.Ops() {
			if strings.HasPrefix(o.Name, "sql.") {
				s.sqlNs += int64(o.Total)
				s.stmts += int32(o.Calls)
				s.rows += int32(o.Items)
			}
		}
		b.tr.add(s)
	}
}

func (b *tracedBackend) Name() string          { return b.inner.Name() }
func (b *tracedBackend) Unwrap() graph.Backend { return b.inner }

func (b *tracedBackend) V(ctx context.Context, q *graph.Query) ([]*graph.Element, error) {
	ctx, end := b.begin(ctx)
	defer end()
	return b.inner.V(ctx, q)
}

func (b *tracedBackend) E(ctx context.Context, q *graph.Query) ([]*graph.Element, error) {
	ctx, end := b.begin(ctx)
	defer end()
	return b.inner.E(ctx, q)
}

func (b *tracedBackend) VertexEdges(ctx context.Context, vids []string, dir graph.Direction, q *graph.Query) ([]*graph.Element, error) {
	ctx, end := b.begin(ctx)
	defer end()
	return b.inner.VertexEdges(ctx, vids, dir, q)
}

func (b *tracedBackend) EdgeVertices(ctx context.Context, edges []*graph.Element, dir graph.Direction, q *graph.Query) ([]*graph.Element, error) {
	ctx, end := b.begin(ctx)
	defer end()
	return b.inner.EdgeVertices(ctx, edges, dir, q)
}

func (b *tracedBackend) AggV(ctx context.Context, q *graph.Query, agg graph.Agg) (types.Value, error) {
	ctx, end := b.begin(ctx)
	defer end()
	return b.inner.AggV(ctx, q, agg)
}

func (b *tracedBackend) AggE(ctx context.Context, q *graph.Query, agg graph.Agg) (types.Value, error) {
	ctx, end := b.begin(ctx)
	defer end()
	return b.inner.AggE(ctx, q, agg)
}

func (b *tracedBackend) AggVertexEdges(ctx context.Context, vids []string, dir graph.Direction, q *graph.Query, agg graph.Agg) (types.Value, error) {
	ctx, end := b.begin(ctx)
	defer end()
	return b.inner.AggVertexEdges(ctx, vids, dir, q, agg)
}

func (b *tracedBackend) VerticesByIDs(ctx context.Context, ids []string, q *graph.Query) ([]*graph.Element, error) {
	ctx, end := b.begin(ctx)
	defer end()
	return b.batch.VerticesByIDs(ctx, ids, q)
}

func (b *tracedBackend) EdgesForVertices(ctx context.Context, vids []string, dir graph.Direction, q *graph.Query) ([][]*graph.Element, error) {
	ctx, end := b.begin(ctx)
	defer end()
	return b.batch.EdgesForVertices(ctx, vids, dir, q)
}

func (b *tracedBackend) DataVersion() uint64   { return graph.DataVersionOf(b.inner) }
func (b *tracedBackend) ConfigVersion() uint64 { return graph.ConfigVersionOf(b.inner) }

func (b *tracedBackend) CacheMetrics() map[string]graph.CacheStats {
	if p, ok := b.inner.(graph.CacheStatsProvider); ok {
		return p.CacheMetrics()
	}
	return nil
}

func (b *tracedBackend) FlushCaches() {
	if f, ok := b.inner.(graph.CacheFlusher); ok {
		f.FlushCaches()
	}
}

var (
	_ graph.BatchBackend       = (*tracedBackend)(nil)
	_ graph.DataVersioned      = (*tracedBackend)(nil)
	_ graph.ConfigVersioned    = (*tracedBackend)(nil)
	_ graph.CacheStatsProvider = (*tracedBackend)(nil)
	_ graph.CacheFlusher       = (*tracedBackend)(nil)
)

// countingListener counts every byte read from and written to the
// connections it accepts: the shard servers' wire traffic.
type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: l.n}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// spanTotals is what the per-layer metrics need from the spans.
type spanTotals struct {
	gremlinSelf  time.Duration // RunScript time not covered by backend calls
	backendCalls int64
	backendSelf  time.Duration // backend time not spent in SQL statements
	sqlExec      time.Duration
	stmts, rows  int64
	dml          []time.Duration
}

// totals folds the spans. An op's gremlin self time is its RunScript span
// minus the union of its backend spans, so backend calls running in
// parallel chunks are counted once and self time never goes negative.
func (t *tracer) totals() spanTotals {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].op != spans[j].op {
			return spans[i].op < spans[j].op
		}
		return spans[i].start < spans[j].start
	})
	var tot spanTotals
	for i := 0; i < len(spans); {
		j := i
		for j < len(spans) && spans[j].op == spans[i].op {
			j++
		}
		var root *span
		var covered, coverEnd int64
		for k := i; k < j; k++ {
			if spans[k].kind == spanGremlin {
				root = &spans[k]
			}
		}
		for k := i; k < j; k++ {
			s := &spans[k]
			switch s.kind {
			case spanDML:
				tot.dml = append(tot.dml, time.Duration(s.end-s.start))
			case spanBackend:
				d := s.end - s.start
				tot.backendCalls++
				tot.sqlExec += time.Duration(s.sqlNs)
				tot.stmts += int64(s.stmts)
				tot.rows += int64(s.rows)
				tot.backendSelf += time.Duration(d - min(s.sqlNs, d))
				if root == nil {
					continue
				}
				// Spans are sorted by start: extend the running union.
				lo, hi := max(s.start, root.start, coverEnd), min(s.end, root.end)
				if hi > lo {
					covered += hi - lo
				}
				coverEnd = max(coverEnd, min(s.end, root.end))
			}
		}
		if root != nil {
			tot.gremlinSelf += time.Duration(root.end - root.start - covered)
		}
		i = j
	}
	return tot
}

// write saves the spans as tab-separated lines, one per span.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "op\tkind\tstart_ns\tend_ns\tsql_ns\tsql_stmts\tsql_rows")
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\t%d\n", s.op, spanNames[s.kind], s.start, s.end, s.sqlNs, s.stmts, s.rows)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
