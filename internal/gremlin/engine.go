package gremlin

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"db2graph/internal/graph"
	"db2graph/internal/sql/types"
	"db2graph/internal/telemetry"
)

// Traverser is one unit of traversal state: the current object plus
// optional path history and step labels.
type Traverser struct {
	// Obj is the current object: *graph.Element, types.Value,
	// map[string]types.Value (valueMap), map[string]int64 (groupCount),
	// []any (path or cap list), or map[string]any (select).
	Obj any
	// Path records visited objects when the plan contains path().
	Path []any
	// Labels holds objects recorded by as().
	Labels map[string]any
	// FromV is the vertex id an edge traverser was reached from (otherV).
	FromV string
}

// value returns the traverser object as a scalar value if it is one.
func (t *Traverser) value() (types.Value, bool) {
	v, ok := t.Obj.(types.Value)
	return v, ok
}

// element returns the traverser object as a graph element if it is one.
func (t *Traverser) element() (*graph.Element, bool) {
	e, ok := t.Obj.(*graph.Element)
	return e, ok
}

// execCtx carries shared execution state.
type execCtx struct {
	goctx       context.Context
	backend     graph.Backend
	// batch is the backend's vectorized view (native BatchBackend or the
	// conformance-proven fallback adapter), resolved once per execution.
	batch graph.BatchBackend
	// batchSize, when positive, caps chunk sizes on the order-preserving
	// fan-out paths (Source.BatchSize).
	batchSize int
	// batchHist, when non-nil, records batched expansion sizes.
	batchHist   *telemetry.IntHistogram
	sideEffects map[string][]any
	trackPaths  bool
	limits      graph.Limits
	// prof, when non-nil, records per-step traverser counts and wall time.
	// It stays nil unless profile() closes the chain or a telemetry.Span
	// rides in the query context, so the unprofiled hot path pays one nil
	// check per step and nothing per traverser.
	prof *profiler
	// pool, when non-nil, lends worker goroutines to chunked step
	// execution (see parallel.go). A nil pool is the serial engine.
	pool *workerPool
	// alloc is the goroutine-private traverser allocator (see alloc.go).
	// Shared by execCtx copies on the same goroutine (serial(),
	// sub-traversals); runChunks gives each chunk goroutine a fresh one.
	alloc *travAlloc
}

// interrupted returns a non-nil error once the query context is done.
func (ctx *execCtx) interrupted() error {
	return graph.Interrupted(ctx.goctx)
}

// observeBatch records the size of one batched backend expansion.
func (ctx *execCtx) observeBatch(n int) {
	if ctx.batchHist != nil {
		ctx.batchHist.Observe(int64(n))
	}
}

// PanicError is a panic that occurred while executing a query, converted to
// an error so one bad step evaluator or backend cannot take down the caller.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery time.
	Stack string
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("gremlin: query panicked: %v", e.Value)
}

// Execute runs the traversal and returns the final traversers.
func (t *Traversal) Execute() ([]*Traverser, error) {
	return t.ExecuteCtx(context.Background())
}

// ExecuteCtx runs the traversal under a context carrying the query deadline
// and cancellation, enforcing the source's resource budget (Source.Limits).
// Panics raised by steps or backends are recovered and returned as a
// *PanicError with the stack captured.
func (t *Traversal) ExecuteCtx(goctx context.Context) (trs []*Traverser, err error) {
	if t.err != nil {
		return nil, t.err
	}
	if t.Src == nil || t.Src.Backend == nil {
		return nil, fmt.Errorf("gremlin: traversal has no source backend")
	}
	if goctx == nil {
		goctx = context.Background()
	}
	defer func() {
		if r := recover(); r != nil {
			trs = nil
			err = &PanicError{Value: r, Stack: string(debug.Stack())}
		}
	}()
	steps := t.Steps
	if !t.planned {
		// Clone so strategy rewrites never mutate the caller's traversal;
		// plan-cache hits arrive already cloned and rewritten, and execution
		// treats step plans as read-only, so they are shared as-is.
		steps = cloneSteps(steps)
		if !t.Src.DisableStrategies {
			steps = applyStrategies(steps, t.Src.Strategies)
		}
		if t.Src.Stats != nil {
			if st := t.Src.Stats.Current(); st != nil {
				applyCost(steps, st)
			}
		}
	}
	// profile()/explain() must close the chain; strip the marker and
	// instrument the run.
	wantProfile := false
	wantExplain := false
	if n := len(steps); n > 0 {
		switch steps[n-1].(type) {
		case *ProfileStep:
			wantProfile = true
			steps = steps[:n-1]
		case *ExplainStep:
			wantExplain = true
			steps = steps[:n-1]
		}
	}
	span := telemetry.SpanFrom(goctx)
	// profile() without a caller span opens a local one, so backend and SQL
	// operator timings recorded downstream land in the report's ops table.
	var localSpan *telemetry.Span
	if wantProfile && span == nil {
		localSpan = telemetry.NewSpan()
		span = localSpan
		goctx = telemetry.WithSpan(goctx, span)
	}
	par := t.Src.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	ctx := &execCtx{
		goctx:       goctx,
		backend:     t.Src.Backend,
		batch:       graph.Batched(t.Src.Backend),
		batchSize:   t.Src.BatchSize,
		batchHist:   t.Src.BatchHist,
		sideEffects: make(map[string][]any),
		trackPaths:  plansPaths(steps),
		limits:      t.Src.Limits.Normalized(),
		pool:        newWorkerPool(par, t.Src.WorkerGauge),
		alloc:       newTravAlloc(),
	}
	var start time.Time
	if wantProfile || wantExplain || span != nil {
		ctx.prof = newProfiler()
		start = time.Now()
	}
	frame, err := runSteps(ctx, steps, nil)
	if err != nil {
		return nil, err
	}
	if lim := ctx.limits.MaxResults; lim > 0 && len(frame) > lim {
		return nil, &graph.BudgetError{Resource: "results", Limit: lim}
	}
	if ctx.prof != nil && span != nil {
		p := ctx.prof.report(steps, time.Since(start))
		if localSpan != nil {
			p.Ops = localSpan.Ops()
		}
		span.AddProfile(p)
		if wantProfile {
			return []*Traverser{{Obj: p}}, nil
		}
	}
	if wantExplain {
		return []*Traverser{{Obj: buildExplain(t.Src, steps, ctx.prof, time.Since(start), len(frame))}}, nil
	}
	return frame, nil
}

// plansPaths reports whether any step (recursively) needs path tracking.
func plansPaths(steps []Step) bool {
	for _, s := range steps {
		switch x := s.(type) {
		case *PathStep, *SimplePathStep:
			return true
		case *RepeatStep:
			if plansPaths(x.Body) || plansPaths(x.Until) {
				return true
			}
		case *WhereStep:
			if plansPaths(x.Sub) {
				return true
			}
		case *UnionStep:
			for _, b := range x.Branches {
				if plansPaths(b) {
					return true
				}
			}
		}
	}
	return false
}

// derive creates a child traverser from a parent with a new object. The
// slot comes from the chunk-private bump allocator; the path extension is
// one exact-size copy (the old double append re-copied the parent path into
// a growth-sized backing first).
func (ctx *execCtx) derive(parent *Traverser, obj any) *Traverser {
	child := ctx.alloc.get()
	child.Obj = obj
	if parent != nil {
		child.Labels = parent.Labels
		child.FromV = parent.FromV
		if ctx.trackPaths {
			p := make([]any, len(parent.Path)+1)
			copy(p, parent.Path)
			p[len(p)-1] = obj
			child.Path = p
		}
	} else if ctx.trackPaths {
		child.Path = []any{obj}
	}
	return child
}

// replace creates a traverser that substitutes the object in place (no new
// path entry), used by value-extraction steps.
func (ctx *execCtx) replace(parent *Traverser, obj any) *Traverser {
	t := ctx.alloc.get()
	t.Obj = obj
	t.Path = parent.Path
	t.Labels = parent.Labels
	t.FromV = parent.FromV
	return t
}

func runSteps(ctx *execCtx, steps []Step, frame []*Traverser) ([]*Traverser, error) {
	var err error
	for i, s := range steps {
		if err := ctx.interrupted(); err != nil {
			return nil, err
		}
		if ctx.prof != nil {
			st := ctx.prof.get(s)
			st.calls.Add(1)
			st.in.Add(int64(len(frame)))
			begin := time.Now()
			frame, err = runStep(ctx, s, frame, i == 0)
			st.durNS.Add(int64(time.Since(begin)))
			st.out.Add(int64(len(frame)))
		} else {
			frame, err = runStep(ctx, s, frame, i == 0)
		}
		if err != nil {
			return nil, err
		}
		if lim := ctx.limits.MaxTraversers; lim > 0 && len(frame) > lim {
			return nil, &graph.BudgetError{Resource: "traversers", Limit: lim}
		}
	}
	return frame, nil
}

func runStep(ctx *execCtx, s Step, in []*Traverser, isFirst bool) ([]*Traverser, error) {
	switch x := s.(type) {
	case *GraphStep:
		return runGraphStep(ctx, x, isFirst)
	case *VertexStep:
		return runVertexStep(ctx, x, in)
	case *EdgeVertexStep:
		return runEdgeVertexStep(ctx, x, in)
	case *HasStep:
		return runHasStep(x, in)
	case *ValuesStep:
		out := make([]*Traverser, 0, len(in))
		for _, tr := range in {
			el, ok := tr.element()
			if !ok {
				return nil, fmt.Errorf("gremlin: values() requires elements")
			}
			for _, k := range x.Keys {
				if v, ok := el.Props[k]; ok {
					out = append(out, ctx.derive(tr, v))
				}
			}
		}
		return out, nil
	case *ValueMapStep:
		out := make([]*Traverser, 0, len(in))
		for _, tr := range in {
			el, ok := tr.element()
			if !ok {
				return nil, fmt.Errorf("gremlin: valueMap() requires elements")
			}
			m := make(map[string]types.Value)
			if len(x.Keys) == 0 {
				for k, v := range el.Props {
					m[k] = v
				}
			} else {
				for _, k := range x.Keys {
					if v, ok := el.Props[k]; ok {
						m[k] = v
					}
				}
			}
			if x.WithIDLabel {
				m[graph.KeyID] = types.NewString(el.ID)
				m[graph.KeyLabel] = types.NewString(el.Label)
			}
			out = append(out, ctx.derive(tr, m))
		}
		return out, nil
	case *IDStep:
		out := make([]*Traverser, 0, len(in))
		for _, tr := range in {
			el, ok := tr.element()
			if !ok {
				return nil, fmt.Errorf("gremlin: id() requires elements")
			}
			out = append(out, ctx.replace(tr, types.NewString(el.ID)))
		}
		return out, nil
	case *LabelStep:
		out := make([]*Traverser, 0, len(in))
		for _, tr := range in {
			el, ok := tr.element()
			if !ok {
				return nil, fmt.Errorf("gremlin: label() requires elements")
			}
			out = append(out, ctx.replace(tr, types.NewString(el.Label)))
		}
		return out, nil
	case *AggregateStep:
		return runAggregateStep(x, in)
	case *DedupStep:
		seen := make(map[string]bool, len(in))
		out := make([]*Traverser, 0, len(in))
		for _, tr := range in {
			k := objKey(tr.Obj)
			if seen[k] {
				continue
			}
			seen[k] = true
			out = append(out, tr)
		}
		return out, nil
	case *LimitStep:
		if len(in) > x.N {
			return in[:x.N], nil
		}
		return in, nil
	case *OrderStep:
		out := append([]*Traverser{}, in...)
		var keyErr error
		key := func(tr *Traverser) types.Value {
			if x.By != "" {
				el, ok := tr.element()
				if !ok {
					keyErr = fmt.Errorf("gremlin: order().by(%q) requires elements", x.By)
					return types.Null
				}
				return el.Props[x.By]
			}
			if v, ok := tr.value(); ok {
				return v
			}
			if el, ok := tr.element(); ok {
				return types.NewString(el.ID)
			}
			return types.NewString(fmt.Sprint(tr.Obj))
		}
		sort.SliceStable(out, func(i, j int) bool {
			c := types.Compare(key(out[i]), key(out[j]))
			if x.Desc {
				return c > 0
			}
			return c < 0
		})
		return out, keyErr
	case *StoreStep:
		for _, tr := range in {
			ctx.sideEffects[x.Key] = append(ctx.sideEffects[x.Key], tr.Obj)
		}
		return in, nil
	case *CapStep:
		vals := append([]any{}, ctx.sideEffects[x.Key]...)
		return []*Traverser{{Obj: vals}}, nil
	case *RepeatStep:
		return runRepeatStep(ctx, x, in)
	case *WhereStep:
		keep, err := runSubFilter(ctx, x.Sub, in)
		if err != nil {
			return nil, err
		}
		out := make([]*Traverser, 0, len(in))
		for i, tr := range in {
			if keep[i] != x.Negate {
				out = append(out, tr)
			}
		}
		return out, nil
	case *UnionStep:
		sctx := ctx
		for _, b := range x.Branches {
			if plansSideEffects(b) {
				sctx = ctx.serial()
				break
			}
		}
		nchunks := sctx.chunkable(len(in), subChunkMin)
		return sctx.mapChunks(len(in), nchunks, func(c *execCtx, lo, hi int) ([]*Traverser, error) {
			var out []*Traverser
			for _, tr := range in[lo:hi] {
				for _, branch := range x.Branches {
					res, err := runSteps(c, branch, []*Traverser{c.cloneForSub(tr)})
					if err != nil {
						return nil, err
					}
					out = append(out, res...)
				}
			}
			return out, nil
		})
	case *PathStep:
		out := make([]*Traverser, 0, len(in))
		for _, tr := range in {
			out = append(out, ctx.replace(tr, append([]any{}, tr.Path...)))
		}
		return out, nil
	case *SimplePathStep:
		out := make([]*Traverser, 0, len(in))
		for _, tr := range in {
			seen := map[string]bool{}
			simple := true
			for _, o := range tr.Path {
				k := objKey(o)
				if seen[k] {
					simple = false
					break
				}
				seen[k] = true
			}
			if simple {
				out = append(out, tr)
			}
		}
		return out, nil
	case *AsStep:
		for _, tr := range in {
			labels := make(map[string]any, len(tr.Labels)+1)
			for k, v := range tr.Labels {
				labels[k] = v
			}
			labels[x.Label] = tr.Obj
			tr.Labels = labels
		}
		return in, nil
	case *SelectStep:
		out := make([]*Traverser, 0, len(in))
		for _, tr := range in {
			if len(x.Labels) == 1 {
				obj, ok := tr.Labels[x.Labels[0]]
				if !ok {
					continue
				}
				out = append(out, ctx.replace(tr, obj))
				continue
			}
			m := make(map[string]any, len(x.Labels))
			complete := true
			for _, l := range x.Labels {
				obj, ok := tr.Labels[l]
				if !ok {
					complete = false
					break
				}
				m[l] = obj
			}
			if complete {
				out = append(out, ctx.replace(tr, m))
			}
		}
		return out, nil
	case *GroupCountStep:
		counts := make(map[string]int64)
		for _, tr := range in {
			var k string
			if x.By != "" {
				el, ok := tr.element()
				if !ok {
					return nil, fmt.Errorf("gremlin: groupCount().by(%q) requires elements", x.By)
				}
				k = el.Props[x.By].Text()
			} else {
				k = objDisplay(tr.Obj)
			}
			counts[k]++
		}
		return []*Traverser{{Obj: counts}}, nil
	case *ConstantStep:
		out := make([]*Traverser, 0, len(in))
		for _, tr := range in {
			out = append(out, ctx.replace(tr, x.Value))
		}
		return out, nil
	case *IsStep:
		pred := graph.Pred{Key: "~value", Op: x.Op, Value: x.Value}
		out := make([]*Traverser, 0, len(in))
		for _, tr := range in {
			v, ok := tr.value()
			if !ok {
				return nil, fmt.Errorf("gremlin: is() requires values")
			}
			// Reuse predicate evaluation via a synthetic element.
			tmp := &graph.Element{Props: map[string]types.Value{"~value": v}}
			if pred.Matches(tmp) {
				out = append(out, tr)
			}
		}
		return out, nil
	case *ProfileStep:
		// ExecuteCtx strips a trailing profile(); reaching here means it was
		// used mid-chain.
		return nil, fmt.Errorf("gremlin: profile() must be the last step")
	case *ExplainStep:
		return nil, fmt.Errorf("gremlin: explain() must be the last step")
	default:
		return nil, fmt.Errorf("gremlin: unsupported step %T", s)
	}
}

// maxUnboundedRepeat caps until()-only loops so a predicate that never
// fires errors out instead of spinning forever.
const maxUnboundedRepeat = 64

// maxRepeatFrontier bounds the traverser frontier inside repeat(): cyclic
// walks without dedup() grow exponentially, and an explicit error beats an
// out-of-memory hang.
const maxRepeatFrontier = 1 << 20

func runRepeatStep(ctx *execCtx, x *RepeatStep, in []*Traverser) ([]*Traverser, error) {
	if x.Times <= 0 && len(x.Until) == 0 {
		return nil, fmt.Errorf("gremlin: repeat() requires times() or until()")
	}
	if lim := ctx.limits.MaxRepeatIters; lim > 0 && x.Times > lim {
		return nil, &graph.BudgetError{Resource: "repeat-iterations", Limit: lim}
	}
	frame := in
	var out []*Traverser // traversers that satisfied until()
	var emitted []*Traverser
	limit := x.Times
	if limit <= 0 {
		limit = maxUnboundedRepeat
		if lim := ctx.limits.MaxRepeatIters; lim > 0 && limit > lim {
			limit = lim
		}
	}
	frontierCap := maxRepeatFrontier
	if lim := ctx.limits.MaxTraversers; lim > 0 && lim < frontierCap {
		frontierCap = lim
	}
	for i := 0; i < limit && len(frame) > 0; i++ {
		if err := ctx.interrupted(); err != nil {
			return nil, err
		}
		if len(frame) > frontierCap {
			return nil, &graph.BudgetError{Resource: "traversers", Limit: frontierCap}
		}
		next, err := runSteps(ctx, x.Body, frame)
		if err != nil {
			return nil, err
		}
		if x.Emit {
			emitted = append(emitted, next...)
		}
		if len(x.Until) > 0 {
			matched, err := runSubFilter(ctx, x.Until, next)
			if err != nil {
				return nil, err
			}
			var continuing []*Traverser
			for i, tr := range next {
				if matched[i] {
					out = append(out, tr)
				} else {
					continuing = append(continuing, tr)
				}
			}
			frame = continuing
			continue
		}
		frame = next
	}
	if x.Times <= 0 && len(frame) > 0 {
		return nil, fmt.Errorf("gremlin: repeat().until() did not converge within %d iterations", maxUnboundedRepeat)
	}
	switch {
	case x.Emit:
		return emitted, nil
	case len(x.Until) > 0:
		return out, nil
	default:
		return frame, nil
	}
}

// cloneForSub seeds a sub-traversal from a traverser.
func (ctx *execCtx) cloneForSub(tr *Traverser) *Traverser {
	t := ctx.alloc.get()
	t.Obj = tr.Obj
	t.Path = tr.Path
	t.Labels = tr.Labels
	t.FromV = tr.FromV
	return t
}

func runGraphStep(ctx *execCtx, x *GraphStep, isFirst bool) ([]*Traverser, error) {
	if !isFirst {
		return nil, fmt.Errorf("gremlin: %s() must be the first step", x.Name())
	}
	if x.PushAgg != nil {
		var v types.Value
		var err error
		if x.Kind == KindVertex {
			v, err = ctx.backend.AggV(ctx.goctx, x.Query, *x.PushAgg)
		} else {
			v, err = ctx.backend.AggE(ctx.goctx, x.Query, *x.PushAgg)
		}
		if err != nil {
			return nil, err
		}
		return []*Traverser{{Obj: v}}, nil
	}
	var els []*graph.Element
	var err error
	if x.Kind == KindVertex {
		els, err = ctx.backend.V(ctx.goctx, x.Query)
	} else {
		els, err = ctx.backend.E(ctx.goctx, x.Query)
	}
	if err != nil {
		return nil, err
	}
	out := make([]*Traverser, 0, len(els))
	for _, el := range els {
		out = append(out, ctx.derive(nil, el))
	}
	return out, nil
}

func runVertexStep(ctx *execCtx, x *VertexStep, in []*Traverser) ([]*Traverser, error) {
	// Source vertices: either fused seed ids or incoming vertex traversers.
	// travGroup keeps the dominant one-traverser-per-vertex case slice-free.
	n := len(x.SeedIDs)
	if n == 0 {
		n = len(in)
	}
	parents := make(map[string]travGroup, n)
	vids := make([]string, 0, n)
	if len(x.SeedIDs) > 0 {
		for _, id := range x.SeedIDs {
			g := parents[id]
			if g.n == 0 {
				vids = append(vids, id)
			}
			g.add(nil)
			parents[id] = g
		}
	} else {
		for _, tr := range in {
			el, ok := tr.element()
			if !ok || el.IsEdge {
				return nil, fmt.Errorf("gremlin: %s() requires vertices", x.Name())
			}
			g := parents[el.ID]
			if g.n == 0 {
				vids = append(vids, el.ID)
			}
			g.add(tr)
			parents[el.ID] = g
		}
	}
	if len(vids) == 0 {
		if x.PushAgg != nil {
			// A fused aggregate must still emit its empty-stream result
			// (count() of nothing is 0; other aggregates yield NULL), the
			// same as the unfused AggregateStep over an empty frame.
			if x.PushAgg.Kind == graph.AggCount {
				return []*Traverser{{Obj: types.NewInt(0)}}, nil
			}
			return []*Traverser{{Obj: types.Null}}, nil
		}
		return nil, nil
	}

	if x.PushAgg != nil {
		// bothE() traverses an edge joining two frontier vertices once from
		// each end but stores it once, so it only pushes down for a single
		// source vertex.
		if x.Dir != graph.DirBoth || len(vids) == 1 {
			v, ok, err := pushVertexAgg(ctx, x, vids, parents)
			if err != nil {
				return nil, err
			}
			if ok {
				return []*Traverser{{Obj: v}}, nil
			}
		}
		cp := *x
		cp.PushAgg = nil
		frame, err := runVertexStep(ctx, &cp, in)
		if err != nil {
			return nil, err
		}
		if x.PushAgg.Kind == graph.AggCount {
			return []*Traverser{{Obj: types.NewInt(int64(len(frame)))}}, nil
		}
		els := make([]*graph.Element, 0, len(frame))
		for _, tr := range frame {
			if el, ok := tr.element(); ok {
				els = append(els, el)
			}
		}
		v, err := graph.AggregateElements(els, *x.PushAgg)
		if err != nil {
			return nil, err
		}
		return []*Traverser{{Obj: v}}, nil
	}

	// Fan out over the unique source vertices in contiguous chunks (see
	// parallel.go). Emission is vertex-major: each source vertex, in
	// first-appearance order, contributes its incident edges in the
	// backend's per-vertex adjacency order, attributed to that vertex's
	// traversers in input order. That order is invariant under chunking
	// for out()/in() — an edge has exactly one source (resp. destination)
	// vertex, so it belongs to exactly one chunk. both() runs as a single
	// chunk: VertexEdges dedups edges per call, so an edge joining
	// vertices of two chunks would surface in both calls with a relative
	// order that depends on the split. A pushed-down element limit also
	// forces one chunk, since per-chunk limits would over-fetch.
	nchunks := 1
	if x.Dir != graph.DirBoth && (x.Query == nil || x.Query.Limit == 0) {
		nchunks = ctx.chunkable(len(vids), vertexChunkMin)
		// The planner's chunk-size hint caps anchors per chunk below the
		// static floor when the estimated fan-out per anchor is high, so a
		// small anchor set still spreads across the worker pool. Pool-gated:
		// the serial engine keeps its single-call batches. Chunk count never
		// affects results (contiguous chunks, order-preserving merge).
		if x.BatchHint > 0 && ctx.pool != nil {
			if need := (len(vids) + x.BatchHint - 1) / x.BatchHint; need > nchunks {
				nchunks = need
			}
		}
	}
	return ctx.mapChunks(len(vids), nchunks, func(c *execCtx, lo, hi int) ([]*Traverser, error) {
		return vertexFanout(c, x, vids[lo:hi], parents)
	})
}

// pushVertexAgg answers a fused VertexStep aggregate with AggVertexEdges
// calls; ok is false when the aggregate must be materialized instead. The
// backend aggregates over a set of distinct vertex ids, which equals the
// traverser stream's aggregate only when every source vertex carries one
// traverser. count() is linear in multiplicity, so a duplicated frontier
// (e.g. after a non-deduped multi-path hop) still pushes down: the source
// vertices are split into classes by how many traversers sit on each (m),
// each class is counted in one call, in first-appearance order, and the
// result is Σ m × count_m. An out()/in() edge has one source (resp.
// destination) vertex, so the classes partition the counted edges. Other
// aggregates and pushed limits are not linear in multiplicity and
// materialize on a duplicated frontier.
func pushVertexAgg(ctx *execCtx, x *VertexStep, vids []string, parents map[string]travGroup) (types.Value, bool, error) {
	unique := true
	for _, ps := range parents {
		if ps.n != 1 {
			unique = false
			break
		}
	}
	if unique {
		v, err := ctx.backend.AggVertexEdges(ctx.goctx, vids, x.Dir, x.Query, *x.PushAgg)
		return v, err == nil, err
	}
	if x.PushAgg.Kind != graph.AggCount || (x.Query != nil && x.Query.Limit > 0) {
		return types.Null, false, nil
	}
	var mults []int // distinct multiplicities, first-appearance order
	classes := make(map[int][]string)
	for _, vid := range vids {
		m := parents[vid].n
		if _, seen := classes[m]; !seen {
			mults = append(mults, m)
		}
		classes[m] = append(classes[m], vid)
	}
	var total int64
	for _, m := range mults {
		v, err := ctx.backend.AggVertexEdges(ctx.goctx, classes[m], x.Dir, x.Query, *x.PushAgg)
		if err != nil {
			return types.Null, false, err
		}
		n, ok := v.Int()
		if !ok {
			return types.Null, false, fmt.Errorf("gremlin: backend count is %v, want an integer", v)
		}
		total += int64(m) * n
	}
	return types.NewInt(total), true, nil
}

// travGroup collects the traversers anchored at one source vertex without
// allocating a per-vertex slice in the dominant single-traverser case. A
// nil traverser is a valid member (fused seed ids have no parent), so n —
// not first — is the occupancy signal.
type travGroup struct {
	n     int
	first *Traverser
	rest  []*Traverser
}

func (g *travGroup) add(tr *Traverser) {
	if g.n == 0 {
		g.first = tr
	} else {
		g.rest = append(g.rest, tr)
	}
	g.n++
}

// edgeHit attributes one incident edge to one source traverser.
type edgeHit struct {
	edge   *graph.Element
	parent *Traverser
	fromV  string
}

// vertexFanout materializes one chunk of a VertexStep: it fetches the
// incident edges of the chunk's vertices in ONE batched backend call, groups
// them per vertex, and emits traversers (edges for outE/inE/bothE, resolved
// far endpoints for out/in/both) in vertex-major order.
func vertexFanout(ctx *execCtx, x *VertexStep, vids []string, parents map[string]travGroup) ([]*Traverser, error) {
	// groups[i] holds the edges attributed to vids[i], preserving the
	// backend's edge order per vertex.
	var groups [][]*graph.Element
	if x.Dir != graph.DirBoth && (x.Query == nil || x.Query.Limit == 0) {
		// Vectorized path: one EdgesForVertices multi-get returns the
		// per-vertex groups directly. For out()/in() without a pushed limit
		// the groups are exactly the regroup of a flat VertexEdges call (an
		// edge has one source and one destination, and per-vertex adjacency
		// order is batch-independent), so results match the scalar path
		// bit for bit.
		ctx.observeBatch(len(vids))
		var err error
		groups, err = ctx.batch.EdgesForVertices(ctx.goctx, vids, x.Dir, x.Query)
		if err != nil {
			return nil, err
		}
	} else {
		// both() and pushed limits keep the flat fetch: their cross-vertex
		// dedup and cross-set limit semantics are defined by one call over
		// the whole (single-chunk) set.
		edges, err := ctx.backend.VertexEdges(ctx.goctx, vids, x.Dir, x.Query)
		if err != nil {
			return nil, err
		}
		// vids are unique (first-appearance order), so the slot map is 1:1.
		slot := make(map[string]int, len(vids))
		for i, vid := range vids {
			slot[vid] = i + 1
		}
		groups = make([][]*graph.Element, len(vids))
		add := func(vid string, e *graph.Element) {
			if i := slot[vid]; i > 0 {
				groups[i-1] = append(groups[i-1], e)
			}
		}
		for _, e := range edges {
			switch x.Dir {
			case graph.DirOut:
				add(e.OutV, e)
			case graph.DirIn:
				add(e.InV, e)
			case graph.DirBoth:
				add(e.OutV, e)
				if e.InV != e.OutV {
					add(e.InV, e)
				}
			}
		}
	}

	// Attribute each edge back to the traverser(s) whose vertex it touches.
	total := 0
	for _, g := range groups {
		total += len(g)
	}
	hits := make([]edgeHit, 0, total)
	for i, vid := range vids {
		g := parents[vid]
		for _, e := range groups[i] {
			hits = append(hits, edgeHit{edge: e, parent: g.first, fromV: vid})
			for _, p := range g.rest {
				hits = append(hits, edgeHit{edge: e, parent: p, fromV: vid})
			}
		}
	}

	if x.ReturnEdges {
		out := make([]*Traverser, 0, len(hits))
		for _, h := range hits {
			tr := ctx.derive(h.parent, h.edge)
			tr.FromV = h.fromV
			out = append(out, tr)
		}
		return out, nil
	}

	// out()/in()/both(): resolve the far endpoint of each hit.
	vq := x.VQuery
	if vq == nil {
		vq = &graph.Query{}
	}
	ends := make([]graph.Direction, len(hits))
	for i, h := range hits {
		if h.edge.OutV == h.fromV {
			ends[i] = graph.DirIn // we sit at the source; move to destination
		} else {
			ends[i] = graph.DirOut
		}
	}
	resolved := make([]*graph.Element, len(hits))
	if x.ResolveScan && len(vq.IDs) == 0 && vq.Limit == 0 {
		// Planner-chosen distinct-endpoint resolution: on hub-heavy hops many
		// edge hits share a far endpoint, so one multi-get over the distinct
		// endpoint ids beats resolving per edge. The hash join back into hit
		// order reproduces EdgeVertices alignment exactly (nil = filtered by
		// vq), per the BatchBackend contract. Runtime-gated off when vq
		// carries an id filter or limit, whose semantics VerticesByIDs
		// replaces rather than applies.
		want := make([]string, len(hits))
		var distinct []string
		seen := make(map[string]bool, len(hits))
		for i, h := range hits {
			w := h.edge.InV
			if ends[i] == graph.DirOut {
				w = h.edge.OutV
			}
			want[i] = w
			if !seen[w] {
				seen[w] = true
				distinct = append(distinct, w)
			}
		}
		ctx.observeBatch(len(distinct))
		vs, err := ctx.batch.VerticesByIDs(ctx.goctx, distinct, vq)
		if err != nil {
			return nil, err
		}
		byID := make(map[string]*graph.Element, len(distinct))
		for i, id := range distinct {
			byID[id] = vs[i]
		}
		for i := range hits {
			resolved[i] = byID[want[i]]
		}
		out := make([]*Traverser, 0, len(hits))
		for i, h := range hits {
			if resolved[i] == nil {
				continue // filtered by vq
			}
			tr := ctx.derive(h.parent, resolved[i])
			tr.FromV = h.fromV
			out = append(out, tr)
		}
		return out, nil
	}
	// Batch by end direction to keep the backend contract simple.
	for _, dir := range []graph.Direction{graph.DirOut, graph.DirIn} {
		batch := make([]*graph.Element, 0, len(hits))
		idx := make([]int, 0, len(hits))
		for i := range hits {
			if ends[i] == dir {
				batch = append(batch, hits[i].edge)
				idx = append(idx, i)
			}
		}
		if len(batch) == 0 {
			continue
		}
		vs, err := ctx.backend.EdgeVertices(ctx.goctx, batch, dir, vq)
		if err != nil {
			return nil, err
		}
		if err := checkEdgeVertices(ctx.backend, vs, batch); err != nil {
			return nil, err
		}
		for j, v := range vs {
			resolved[idx[j]] = v
		}
	}
	out := make([]*Traverser, 0, len(hits))
	for i, h := range hits {
		if resolved[i] == nil {
			continue // filtered by vq
		}
		tr := ctx.derive(h.parent, resolved[i])
		tr.FromV = h.fromV
		out = append(out, tr)
	}
	return out, nil
}

func runEdgeVertexStep(ctx *execCtx, x *EdgeVertexStep, in []*Traverser) ([]*Traverser, error) {
	q := x.Query
	if q == nil {
		q = &graph.Query{}
	}
	type want struct {
		tr  *Traverser
		dir graph.Direction
	}
	wants := make([]want, 0, len(in))
	for _, tr := range in {
		el, ok := tr.element()
		if !ok || !el.IsEdge {
			return nil, fmt.Errorf("gremlin: %s() requires edges", x.Name())
		}
		switch x.End {
		case EndOut:
			wants = append(wants, want{tr, graph.DirOut})
		case EndIn:
			wants = append(wants, want{tr, graph.DirIn})
		case EndBoth:
			wants = append(wants, want{tr, graph.DirOut}, want{tr, graph.DirIn})
		case EndOther:
			if tr.FromV == "" {
				return nil, fmt.Errorf("gremlin: otherV() requires a vertex-derived edge")
			}
			if el.OutV == tr.FromV {
				wants = append(wants, want{tr, graph.DirIn})
			} else {
				wants = append(wants, want{tr, graph.DirOut})
			}
		}
	}
	// Resolve in contiguous chunks of the wants list (see parallel.go).
	// EdgeVertices is positional — one result slot per requested edge — so
	// chunking cannot change what resolves; emission is in wants order
	// (input-traverser order, outV before inV for bothV), identical for
	// serial and parallel runs. A pushed-down element limit forces one
	// chunk, since per-chunk limits would over-fetch.
	nchunks := 1
	if q.Limit == 0 {
		nchunks = ctx.chunkable(len(wants), vertexChunkMin)
	}
	return ctx.mapChunks(len(wants), nchunks, func(c *execCtx, lo, hi int) ([]*Traverser, error) {
		sub := wants[lo:hi]
		c.observeBatch(len(sub))
		resolved := make([]*graph.Element, len(sub))
		for _, dir := range []graph.Direction{graph.DirOut, graph.DirIn} {
			var batch []*graph.Element
			var idx []int
			for i, w := range sub {
				if w.dir == dir {
					el, _ := w.tr.element()
					batch = append(batch, el)
					idx = append(idx, i)
				}
			}
			if len(batch) == 0 {
				continue
			}
			vs, err := c.backend.EdgeVertices(c.goctx, batch, dir, q)
			if err != nil {
				return nil, err
			}
			if err := checkEdgeVertices(c.backend, vs, batch); err != nil {
				return nil, err
			}
			for j, v := range vs {
				resolved[idx[j]] = v
			}
		}
		out := make([]*Traverser, 0, len(sub))
		for i, w := range sub {
			if resolved[i] == nil {
				continue // filtered by q
			}
			out = append(out, c.derive(w.tr, resolved[i]))
		}
		return out, nil
	})
}

func runHasStep(x *HasStep, in []*Traverser) ([]*Traverser, error) {
	out := make([]*Traverser, 0, len(in))
	for _, tr := range in {
		el, ok := tr.element()
		if !ok {
			return nil, fmt.Errorf("gremlin: has() requires elements")
		}
		match := true
		for _, p := range x.Preds {
			if !p.Matches(el) {
				match = false
				break
			}
		}
		if match {
			out = append(out, tr)
		}
	}
	return out, nil
}

func runAggregateStep(x *AggregateStep, in []*Traverser) ([]*Traverser, error) {
	if x.Kind == graph.AggCount {
		return []*Traverser{{Obj: types.NewInt(int64(len(in)))}}, nil
	}
	vals := make([]types.Value, 0, len(in))
	for _, tr := range in {
		v, ok := tr.value()
		if !ok {
			return nil, fmt.Errorf("gremlin: %s() requires values (use values(...) first)", x.Kind)
		}
		vals = append(vals, v)
	}
	v, err := graph.AggregateValues(vals, x.Kind)
	if err != nil {
		return nil, err
	}
	return []*Traverser{{Obj: v}}, nil
}

// objKey builds a dedup key for a traverser object.
func objKey(obj any) string {
	switch x := obj.(type) {
	case *graph.Element:
		if x.IsEdge {
			return "e\x00" + x.ID
		}
		return "v\x00" + x.ID
	case types.Value:
		return "s\x00" + types.EncodeKeyTuple([]types.Value{x})
	default:
		return "o\x00" + fmt.Sprint(obj)
	}
}

// objDisplay renders a traverser object for console output and groupCount
// keys.
func objDisplay(obj any) string {
	switch x := obj.(type) {
	case *graph.Element:
		return x.String()
	case types.Value:
		return x.Text()
	case map[string]types.Value:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = k + ":" + x[k].Text()
		}
		return "{" + strings.Join(parts, ", ") + "}"
	case []any:
		parts := make([]string, len(x))
		for i, o := range x {
			parts[i] = objDisplay(o)
		}
		return "[" + strings.Join(parts, ", ") + "]"
	case map[string]int64:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = fmt.Sprintf("%s:%d", k, x[k])
		}
		return "{" + strings.Join(parts, ", ") + "}"
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = k + ":" + objDisplay(x[k])
		}
		return "{" + strings.Join(parts, ", ") + "}"
	default:
		return fmt.Sprint(obj)
	}
}

// Display renders any traversal result object as a console string.
func Display(obj any) string { return objDisplay(obj) }

// --- Terminal methods ---

// ToList executes the traversal and returns the result objects.
func (t *Traversal) ToList() ([]any, error) {
	return t.ToListCtx(context.Background())
}

// ToListCtx is ToList under a query context.
func (t *Traversal) ToListCtx(ctx context.Context) ([]any, error) {
	trs, err := t.ExecuteCtx(ctx)
	if err != nil {
		return nil, err
	}
	out := make([]any, len(trs))
	for i, tr := range trs {
		out[i] = tr.Obj
	}
	return out, nil
}

// Next executes the traversal and returns the first result.
func (t *Traversal) Next() (any, error) {
	trs, err := t.Execute()
	if err != nil {
		return nil, err
	}
	if len(trs) == 0 {
		return nil, fmt.Errorf("gremlin: traversal produced no results")
	}
	return trs[0].Obj, nil
}

// Iterate executes the traversal for its side effects.
func (t *Traversal) Iterate() error {
	_, err := t.Execute()
	return err
}

// ToValues executes the traversal and converts every result to a scalar
// value (elements are rejected).
func (t *Traversal) ToValues() ([]types.Value, error) {
	trs, err := t.Execute()
	if err != nil {
		return nil, err
	}
	out := make([]types.Value, len(trs))
	for i, tr := range trs {
		v, ok := tr.value()
		if !ok {
			return nil, fmt.Errorf("gremlin: result %d is not a scalar value", i)
		}
		out[i] = v
	}
	return out, nil
}
