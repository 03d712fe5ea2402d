package gremlin

import (
	"context"
	"fmt"
	"runtime/debug"
	"slices"
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
	goctx   context.Context
	backend graph.Backend
	// batch is the backend's vectorized view (native BatchBackend or the
	// conformance-proven fallback adapter), resolved once per execution.
	batch graph.BatchBackend
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
	// alloc is the query's traverser allocator (see alloc.go).
	alloc travAlloc
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
	ctx := &execCtx{
		goctx:      goctx,
		backend:    t.Src.Backend,
		batch:      graph.Batched(t.Src.Backend),
		batchHist:  t.Src.BatchHist,
		trackPaths: plansPaths(steps),
		limits:     t.Src.Limits.Normalized(),
		alloc:      travAlloc{next: travSlabMin},
	}
	// Only a plan with store() or cap() gets a side-effect store.
	if plansSideEffects(steps) {
		ctx.sideEffects = make(map[string][]any)
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

// plansSideEffects reports whether any step (recursively) writes or reads
// the shared side-effect store, so ExecuteCtx allocates the store only for
// plans that use it.
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
// slot comes from the query's bump allocator; the path extension is
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
			st.calls++
			st.in += int64(len(frame))
			begin := time.Now()
			frame, err = runStep(ctx, s, frame, i == 0)
			st.dur += time.Since(begin)
			st.out += int64(len(frame))
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
			keys := x.Keys
			if len(keys) == 0 { // bare values(): every property, by key
				keys = sortedKeys(el.Props)
			}
			for _, k := range keys {
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
		var out []*Traverser
		for _, tr := range in {
			for _, branch := range x.Branches {
				res, err := runSteps(ctx, branch, []*Traverser{ctx.cloneForSub(tr)})
				if err != nil {
					return nil, err
				}
				out = append(out, res...)
			}
		}
		return out, nil
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

// runSubFilter evaluates a filter sub-traversal for every input traverser,
// returning one verdict per traverser in input order.
func runSubFilter(ctx *execCtx, sub []Step, in []*Traverser) ([]bool, error) {
	keep := make([]bool, len(in))
	for i, tr := range in {
		res, err := runSteps(ctx, sub, []*Traverser{ctx.cloneForSub(tr)})
		if err != nil {
			return nil, err
		}
		keep[i] = len(res) > 0
	}
	return keep, nil
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
	ctx.alloc.reserve(len(els))
	for _, el := range els {
		out = append(out, ctx.derive(nil, el))
	}
	return out, nil
}

func runVertexStep(ctx *execCtx, x *VertexStep, in []*Traverser) ([]*Traverser, error) {
	if x.PushAgg != nil {
		return pushVertexAgg(ctx, x, in)
	}
	// Source vertices: either fused seed ids or incoming vertex traversers,
	// unique in first-appearance order, each with the traversers on it
	// (parents[i] is vids[i]'s). travGroup keeps the dominant
	// one-traverser-per-vertex case slice-free, and a single source needs
	// no index.
	n := len(x.SeedIDs)
	if n == 0 {
		n = len(in)
	}
	vids := make([]string, 0, n)
	parents := make([]travGroup, 0, n)
	var slot map[string]int
	if n > 1 {
		slot = make(map[string]int, n)
	}
	add := func(id string, tr *Traverser) {
		i, ok := slot[id]
		if !ok {
			i = len(vids)
			vids = append(vids, id)
			parents = append(parents, travGroup{})
			if slot != nil {
				slot[id] = i
			}
		}
		parents[i].add(tr)
	}
	if len(x.SeedIDs) > 0 {
		for _, id := range x.SeedIDs {
			add(id, nil)
		}
	} else {
		for _, tr := range in {
			el, ok := tr.element()
			if !ok || el.IsEdge {
				return nil, fmt.Errorf("gremlin: %s() requires vertices", x.Name())
			}
			add(el.ID, tr)
		}
	}
	if len(vids) == 0 {
		return nil, nil
	}

	// Emission is vertex-major: each source vertex, in first-appearance
	// order, contributes its incident edges in the backend's per-vertex
	// adjacency order, attributed to that vertex's traversers in input
	// order.
	return vertexFanout(ctx, x, vids, parents)
}

// pushVertexAgg answers a VertexStep with a fused aggregate. The frontier
// is a multiset, each source vertex once per traverser on it, which is what
// one AggVertexEdges call aggregates over, so the call answers what the
// traverser stream would. bothE() traverses an edge joining two frontier
// vertices once from each end but stores it once, so it only pushes down
// for a single source vertex, whose m traversers AggVertexEdges answers as
// m copies of the one-vertex result; a wider both() frontier materializes.
func pushVertexAgg(ctx *execCtx, x *VertexStep, in []*Traverser) ([]*Traverser, error) {
	ids := x.SeedIDs
	if len(ids) == 0 {
		ids = make([]string, len(in))
		for i, tr := range in {
			el, ok := tr.element()
			if !ok || el.IsEdge {
				return nil, fmt.Errorf("gremlin: %s() requires vertices", x.Name())
			}
			ids[i] = el.ID
		}
	}
	if len(ids) == 0 {
		// A fused aggregate must still emit its empty-stream result
		// (count() of nothing is 0; other aggregates yield NULL), the
		// same as the unfused AggregateStep over an empty frame.
		if x.PushAgg.Kind == graph.AggCount {
			return []*Traverser{{Obj: types.NewInt(0)}}, nil
		}
		return []*Traverser{{Obj: types.Null}}, nil
	}
	if x.Dir != graph.DirBoth || !slices.ContainsFunc(ids, func(id string) bool { return id != ids[0] }) {
		v, err := ctx.backend.AggVertexEdges(ctx.goctx, ids, x.Dir, x.Query, *x.PushAgg)
		if err != nil {
			return nil, err
		}
		return []*Traverser{{Obj: v}}, nil
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

// vertexFanout materializes a VertexStep: it fetches the incident edges of
// the frontier's unique vertices in ONE batched backend call, groups them per
// vertex, and emits traversers (edges for outE/inE/bothE, resolved
// far endpoints for out/in/both) in vertex-major order.
func vertexFanout(ctx *execCtx, x *VertexStep, vids []string, parents []travGroup) ([]*Traverser, error) {
	// groups[i] holds the edges attributed to vids[i], preserving the
	// backend's edge order per vertex.
	var groups [][]*graph.Element
	if x.Dir != graph.DirBoth {
		// Vectorized path: one EdgesForVertices multi-get returns the
		// per-vertex groups directly. For out()/in() the groups are exactly
		// the regroup of a flat VertexEdges call (an edge has one source and
		// one destination, and per-vertex adjacency order is
		// batch-independent), so results match the scalar path bit for bit.
		ctx.observeBatch(len(vids))
		var err error
		groups, err = ctx.batch.EdgesForVertices(ctx.goctx, vids, x.Dir, x.Query)
		if err != nil {
			return nil, err
		}
	} else {
		// both() keeps the flat fetch: VertexEdges returns an edge joining
		// two frontier vertices once, and the regroup below attributes it
		// to both ends.
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
			add(e.OutV, e)
			if e.InV != e.OutV {
				add(e.InV, e)
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
		g := parents[i]
		for _, e := range groups[i] {
			hits = append(hits, edgeHit{edge: e, parent: g.first, fromV: vid})
			for _, p := range g.rest {
				hits = append(hits, edgeHit{edge: e, parent: p, fromV: vid})
			}
		}
	}

	if x.ReturnEdges {
		out := make([]*Traverser, 0, len(hits))
		ctx.alloc.reserve(len(hits))
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
	// Batch by end direction to keep the backend contract simple; one
	// batch and index buffer serve both directions.
	batch := make([]*graph.Element, 0, len(hits))
	idx := make([]int, 0, len(hits))
	for _, dir := range []graph.Direction{graph.DirOut, graph.DirIn} {
		batch, idx = batch[:0], idx[:0]
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
	ctx.alloc.reserve(len(hits) - countNil(resolved))
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

// countNil counts the nil elements of els.
func countNil(els []*graph.Element) int {
	n := 0
	for _, el := range els {
		if el == nil {
			n++
		}
	}
	return n
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
	// EdgeVertices is positional (one result slot per requested edge), so
	// emission is in wants order: input-traverser order, outV before inV
	// for bothV.
	ctx.observeBatch(len(wants))
	resolved := make([]*graph.Element, len(wants))
	for _, dir := range []graph.Direction{graph.DirOut, graph.DirIn} {
		var batch []*graph.Element
		var idx []int
		for i, w := range wants {
			if w.dir == dir {
				el, _ := w.tr.element()
				batch = append(batch, el)
				idx = append(idx, i)
			}
		}
		if len(batch) == 0 {
			continue
		}
		vs, err := ctx.backend.EdgeVertices(ctx.goctx, batch, dir, q)
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
	out := make([]*Traverser, 0, len(wants))
	for i, w := range wants {
		if resolved[i] == nil {
			continue // filtered by q
		}
		out = append(out, ctx.derive(w.tr, resolved[i]))
	}
	return out, nil
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

// sortedKeys returns a property map's keys in order.
func sortedKeys(props map[string]types.Value) []string {
	keys := make([]string, 0, len(props))
	for k := range props {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
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
