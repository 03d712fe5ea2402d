package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"db2graph/internal/graph"
	"db2graph/internal/gserver"
	"db2graph/internal/sql/types"
	"db2graph/internal/telemetry"
)

// ErrShardUnavailable is the typed availability failure: a shard could not
// be reached (transport failure, overload, open circuit breaker) after the
// coordinator exhausted its retry budget. It is deliberately
// distinct from execution failures (a remote TIMEOUT or PARSE passes
// through with its own sentinel): callers can tell "the answer does not
// exist" from "the answer exists but this shard is down" and choose to
// retry, fail over, or — with Config.Degraded — accept marked partial
// results. The coordinator never silently returns wrong or partial data.
var ErrShardUnavailable = errors.New("cluster: shard unavailable")

// errBreakerOpen is the fast-fail cause while a shard's breaker is open.
var errBreakerOpen = errors.New("circuit breaker open")

// ShardError wraps the underlying cause of an unavailable shard with its
// identity. errors.Is(err, ErrShardUnavailable) matches it.
type ShardError struct {
	Shard int
	Addr  string
	Err   error
}

func (e *ShardError) Error() string {
	return fmt.Sprintf("cluster: shard %d (%s) unavailable: %v", e.Shard, e.Addr, e.Err)
}

func (e *ShardError) Unwrap() error { return e.Err }

// Is makes the typed sentinel match without losing the cause chain.
func (e *ShardError) Is(target error) bool { return target == ErrShardUnavailable }

// Config tunes the coordinator. Zero fields select defaults.
type Config struct {
	// Addrs are the shard server addresses; Addrs[i] serves shard i of
	// len(Addrs) under the ShardMap placement.
	Addrs []string

	// Retries is how many times an availability-class failure is retried
	// per shard op, with capped-exponential-backoff-plus-jitter sleeps
	// that respect the caller's context deadline (default 2; negative
	// disables retries).
	Retries int
	// RetryBase is the first backoff delay (default 15ms).
	RetryBase time.Duration
	// RetryMax caps the backoff delay (default 200ms).
	RetryMax time.Duration
	// RequestTimeout bounds one shard exchange when the caller's context
	// carries no deadline (default 10s).
	RequestTimeout time.Duration

	// BreakerThreshold is the consecutive availability-failure count that
	// opens a shard's circuit breaker (default 3).
	BreakerThreshold int
	// BreakerCooloff is how long an open breaker fast-fails before letting
	// one half-open probe through (default 500ms).
	BreakerCooloff time.Duration

	// HealthInterval enables the background health checker: each shard's
	// "!health" endpoint is probed on this period, feeding the breaker so
	// a partitioned shard recovers without query traffic (0 disables).
	HealthInterval time.Duration
	// HealthTimeout bounds one health probe (default 1s).
	HealthTimeout time.Duration
	// HealthBackoffMax caps the equal-jitter exponential backoff the prober
	// applies while a shard stays down: each consecutive failed probe
	// doubles the interval up to this cap, and a success snaps back to
	// HealthInterval (default 8×HealthInterval). Backoff keeps a dead
	// shard from being hammered at full probe rate for its whole outage.
	HealthBackoffMax time.Duration

	// Replicas optionally gives each shard a replication follower:
	// Replicas[i] is shard i's follower address ("" for none). A shard with
	// a follower runs the automatic failover state machine: once its
	// breaker is open AND FailoverThreshold consecutive health probes have
	// failed AND the follower reports healthy, the coordinator bumps the
	// shard's epoch, promotes the follower ("!promote"), reroutes all
	// traffic to it, and fences the deposed primary ("!fence") so a zombie
	// that heals later can never acknowledge a write again.
	Replicas []string
	// FailoverThreshold is how many consecutive failed health probes (with
	// the breaker already open) confirm primary death (default 3). Probes
	// are the confirmation signal on top of the breaker precisely so a
	// transient query-path blip cannot trigger a promotion.
	FailoverThreshold int
	// ReplicaReads opts scatter reads into stale-bounded replica fallback:
	// while a shard's breaker is open (primary down, failover not yet
	// complete), reads may be served by its follower when the follower's
	// reported replication lag is at most MaxReplicaLag records.
	ReplicaReads bool
	// MaxReplicaLag bounds replica-read staleness in oplog records
	// (default 0: the follower must report itself fully caught up).
	MaxReplicaLag int64

	// Degraded opts into partial results: scatter reads tolerate
	// unavailable shards, returning what the live shards hold. Every
	// degraded answer is marked — the cluster_partial_results_total
	// counter increments and any PartialReport attached to the context
	// (WithPartialReport) records which shards were skipped. Point reads
	// routed to a dead shard yield nil slots. Default off: any
	// unavailable shard fails the whole read with ErrShardUnavailable.
	Degraded bool

	// Registry receives per-shard telemetry (request/retry counters,
	// latency histograms, breaker-state gauges). Nil uses
	// telemetry.Default().
	Registry *telemetry.Registry
}

func (c Config) withDefaults() Config {
	if c.Retries == 0 {
		c.Retries = 2
	}
	if c.Retries < 0 {
		c.Retries = 0
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 15 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 200 * time.Millisecond
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooloff <= 0 {
		c.BreakerCooloff = 500 * time.Millisecond
	}
	if c.HealthTimeout <= 0 {
		c.HealthTimeout = time.Second
	}
	if c.HealthBackoffMax <= 0 {
		c.HealthBackoffMax = 8 * c.HealthInterval
	}
	if c.HealthBackoffMax <= 0 { // prober disabled: still caps fence retries
		c.HealthBackoffMax = 2 * time.Second
	}
	if c.FailoverThreshold <= 0 {
		c.FailoverThreshold = 3
	}
	return c
}

// PartialReport collects, per degraded-mode read, which shards were skipped
// and why. Attach one with WithPartialReport before issuing reads. Failures
// are keyed by shard: a read that touches the same unavailable shard through
// several scatter legs (or races a heal/promotion mid-read) still names the
// shard exactly once, never double-counting it.
type PartialReport struct {
	mu       sync.Mutex
	failures map[int]ShardError
}

// Failures returns the recorded shard failures, one entry per shard,
// ordered by shard index.
func (r *PartialReport) Failures() []ShardError {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]ShardError, 0, len(r.failures))
	for _, e := range r.failures {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Shard < out[j].Shard })
	return out
}

func (r *PartialReport) record(e ShardError) {
	r.mu.Lock()
	if r.failures == nil {
		r.failures = make(map[int]ShardError)
	}
	r.failures[e.Shard] = e // latest cause wins; one row per shard
	r.mu.Unlock()
}

type partialReportKey struct{}

// WithPartialReport attaches a PartialReport to ctx; degraded-mode reads
// under ctx record every skipped shard into it.
func WithPartialReport(ctx context.Context) (context.Context, *PartialReport) {
	r := &PartialReport{}
	return context.WithValue(ctx, partialReportKey{}, r), r
}

func partialReportFrom(ctx context.Context) *PartialReport {
	r, _ := ctx.Value(partialReportKey{}).(*PartialReport)
	return r
}

// Coordinator scatters graph reads across shard servers and merges the
// responses in a canonical order, implementing graph.Backend and
// graph.BatchBackend. Merge rules (the shard-count-invariance proof
// obligations, exercised by graphtest.RunClusterFaults):
//
//   - Scans (V, E without id filters) are fetched from every shard, ghost
//     vertices are dropped by ownership, dual-homed edges are deduplicated
//     by id, and the union is sorted by element id. Sorting makes the
//     result independent of both the shard count and per-shard iteration
//     order.
//   - Id-routed reads (VerticesByIDs, EdgesForVertices, V with q.IDs) go
//     only to the owning shards and are reassembled slot-aligned, which
//     preserves the caller's order exactly.
//   - Incident-edge counts (AggVertexEdges with count, the engine's pushed
//     out()/in().count()) route to the owning shards like EdgesForVertices
//     and add up one integer per shard. The owner holds a vertex's whole
//     adjacency, so every counted edge is counted on exactly one shard.
//   - Other derived reads (flat VertexEdges, EdgeVertices, the remaining
//     aggregates) are computed locally from the above so their semantics
//     (cross-vertex dedup, float accumulation order) never depend on how
//     many shards answered.
//
// All reads are idempotent, which is what licenses retries.
type Coordinator struct {
	cfg     Config
	m       ShardMap
	shards  []*shard
	reg     *telemetry.Registry
	partial *telemetry.Counter
}

// Dial creates a coordinator over cfg.Addrs. Connections are established
// lazily, so shards may come up after the coordinator does; Close releases
// everything.
func Dial(cfg Config) (*Coordinator, error) {
	if len(cfg.Addrs) == 0 {
		return nil, errors.New("cluster: no shard addresses")
	}
	if len(cfg.Replicas) != 0 && len(cfg.Replicas) != len(cfg.Addrs) {
		return nil, fmt.Errorf("cluster: %d replica addresses for %d shards", len(cfg.Replicas), len(cfg.Addrs))
	}
	cfg = cfg.withDefaults()
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.Default()
	}
	c := &Coordinator{
		cfg:     cfg,
		m:       NewShardMap(len(cfg.Addrs)),
		reg:     reg,
		partial: reg.Counter("cluster_partial_results_total"),
	}
	reg.Gauge("cluster_shards").Set(int64(len(cfg.Addrs)))
	for i, addr := range cfg.Addrs {
		replica := ""
		if len(cfg.Replicas) > 0 {
			replica = cfg.Replicas[i]
		}
		c.shards = append(c.shards, newShard(i, addr, replica, cfg, reg))
	}
	return c, nil
}

// Close stops health checkers and closes every shard connection.
func (c *Coordinator) Close() error {
	for _, s := range c.shards {
		s.close()
	}
	return nil
}

// Name implements graph.Backend.
func (c *Coordinator) Name() string { return "cluster" }

// Shards returns the shard count.
func (c *Coordinator) Shards() int { return c.m.N() }

// ShardOf returns the shard owning a vertex id.
func (c *Coordinator) ShardOf(id string) int { return c.m.Shard(id) }

// ---------------------------------------------------------------------------
// Scatter plumbing

// absorb resolves per-shard errors after a scatter. In strict mode the
// first failure fails the read; in degraded mode availability failures are
// recorded (counter + optional PartialReport) and their shards contribute
// nothing. Non-availability errors (remote TIMEOUT, PARSE, ...) always
// propagate: they mean the shard answered and the query itself failed.
func (c *Coordinator) absorb(ctx context.Context, errs []error) error {
	for i, err := range errs {
		if err == nil {
			continue
		}
		if c.cfg.Degraded && errors.Is(err, ErrShardUnavailable) {
			c.partial.Inc()
			if r := partialReportFrom(ctx); r != nil {
				var se *ShardError
				if errors.As(err, &se) {
					r.record(*se)
				} else {
					r.record(ShardError{Shard: i, Addr: c.shards[i].addr, Err: err})
				}
			}
			errs[i] = nil
			continue
		}
		return err
	}
	return nil
}

// reply is one shard's decoded read reply: the aligned elements and, for
// EdgesForVertices, the per-vertex groups over them; for CountVertexEdges,
// the count alone.
type reply struct {
	els    []*graph.Element
	groups [][]*graph.Element
	count  int64
}

// broadcast sends a read op to every shard concurrently. The reply of a
// shard skipped in degraded mode is empty.
func (c *Coordinator) broadcast(ctx context.Context, op gserver.GraphOp) ([]reply, error) {
	replies := make([]reply, len(c.shards))
	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for i := range c.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			replies[i], errs[i] = c.shards[i].do(ctx, op)
		}(i)
	}
	wg.Wait()
	if err := c.absorb(ctx, errs); err != nil {
		return nil, err
	}
	return replies, nil
}

// route groups positions of ids by owning shard.
type route struct {
	ids []string
	pos []int
}

func (c *Coordinator) routeIDs(ids []string) map[int]*route {
	routes := make(map[int]*route)
	for i, id := range ids {
		s := c.m.Shard(id)
		r := routes[s]
		if r == nil {
			r = &route{}
			routes[s] = r
		}
		r.ids = append(r.ids, id)
		r.pos = append(r.pos, i)
	}
	return routes
}

// scatterRouted sends one read op per involved shard concurrently. A shard
// skipped in degraded mode has no entry in the result.
func (c *Coordinator) scatterRouted(ctx context.Context, routes map[int]*route,
	mkOp func(r *route) gserver.GraphOp) (map[int]reply, error) {
	replies := make(map[int]reply, len(routes))
	errAt := make([]error, len(c.shards))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for s, r := range routes {
		wg.Add(1)
		go func(s int, r *route) {
			defer wg.Done()
			rep, err := c.shards[s].do(ctx, mkOp(r))
			mu.Lock()
			if err != nil {
				errAt[s] = err
			} else {
				replies[s] = rep
			}
			mu.Unlock()
		}(s, r)
	}
	wg.Wait()
	if err := c.absorb(ctx, errAt); err != nil {
		return nil, err
	}
	return replies, nil
}

// ---------------------------------------------------------------------------
// graph.BatchBackend

// VerticesByIDs implements graph.BatchBackend: ids are routed to their
// owning shards and the aligned groups are reassembled slot-exact. In
// degraded mode, slots owned by an unavailable shard come back nil.
func (c *Coordinator) VerticesByIDs(ctx context.Context, ids []string, q *graph.Query) ([]*graph.Element, error) {
	if err := graph.Interrupted(ctx); err != nil {
		return nil, err
	}
	if len(ids) == 0 {
		return nil, nil
	}
	routes := c.routeIDs(ids)
	replies, err := c.scatterRouted(ctx, routes, func(r *route) gserver.GraphOp {
		return gserver.GraphOp{Method: gserver.OpVerticesByIDs, IDs: r.ids, Query: q}
	})
	if err != nil {
		return nil, err
	}
	out := make([]*graph.Element, len(ids))
	for s, r := range routes {
		rep, ok := replies[s]
		if !ok {
			continue // degraded: shard skipped, slots stay nil
		}
		if len(rep.els) != len(r.ids) || rep.groups != nil {
			return nil, fmt.Errorf("cluster: shard %d returned %d vertices for %d ids", s, len(rep.els), len(r.ids))
		}
		for j, el := range rep.els {
			out[r.pos[j]] = el
		}
	}
	return out, nil
}

// EdgesForVertices implements graph.BatchBackend. The Partition invariant
// (every edge lives with both endpoints) means the owning shard holds each
// vertex's complete adjacency, so per-vertex groups route like point reads
// and q passes through unchanged.
func (c *Coordinator) EdgesForVertices(ctx context.Context, vids []string, dir graph.Direction, q *graph.Query) ([][]*graph.Element, error) {
	if err := graph.Interrupted(ctx); err != nil {
		return nil, err
	}
	if len(vids) == 0 {
		return nil, nil
	}
	routes := c.routeIDs(vids)
	replies, err := c.scatterRouted(ctx, routes, func(r *route) gserver.GraphOp {
		return gserver.GraphOp{Method: gserver.OpEdgesForVertices, IDs: r.ids, Dir: dir, Query: q}
	})
	if err != nil {
		return nil, err
	}
	out := make([][]*graph.Element, len(vids))
	for s, r := range routes {
		rep, ok := replies[s]
		if !ok {
			continue // degraded: groups for this shard stay nil
		}
		if len(rep.groups) != len(r.ids) {
			return nil, fmt.Errorf("cluster: shard %d returned %d groups for %d vertices", s, len(rep.groups), len(r.ids))
		}
		for j, g := range rep.groups {
			out[r.pos[j]] = g
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// graph.Backend

// V implements graph.Backend. Id-filtered lookups route to owners and
// preserve q.IDs order (duplicates included, matching single-node
// semantics); scans broadcast, drop ghosts by ownership, and merge in
// canonical id order.
func (c *Coordinator) V(ctx context.Context, q *graph.Query) ([]*graph.Element, error) {
	if err := graph.Interrupted(ctx); err != nil {
		return nil, err
	}
	if q != nil && len(q.IDs) > 0 {
		sub := q.Clone()
		ids := sub.IDs
		sub.IDs = nil
		els, err := c.VerticesByIDs(ctx, ids, sub)
		if err != nil {
			return nil, err
		}
		var out []*graph.Element
		for _, el := range els {
			if el != nil {
				out = append(out, el)
			}
		}
		return out, nil
	}
	replies, err := c.broadcast(ctx, gserver.GraphOp{Method: gserver.OpV, Query: q})
	if err != nil {
		return nil, err
	}
	var merged []*graph.Element
	for i, rep := range replies {
		for _, el := range rep.els {
			if el != nil && c.m.Shard(el.ID) == i {
				merged = append(merged, el)
			}
		}
	}
	sortByID(merged)
	return merged, nil
}

// E implements graph.Backend. Edge ids do not hash to shards, so every E
// read broadcasts; dual-homed copies collapse in the id-sorted merge, and
// only then does an edge repeat once per occurrence of its id in q.IDs.
func (c *Coordinator) E(ctx context.Context, q *graph.Query) ([]*graph.Element, error) {
	if err := graph.Interrupted(ctx); err != nil {
		return nil, err
	}
	if q == nil {
		q = &graph.Query{}
	}
	replies, err := c.broadcast(ctx, gserver.GraphOp{Method: gserver.OpE, Query: q})
	if err != nil {
		return nil, err
	}
	var merged []*graph.Element
	for _, rep := range replies {
		for _, el := range rep.els {
			if el != nil {
				merged = append(merged, el)
			}
		}
	}
	sortByID(merged)
	return repeatByIDs(dedupSortedByID(merged), q.IDs), nil
}

// VertexEdges implements graph.Backend: per-vertex groups are fetched from
// the owning shards, then flattened locally in vid order with the
// single-node cross-vertex dedup.
func (c *Coordinator) VertexEdges(ctx context.Context, vids []string, dir graph.Direction, q *graph.Query) ([]*graph.Element, error) {
	groups, err := c.EdgesForVertices(ctx, vids, dir, q)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	var out []*graph.Element
	for _, g := range groups {
		for _, e := range g {
			if e == nil || seen[e.ID] {
				continue
			}
			seen[e.ID] = true
			out = append(out, e)
		}
	}
	return out, nil
}

// EdgeVertices implements graph.Backend. Endpoint ids are extracted from
// the edges locally, resolved with one routed VerticesByIDs scatter, and
// reassembled aligned with edges (nil where filtered). q's id filter is
// applied locally since VerticesByIDs replaces ids by contract.
func (c *Coordinator) EdgeVertices(ctx context.Context, edges []*graph.Element, dir graph.Direction, q *graph.Query) ([]*graph.Element, error) {
	if err := graph.Interrupted(ctx); err != nil {
		return nil, err
	}
	if len(edges) == 0 {
		return nil, nil
	}
	sub := q.Clone()
	sub.IDs = nil
	ids := make([]string, len(edges))
	for i, e := range edges {
		if dir == graph.DirIn {
			ids[i] = e.InV
		} else {
			ids[i] = e.OutV
		}
	}
	els, err := c.VerticesByIDs(ctx, ids, sub)
	if err != nil {
		return nil, err
	}
	for i, v := range els {
		if v != nil && q != nil && !q.MatchesIDs(v) {
			els[i] = nil
		}
	}
	return els, nil
}

// ---------------------------------------------------------------------------
// Aggregates
//
// An incident-edge count is answered on the shards: the vertex ids route to
// their owners, each owner counts with its own backend, and the coordinator
// adds the counts. That is exact because of the Partition invariant (the
// owner shard holds a vertex's whole adjacency):
//
//   - an out() (in()) edge has exactly one source (destination) vertex, so
//     it is counted on exactly one shard, the owner of that vertex;
//   - ghost vertices are never asked, since ids route to owners only, so a
//     dual-homed edge is counted only by the owner of the endpoint it is
//     counted from;
//   - a repeated id routes to its one owner every time, and the owner's
//     backend counts it once per occurrence, as AggVertexEdges' multiset
//     contract asks; the CountVertexEdges frame carries the repeats.
//
// both() is exact only when every id routes to one shard: an edge joining
// ids owned by two shards would be counted on both. A both() count whose
// ids span shards, and every other aggregate, is computed locally over the
// canonically merged read instead: per-shard vertex counts would include
// ghosts, per-shard edge scans would double-count dual-homed edges, and
// float sums are not bitwise associative (a different shard count would
// change the accumulation order). Only the projection is narrowed to the
// aggregated key, so the local read ships the minimum data the aggregate
// needs.

func pruneForAgg(q *graph.Query, agg graph.Agg) *graph.Query {
	out := q.Clone()
	if out.Projection == nil {
		if agg.Kind == graph.AggCount {
			out.Projection = []string{}
		} else {
			out.Projection = []string{agg.Key}
		}
	}
	return out
}

// AggV implements graph.Backend.
func (c *Coordinator) AggV(ctx context.Context, q *graph.Query, agg graph.Agg) (types.Value, error) {
	els, err := c.V(ctx, pruneForAgg(q, agg))
	if err != nil {
		return types.Null, err
	}
	return graph.AggregateElements(els, agg)
}

// AggE implements graph.Backend.
func (c *Coordinator) AggE(ctx context.Context, q *graph.Query, agg graph.Agg) (types.Value, error) {
	els, err := c.E(ctx, pruneForAgg(q, agg))
	if err != nil {
		return types.Null, err
	}
	return graph.AggregateElements(els, agg)
}

// AggVertexEdges implements graph.Backend. A count is answered by the
// owner shards (see Aggregates above) unless it is a both() count whose ids
// span shards.
func (c *Coordinator) AggVertexEdges(ctx context.Context, vids []string, dir graph.Direction, q *graph.Query, agg graph.Agg) (types.Value, error) {
	if agg.Kind == graph.AggCount {
		if routes := c.routeIDs(vids); dir != graph.DirBoth || len(routes) <= 1 {
			return c.countVertexEdges(ctx, routes, dir, q)
		}
	}
	els, err := c.VertexEdges(ctx, vids, dir, pruneForAgg(q, agg))
	if err != nil {
		return types.Null, err
	}
	return graph.AggregateVertexEdges(els, vids, dir, agg)
}

// countVertexEdges adds up the owner shards' incident-edge counts. A shard
// skipped in degraded mode contributes 0.
func (c *Coordinator) countVertexEdges(ctx context.Context, routes map[int]*route, dir graph.Direction, q *graph.Query) (types.Value, error) {
	if err := graph.Interrupted(ctx); err != nil {
		return types.Null, err
	}
	replies, err := c.scatterRouted(ctx, routes, func(r *route) gserver.GraphOp {
		return gserver.GraphOp{Method: gserver.OpCountVertexEdges, IDs: r.ids, Dir: dir, Query: q}
	})
	if err != nil {
		return types.Null, err
	}
	var n int64
	for _, rep := range replies {
		n += rep.count
	}
	return types.NewInt(n), nil
}

func sortByID(els []*graph.Element) {
	sort.Slice(els, func(i, j int) bool { return els[i].ID < els[j].ID })
}

func dedupSortedByID(els []*graph.Element) []*graph.Element {
	out := els[:0]
	for i, el := range els {
		if i > 0 && el.ID == els[i-1].ID {
			continue
		}
		out = append(out, el)
	}
	return out
}

// repeatByIDs copies each element once per occurrence of its id in ids, as
// g.E('e1', 'e1') has two traversers.
func repeatByIDs(els []*graph.Element, ids []string) []*graph.Element {
	if len(ids) < 2 {
		return els
	}
	n := make(map[string]int, len(ids))
	for _, id := range ids {
		n[id]++
	}
	if len(n) == len(ids) {
		return els
	}
	out := make([]*graph.Element, 0, len(els))
	for _, el := range els {
		for k := max(n[el.ID], 1); k > 0; k-- {
			out = append(out, el)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Per-shard client: retries, breaker, health

// lazyClient dials on first use so the coordinator can start before its
// shards (and survive a shard restart: the underlying client redials).
type lazyClient struct {
	addr string
	opts gserver.Options

	mu sync.Mutex
	c  *gserver.Client
}

func (l *lazyClient) get() (*gserver.Client, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.c == nil {
		c, err := gserver.DialOptions(l.addr, l.opts)
		if err != nil {
			return nil, err
		}
		l.c = c
	}
	return l.c, nil
}

func (l *lazyClient) close() {
	l.mu.Lock()
	c := l.c
	l.c = nil
	l.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// setAddr retargets the slot (failover reroute): the current connection is
// discarded and the next get() dials the new address.
func (l *lazyClient) setAddr(addr string) {
	l.mu.Lock()
	l.addr = addr
	c := l.c
	l.c = nil
	l.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// drop discards the given client if it is still current, closing its
// connection out from under any in-flight exchange (which then fails
// immediately, releasing the client mutex) so the next get() dials fresh.
// A nil or stale argument is a no-op: the blocked exchange this drop
// targets is identified exactly, never a replacement a concurrent request
// already dialed.
func (l *lazyClient) drop(c *gserver.Client) {
	if c == nil {
		return
	}
	l.mu.Lock()
	if l.c == c {
		l.c = nil
	}
	l.mu.Unlock()
	c.Abort()
	// Close serializes behind the aborted exchange's (now immediate)
	// failure; run it off-path so abandonment never blocks the caller.
	go c.Close()
}

type shard struct {
	idx  int
	addr string // initial primary address; see activeAddr for the live one
	cfg  Config

	// conn carries query attempts. health has its own connection so a
	// probe is never serialized behind a stuck query exchange.
	conn   *lazyClient
	health *lazyClient

	breaker *Breaker

	// Failover state (rmu): the live endpoint, the follower (if any), and
	// the probe-confirmation counter feeding the state machine.
	rmu         sync.Mutex
	active      string // address currently serving this shard
	replicaAddr string // follower address; "" when none or consumed by failover
	deposed     string // fenced (or to-be-fenced) old primary after failover
	failedOver  bool
	probeFails  int         // consecutive failed health probes
	replicaCl   *lazyClient // health/control/read connection to the follower

	epoch atomic.Uint64 // replication epoch this coordinator believes current

	requests   *telemetry.Counter
	failures   *telemetry.Counter
	retries    *telemetry.Counter
	probes     *telemetry.Counter
	failovers  *telemetry.Counter
	replReads  *telemetry.Counter
	indetermin *telemetry.Counter
	latency    *telemetry.Histogram
	up         *telemetry.Gauge
	epochGauge *telemetry.Gauge

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

func newShard(idx int, addr, replicaAddr string, cfg Config, reg *telemetry.Registry) *shard {
	label := `{shard="` + strconv.Itoa(idx) + `"}`
	// The coordinator owns the whole retry policy, so the underlying
	// clients get zero internal retries (otherwise attempts would multiply)
	// and the per-attempt timeout applies only when the caller's context
	// has no deadline of its own.
	opts := gserver.Options{Timeout: cfg.RequestTimeout, DialRetries: -1}
	s := &shard{
		idx:         idx,
		addr:        addr,
		active:      addr,
		replicaAddr: replicaAddr,
		cfg:         cfg,
		conn:        &lazyClient{addr: addr, opts: opts},
		health:      &lazyClient{addr: addr, opts: gserver.Options{Timeout: cfg.HealthTimeout, DialRetries: -1}},
		breaker: NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooloff,
			reg.Gauge("cluster_breaker_state"+label),
			reg.Counter("cluster_breaker_opens_total"+label)),
		requests:   reg.Counter("cluster_requests_total" + label),
		failures:   reg.Counter("cluster_failures_total" + label),
		retries:    reg.Counter("cluster_retries_total" + label),
		probes:     reg.Counter("cluster_health_probes_total" + label),
		failovers:  reg.Counter("cluster_failovers_total" + label),
		replReads:  reg.Counter("cluster_replica_reads_total" + label),
		indetermin: reg.Counter("cluster_indeterminate_writes_total" + label),
		latency:    reg.Histogram("cluster_request_seconds" + label),
		up:         reg.Gauge("cluster_shard_up" + label),
		epochGauge: reg.Gauge("cluster_shard_epoch" + label),
	}
	s.epoch.Store(1)
	s.epochGauge.Set(1)
	if replicaAddr != "" {
		s.replicaCl = &lazyClient{addr: replicaAddr, opts: gserver.Options{Timeout: cfg.HealthTimeout, DialRetries: -1}}
	}
	s.up.Set(1)
	s.stop = make(chan struct{})
	if cfg.HealthInterval > 0 {
		s.wg.Add(1)
		go s.healthLoop()
	}
	return s
}

func (s *shard) close() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.wg.Wait()
	s.conn.close()
	s.health.close()
	s.rmu.Lock()
	rcl := s.replicaCl
	s.rmu.Unlock()
	if rcl != nil {
		rcl.close()
	}
}

// do performs one idempotent read against this shard under the full
// robustness pipeline — breaker admission, abandonable attempts, and jittered
// capped-backoff retries that never sleep past the caller's deadline — and
// returns the decoded reply. Availability-class failures come back as
// *ShardError (matching ErrShardUnavailable); execution failures pass
// through untouched.
func (s *shard) do(ctx context.Context, op gserver.GraphOp) (reply, error) {
	s.requests.Inc()
	ok, probe := s.breaker.Allow()
	if !ok {
		// Primary unreachable. Before fast-failing, a read may be served
		// from the shard's replication follower when the caller opted in
		// and the follower's reported lag is within bounds.
		if rep, served := s.tryReplicaRead(ctx, op); served {
			return rep, nil
		}
		s.failures.Inc()
		return reply{}, &ShardError{Shard: s.idx, Addr: s.addr, Err: errBreakerOpen}
	}
	// A half-open probe must resolve the breaker on EVERY exit path. Paths
	// that produce no availability verdict — the caller's context ends
	// before the shard answers, or the retry budget drains on overload
	// fast-fails alone — revert the breaker to open instead of leaving it
	// wedged half-open, where it would reject all traffic forever.
	resolved := false
	if probe {
		defer func() {
			if !resolved {
				s.breaker.AbandonProbe()
			}
		}()
	}
	var lastErr error
	for attempt := 0; attempt <= s.cfg.Retries; attempt++ {
		if attempt > 0 {
			d := jitteredBackoff(attempt, s.cfg.RetryBase, s.cfg.RetryMax)
			if dl, ok := ctx.Deadline(); ok && time.Until(dl) <= d {
				break // the deadline cannot cover the backoff sleep
			}
			select {
			case <-ctx.Done():
				attempt = s.cfg.Retries + 1 // defeat the loop; report lastErr
				continue
			case <-time.After(d):
			}
			s.retries.Inc()
		}
		rep, err := s.attempt(ctx, op)
		if err == nil {
			resolved = true
			s.breaker.Success()
			return rep, nil
		}
		lastErr = err
		if !availabilityFailure(err) {
			if !callerContextErr(err) {
				// The shard answered; the query itself failed (TIMEOUT,
				// PARSE, BUDGET, ...). That still proves the shard is
				// alive, so it resolves a probe as a success. Pass the
				// typed error through, don't retry.
				resolved = true
				s.breaker.Success()
			}
			return reply{}, err
		}
		s.failures.Inc()
		if !errors.Is(err, gserver.ErrOverloaded) {
			// Overload means alive-but-full: retry without counting toward
			// opening the breaker.
			resolved = true
			s.breaker.Failure()
		}
		if ctx.Err() != nil {
			break
		}
	}
	return reply{}, &ShardError{Shard: s.idx, Addr: s.addr, Err: lastErr}
}

// decode extracts the payload of this shard's reply to a read op: the count
// of a CountVertexEdges reply, the element batch of any other.
func (s *shard) decode(op gserver.GraphOp, resp gserver.Response) (reply, error) {
	var rep reply
	var err error
	if op.Method == gserver.OpCountVertexEdges {
		rep.count, err = resp.EdgeCount()
	} else {
		rep.els, rep.groups, err = resp.ElementBatch()
	}
	if err != nil {
		return reply{}, fmt.Errorf("cluster: shard %d: %w", s.idx, err)
	}
	return rep, nil
}

// attempt performs one exchange. It runs on its own goroutine so the
// caller's context can end it: when the context is done first, the
// exchange's connection is torn down (drop) so the next request on this
// shard dials fresh instead of serializing behind a dead exchange draining
// against its socket deadline, and the late outcome parks in the buffered
// channel.
func (s *shard) attempt(ctx context.Context, op gserver.GraphOp) (reply, error) {
	type outcome struct {
		rep reply
		err error
	}
	ch := make(chan outcome, 1)
	// live publishes the exchange's client before it starts, so abandonment
	// targets exactly the client that is blocked (and never a fresh one a
	// concurrent request just dialed).
	var live atomic.Pointer[gserver.Client]
	go func() {
		cl, err := s.conn.get()
		var rep reply
		if err == nil {
			live.Store(cl)
			start := time.Now()
			var resp gserver.Response
			resp, err = cl.GraphOpCtx(ctx, op)
			// Decoding the reply payload is part of the exchange, as
			// reading the binary frame around it is. The payload is the
			// client's own copy, so decoding it here, after the client
			// is free for the next exchange, is safe.
			if err == nil {
				rep, err = s.decode(op, resp)
			}
			if err == nil {
				s.latency.Observe(time.Since(start))
			}
		}
		ch <- outcome{rep: rep, err: err}
	}()
	select {
	case o := <-ch:
		return o.rep, o.err
	case <-ctx.Done():
		s.conn.drop(live.Load())
		return reply{}, ctx.Err()
	}
}

// healthLoop probes "!health" on the shard's dedicated connection, feeding
// the breaker and the cluster_shard_up gauge. It is how an open breaker
// discovers recovery without waiting for query traffic to probe it. While
// the shard stays down, the probe interval backs off exponentially with
// equal jitter up to HealthBackoffMax — a dead shard is confirmed dead, not
// hammered — and snaps back to HealthInterval on the first success.
func (s *shard) healthLoop() {
	defer s.wg.Done()
	interval := s.cfg.HealthInterval
	t := time.NewTimer(interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			if s.probe() {
				interval = s.cfg.HealthInterval
			} else {
				interval *= 2
				if interval > s.cfg.HealthBackoffMax {
					interval = s.cfg.HealthBackoffMax
				}
			}
			// Equal jitter: half fixed, half uniform, so probers against a
			// recovering shard spread out instead of thundering together.
			half := interval / 2
			t.Reset(half + time.Duration(rand.Int63n(int64(half)+1)))
		}
	}
}

// probe performs one health check against the shard's active endpoint,
// reporting success. Failures feed the breaker and, when the shard has a
// follower, the failover state machine.
func (s *shard) probe() bool {
	s.probes.Inc()
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.HealthTimeout)
	defer cancel()
	cl, err := s.health.get()
	if err == nil {
		_, err = cl.HealthCtx(ctx)
	}
	if err != nil {
		s.up.Set(0)
		s.breaker.Failure()
		// Drop the probe connection so the next probe redials instead of
		// reusing poisoned framing.
		s.health.close()
		s.confirmDead()
		return false
	}
	s.up.Set(1)
	s.breaker.Success()
	s.rmu.Lock()
	s.probeFails = 0
	s.rmu.Unlock()
	return true
}

// callerContextErr reports whether err is the caller's own context ending
// (cancellation or deadline). Such errors carry no information about the
// shard: not an availability failure, but not proof of liveness either.
func callerContextErr(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// availabilityFailure classifies an error from one exchange: true means
// "the shard did not give an answer" (dial/transport failure, overload
// fast-fail, caller-side socket timeout) — retryable and breaker-relevant.
// False means the shard answered with a typed execution failure, or the
// caller's own context ended.
func availabilityFailure(err error) bool {
	switch {
	case callerContextErr(err):
		return false
	case errors.Is(err, gserver.ErrOverloaded):
		return true
	case errors.Is(err, gserver.ErrTimeout), errors.Is(err, gserver.ErrBudget),
		errors.Is(err, gserver.ErrPanic), errors.Is(err, gserver.ErrParse),
		errors.Is(err, gserver.ErrReadOnly), errors.Is(err, gserver.ErrStorage),
		errors.Is(err, gserver.ErrBadRequest):
		return false
	default:
		// Everything else is transport-class: dial refusal, connection
		// reset, EOF, socket deadline on a blackholed connection, decode
		// failure on a torn stream.
		return true
	}
}

// jitteredBackoff computes the capped-exponential retry delay with equal
// jitter (half fixed, half uniform) so concurrent coordinators retrying
// against a recovering shard spread out.
func jitteredBackoff(attempt int, base, max time.Duration) time.Duration {
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(half)+1))
}

var (
	_ graph.Backend      = (*Coordinator)(nil)
	_ graph.BatchBackend = (*Coordinator)(nil)
)
