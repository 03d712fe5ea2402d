// Differential conformance for the sharded cluster coordinator. The suite
// deploys the backend under test as N partitioned gserver shards behind a
// cluster.Coordinator and proves two things:
//
//  1. Shard-count invariance: the full differential script battery must be
//     BIT-IDENTICAL between a 1-shard deployment (the single-node golden)
//     and 2- and 3-shard deployments — same objects, same order. Sharding
//     is pure deployment topology; any observable difference is a bug.
//     Pushed counts, which the coordinator answers with per-owner shard
//     counts, are also checked against the raw backend's unoptimized plan
//     (graphtest.CheckDupFrontierCounts), its own AggVertexEdges and a
//     plain count over the dataset (graphtest.CheckAggCounts); a
//     duplicated middle frontier costs one CountVertexEdges per owner
//     shard (checkDupFrontierRequests). Scripts
//     that read properties after hops, whose replies carry only the
//     projected properties, are checked against the unoptimized plan
//     (graphtest.CheckLiveness).
//  2. Fault semantics: under injected network faults (delays, drops,
//     resets, partitions, via the chaos listener wrapper) every query
//     either returns the golden answer or a typed error
//     (ErrShardUnavailable / TIMEOUT / context deadline) — never silently
//     wrong or partial results. Degraded mode, the one sanctioned partial
//     path, must mark its partials (counter + PartialReport).
//
// Run it under -race: retries, health probes, and breaker
// transitions all race with query traffic by design.
//
// This lives in its own package (rather than graphtest proper) because it
// imports gserver and cluster; gserver's internal tests import graphtest,
// so folding it into graphtest would create an import cycle.
package clustertest

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"testing"
	"time"

	"db2graph/internal/cluster"
	"db2graph/internal/graph"
	"db2graph/internal/graph/graphtest"
	"db2graph/internal/gremlin"
	"db2graph/internal/gserver"
	"db2graph/internal/sql/types"
	"db2graph/internal/telemetry"
)

// battery is the shared differential script battery plus the pushed-count
// scripts: the sharded coordinator is held to the exact same scripts as the
// cached/vectorized read paths, and its shard-side counts to the
// single-node count.
var battery = append(graphtest.DifferentialScripts(), graphtest.PushedAggScripts()...)

// clusterHarness is one live sharded deployment: N backends behind N
// gservers, each wrapped in a chaos listener, fronted by one coordinator.
type clusterHarness struct {
	coord   *cluster.Coordinator
	src     *gremlin.Source
	chaos   []*cluster.Chaos
	servers []*gserver.Server
	reg     *telemetry.Registry
}

// startCluster partitions the canonical dataset across n shards, builds one
// backend per shard with build, and wires servers + coordinator. cfg.Addrs
// and cfg.Registry are filled in (reg may be shared across harnesses to
// accumulate fault telemetry for the observability phase).
func startCluster(t *testing.T, build func(vertices, edges []*graph.Element) (graph.Backend, error),
	n int, cfg cluster.Config, reg *telemetry.Registry) *clusterHarness {
	t.Helper()
	vs, es := graphtest.Dataset()
	parts := cluster.Partition(vs, es, n)
	h := &clusterHarness{reg: reg}
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		b, err := build(parts[i].Vertices, parts[i].Edges)
		if err != nil {
			t.Fatalf("build shard %d: %v", i, err)
		}
		srv := gserver.NewWithConfig(gremlin.NewSource(b), gserver.Config{
			Registry: telemetry.NewRegistry(), // shard-local; keep coordinator metrics clean
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen shard %d: %v", i, err)
		}
		ch := cluster.WrapListener(ln)
		addrs[i] = srv.Serve(ch)
		h.chaos = append(h.chaos, ch)
		h.servers = append(h.servers, srv)
	}
	cfg.Addrs = addrs
	cfg.Registry = reg
	coord, err := cluster.Dial(cfg)
	if err != nil {
		t.Fatalf("dial coordinator: %v", err)
	}
	h.coord = coord
	h.src = gremlin.NewSource(coord)
	t.Cleanup(func() { h.close() })
	return h
}

func (h *clusterHarness) close() {
	if h.coord != nil {
		h.coord.Close()
		h.coord = nil
	}
	for _, ch := range h.chaos {
		ch.Heal()
	}
	for _, srv := range h.servers {
		srv.Close()
	}
	h.servers = nil
}

// heal clears every injected fault on every shard.
func (h *clusterHarness) heal() {
	for _, ch := range h.chaos {
		ch.Heal()
	}
}

// runBattery executes the differential script battery and returns the
// rendered results, one string per script.
func (h *clusterHarness) runBattery(t *testing.T) []string {
	t.Helper()
	out := make([]string, len(battery))
	for i, script := range battery {
		res, err := gremlin.RunScript(h.src, script, nil)
		if err != nil {
			t.Fatalf("cluster battery %q: %v", script, err)
		}
		out[i] = graphtest.RenderObjs(res)
	}
	return out
}

// typedAvailabilityError asserts err is one of the sanctioned typed
// failures — never a silent success and never an untyped mess.
func typedAvailabilityError(err error) bool {
	return errors.Is(err, cluster.ErrShardUnavailable) ||
		errors.Is(err, gserver.ErrTimeout) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, context.Canceled)
}

// checkEdgeCounts holds the coordinator's incident-edge counts to the raw
// backend's own AggVertexEdges: out()/in() and single-shard both() counts
// answered by the owner shards, and both() counts whose ids span shards,
// answered locally. The id sets cross shards and repeat or miss ids; the
// queries filter by label, edge id and edge property, and push a limit.
func checkEdgeCounts(t *testing.T, coord *cluster.Coordinator, raw graph.Backend, vertices, edges []*graph.Element) {
	t.Helper()
	ctx := context.Background()
	var all, owned []string
	for _, v := range vertices {
		all = append(all, v.ID)
		if coord.ShardOf(v.ID) == coord.ShardOf(vertices[0].ID) {
			owned = append(owned, v.ID)
		}
	}
	idSets := [][]string{all, owned, {"d11"}, append([]string{"nope", "p1", "p1"}, all...)}
	for _, e := range edges {
		if coord.ShardOf(e.OutV) != coord.ShardOf(e.InV) {
			idSets = append(idSets, []string{e.OutV, e.InV})
			break
		}
	}
	queries := []*graph.Query{
		nil,
		{Labels: []string{"isa"}},
		{IDs: []string{"e4", "e5", "e5"}},
		{Preds: []graph.Pred{{Key: "description", Op: graph.OpGt, Value: types.NewString("2018")}}},
	}
	count := graph.Agg{Kind: graph.AggCount}
	for _, ids := range idSets {
		for _, dir := range []graph.Direction{graph.DirOut, graph.DirIn, graph.DirBoth} {
			for _, q := range queries {
				want, err := raw.AggVertexEdges(ctx, ids, dir, q, count)
				if err != nil {
					t.Fatalf("raw AggVertexEdges: %v", err)
				}
				got, err := coord.AggVertexEdges(ctx, ids, dir, q, count)
				if err != nil {
					t.Fatalf("shards=%d AggVertexEdges(%v, %s, %+v): %v", coord.Shards(), ids, dir, q, err)
				}
				if got != want {
					t.Fatalf("shards=%d AggVertexEdges(%v, %s, %+v) = %v, raw backend says %v",
						coord.Shards(), ids, dir, q, got, want)
				}
			}
		}
	}
}

// instrumented wraps build so that every shard's backend records its calls
// in reg.
func instrumented(build func(vertices, edges []*graph.Element) (graph.Backend, error),
	reg *telemetry.Registry) func(vertices, edges []*graph.Element) (graph.Backend, error) {
	return func(vertices, edges []*graph.Element) (graph.Backend, error) {
		b, err := build(vertices, edges)
		if err != nil {
			return nil, err
		}
		return graph.Instrument(b, reg), nil
	}
}

// checkDupFrontierRequests holds the coordinator to three backend calls for
// graphtest.DupMiddleCountScript, whose middle frontier repeats d11 and
// not d10, and its count hop to one CountVertexEdges per shard owning a
// middle vertex: the shards' backends, instrumented into shardReg under
// name, see one AggVertexEdges each.
func checkDupFrontierRequests(t *testing.T, coord *cluster.Coordinator, shardReg *telemetry.Registry, name string) {
	t.Helper()
	before := graphtest.BackendCalls(shardReg, name)["AggVertexEdges"]
	graphtest.CheckDupFrontierCalls(t, coord)
	want := int64(1)
	if coord.ShardOf("d11") != coord.ShardOf("d10") {
		want = 2
	}
	if got := graphtest.BackendCalls(shardReg, name)["AggVertexEdges"] - before; got != want {
		t.Fatalf("shards=%d %s: shards counted %d times, want one CountVertexEdges per owner shard (%d)",
			coord.Shards(), graphtest.DupMiddleCountScript, got, want)
	}
}

func sortedIDs(els []*graph.Element) string {
	ids := make([]string, 0, len(els))
	for _, el := range els {
		if el != nil {
			ids = append(ids, el.ID)
		}
	}
	sort.Strings(ids)
	return strings.Join(ids, ",")
}

// sumByPrefix totals every metric whose name starts with prefix.
func sumByPrefix(m map[string]float64, prefix string) float64 {
	var sum float64
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			sum += v
		}
	}
	return sum
}

// RunClusterFaults executes the cluster differential + fault-injection
// suite against shards built by build. build must return a fresh, isolated
// backend instance per call, loaded with exactly the given elements.
func RunClusterFaults(t *testing.T, build func(vertices, edges []*graph.Element) (graph.Backend, error)) {
	t.Helper()
	ctx := context.Background()

	// Calm configuration for the correctness phases: generous timeouts, no
	// background probes racing the battery.
	calm := func() cluster.Config {
		return cluster.Config{
			Retries:        2,
			RetryBase:      10 * time.Millisecond,
			RetryMax:       50 * time.Millisecond,
			RequestTimeout: 5 * time.Second,
		}
	}

	// Phase 1: the golden answers come from a 1-shard deployment — a
	// legitimate single-node cluster, so the whole wire/merge path is in
	// the golden too and any divergence at N>1 is attributable to sharding.
	h1 := startCluster(t, build, 1, calm(), telemetry.NewRegistry())
	golden := h1.runBattery(t)
	graphtest.CheckBothV(t, h1.src)
	// Property liveness: the optimized plans, whose replies carry only the
	// projected properties, against the unoptimized plan's full elements.
	liveGolden := graphtest.LivenessAnswers(t, h1.src.WithoutStrategies())
	graphtest.CheckLiveness(t, liveGolden, h1.src)
	graphtest.CheckAggCounts(t, h1.coord)
	h1.close()

	// Raw-backend content parity: the canonical merge may reorder scans
	// relative to a raw backend, but it must never add, drop, or duplicate
	// elements. Compare order-insensitively against an unsharded build.
	vs, es := graphtest.Dataset()
	rawB, err := build(vs, es)
	if err != nil {
		t.Fatalf("build raw backend: %v", err)
	}
	rawV, err := rawB.V(ctx, &graph.Query{})
	if err != nil {
		t.Fatalf("raw V: %v", err)
	}
	rawE, err := rawB.E(ctx, &graph.Query{})
	if err != nil {
		t.Fatalf("raw E: %v", err)
	}
	rawAdj, err := rawB.VertexEdges(ctx, []string{"p1", "p2", "p3"}, graph.DirBoth, &graph.Query{})
	if err != nil {
		t.Fatalf("raw VertexEdges: %v", err)
	}

	// Phase 2: shard-count invariance plus raw parity at N=2 and N=3.
	for _, n := range []int{2, 3} {
		t.Run(fmt.Sprintf("identical/shards=%d", n), func(t *testing.T) {
			shardReg := telemetry.NewRegistry()
			h := startCluster(t, instrumented(build, shardReg), n, calm(), telemetry.NewRegistry())
			got := h.runBattery(t)
			for i, script := range battery {
				if got[i] != golden[i] {
					t.Fatalf("shards=%d %q diverged from single-node\n got: %s\nwant: %s",
						n, script, got[i], golden[i])
				}
			}
			graphtest.CheckBothV(t, h.src)
			graphtest.CheckLiveness(t, liveGolden, h.src)
			graphtest.CheckAggCounts(t, h.coord)
			cv, err := h.coord.V(ctx, &graph.Query{})
			if err != nil {
				t.Fatalf("coordinator V: %v", err)
			}
			if g, w := sortedIDs(cv), sortedIDs(rawV); g != w {
				t.Fatalf("shards=%d vertex set diverged from raw backend\n got: %s\nwant: %s", n, g, w)
			}
			ce, err := h.coord.E(ctx, &graph.Query{})
			if err != nil {
				t.Fatalf("coordinator E: %v", err)
			}
			if g, w := sortedIDs(ce), sortedIDs(rawE); g != w {
				t.Fatalf("shards=%d edge set diverged from raw backend\n got: %s\nwant: %s", n, g, w)
			}
			cadj, err := h.coord.VertexEdges(ctx, []string{"p1", "p2", "p3"}, graph.DirBoth, &graph.Query{})
			if err != nil {
				t.Fatalf("coordinator VertexEdges: %v", err)
			}
			if g, w := sortedIDs(cadj), sortedIDs(rawAdj); g != w {
				t.Fatalf("shards=%d adjacency diverged from raw backend\n got: %s\nwant: %s", n, g, w)
			}
			// Pushed counts, which the battery's single-node golden shares,
			// against the raw backend's unoptimized plan and its own counts.
			graphtest.CheckDupFrontierCounts(t, gremlin.NewSource(rawB).WithoutStrategies(), h.src)
			checkEdgeCounts(t, h.coord, rawB, rawV, rawE)
			checkDupFrontierRequests(t, h.coord, shardReg, rawB.Name())
			// A repeated edge id yields one edge per occurrence, also for an
			// edge dual-homed on two shards, whose copies collapse first.
			eid := rawE[0].ID
			for _, el := range rawE {
				if h.coord.ShardOf(el.OutV) != h.coord.ShardOf(el.InV) {
					eid = el.ID
					break
				}
			}
			if ce, err := h.coord.E(ctx, &graph.Query{IDs: []string{eid, eid}}); err != nil || len(ce) != 2 {
				t.Fatalf("shards=%d E(%s, %s) = %d elements (err %v), want 2", n, eid, eid, len(ce), err)
			}
			if res, err := gremlin.RunScript(h.src, fmt.Sprintf("g.E('%s','%s').count()", eid, eid), nil); err != nil || graphtest.RenderObjs(res) != "2" {
				t.Fatalf("shards=%d g.E('%s','%s').count() = %s (err %v), want 2", n, eid, eid, graphtest.RenderObjs(res), err)
			}
			h.close()
		})
	}

	// Shared registry for the fault phases so the observability check at
	// the end can see retry/breaker counters from all of them.
	faultReg := telemetry.NewRegistry()
	goldenOf := func(script string) string {
		for i, s := range battery {
			if s == script {
				return golden[i]
			}
		}
		t.Fatalf("script %q not in battery", script)
		return ""
	}
	const probeScript = `g.V('p1').out('hasDisease').out('isa')`
	// countScript is a pushed count whose ids span the shards, the owner of
	// p1 among them.
	const countScript = `g.V('p1', 'd11', 'd13', 'd10').outE('isa').count()`
	// checkScript runs script under qctx. It must return its golden answer
	// or, unless mustAnswer, a typed availability error.
	checkScript := func(t *testing.T, h *clusterHarness, qctx context.Context, script string, mustAnswer bool) {
		t.Helper()
		res, err := gremlin.RunScriptCtx(qctx, h.src, script, nil)
		switch {
		case err == nil:
			if got := graphtest.RenderObjs(res); got != goldenOf(script) {
				t.Fatalf("%q diverged\n got: %s\nwant: %s", script, got, goldenOf(script))
			}
		case mustAnswer:
			t.Fatalf("%q: %v", script, err)
		case !typedAvailabilityError(err):
			t.Fatalf("%q: untyped error: %v", script, err)
		}
	}

	// Phase 3: fault schedule against a 3-shard deployment. No background
	// health checker here — retries and breaker transitions must be driven
	// (and observed) by query traffic alone.
	t.Run("faults", func(t *testing.T) {
		cfg := calm()
		cfg.RetryBase = 5 * time.Millisecond
		cfg.RetryMax = 20 * time.Millisecond
		cfg.BreakerThreshold = 3
		cfg.BreakerCooloff = 250 * time.Millisecond
		h := startCluster(t, build, 3, cfg, faultReg)
		target := h.coord.ShardOf("p1")
		chaos := h.chaos[target]
		breakerState := faultReg.Gauge(fmt.Sprintf(`cluster_breaker_state{shard="%d"}`, target))

		t.Run("small-delay-still-identical", func(t *testing.T) {
			chaos.SetDelay(3 * time.Millisecond)
			defer h.heal()
			res, err := gremlin.RunScript(h.src, probeScript, nil)
			if err != nil {
				t.Fatalf("delayed query: %v", err)
			}
			if got := graphtest.RenderObjs(res); got != goldenOf(probeScript) {
				t.Fatalf("delayed query diverged\n got: %s\nwant: %s", got, goldenOf(probeScript))
			}
			checkScript(t, h, ctx, countScript, true)
		})

		t.Run("big-delay-typed-timeout", func(t *testing.T) {
			chaos.SetDelay(2 * time.Second)
			defer h.heal()
			qctx, cancel := context.WithTimeout(ctx, 200*time.Millisecond)
			defer cancel()
			start := time.Now()
			_, err := gremlin.RunScriptCtx(qctx, h.src, `g.V()`, nil)
			if err == nil {
				t.Fatal("expected a typed error under 2s injected delay with 200ms deadline")
			}
			if !typedAvailabilityError(err) {
				t.Fatalf("untyped error under delay: %v", err)
			}
			if el := time.Since(start); el > 1500*time.Millisecond {
				t.Fatalf("deadline not respected: took %v", el)
			}
			cctx, cancel := context.WithTimeout(ctx, 200*time.Millisecond)
			defer cancel()
			checkScript(t, h, cctx, countScript, false)
		})

		t.Run("drop-typed-then-recover", func(t *testing.T) {
			chaos.SetDrop(true)
			qctx, cancel := context.WithTimeout(ctx, 200*time.Millisecond)
			_, err := gremlin.RunScriptCtx(qctx, h.src, `g.V()`, nil)
			cancel()
			if err == nil {
				t.Fatal("expected a typed error on a blackholed shard")
			}
			if !typedAvailabilityError(err) {
				t.Fatalf("untyped error under drop: %v", err)
			}
			cctx, cancel := context.WithTimeout(ctx, 200*time.Millisecond)
			checkScript(t, h, cctx, countScript, false)
			cancel()
			h.heal()
			res, err := gremlin.RunScript(h.src, probeScript, nil)
			if err != nil {
				t.Fatalf("query after heal: %v", err)
			}
			if got := graphtest.RenderObjs(res); got != goldenOf(probeScript) {
				t.Fatalf("post-drop query diverged\n got: %s\nwant: %s", got, goldenOf(probeScript))
			}
			checkScript(t, h, ctx, countScript, true)
		})

		t.Run("transient-reset-retried", func(t *testing.T) {
			before := faultReg.Counter(fmt.Sprintf(`cluster_retries_total{shard="%d"}`, target)).Value()
			chaos.ResetNext(2)
			defer h.heal()
			res, err := gremlin.RunScript(h.src, probeScript, nil)
			if err != nil {
				t.Fatalf("query across transient resets: %v", err)
			}
			if got := graphtest.RenderObjs(res); got != goldenOf(probeScript) {
				t.Fatalf("retried query diverged\n got: %s\nwant: %s", got, goldenOf(probeScript))
			}
			after := faultReg.Counter(fmt.Sprintf(`cluster_retries_total{shard="%d"}`, target)).Value()
			if after <= before {
				t.Fatalf("transient reset did not exercise the retry path (retries %d -> %d)", before, after)
			}
			chaos.ResetNext(2)
			checkScript(t, h, ctx, countScript, true)
		})

		t.Run("partition-opens-breaker", func(t *testing.T) {
			// A hard partition: existing connections die and the remote
			// answers new traffic with resets (a soft partition — silent
			// blackhole — surfaces as caller deadlines, which carry no
			// availability verdict; opening the breaker on those is the
			// health prober's job, exercised in the replication suite).
			chaos.SetPartitioned(true)
			chaos.SetReset(true)
			// Drive traffic until the consecutive transport failures trip
			// the breaker.
			deadline := time.Now().Add(5 * time.Second)
			for breakerState.Value() != cluster.BreakerOpen {
				if time.Now().After(deadline) {
					t.Fatal("breaker never opened under partition")
				}
				qctx, cancel := context.WithTimeout(ctx, 300*time.Millisecond)
				_, err := h.coord.V(qctx, &graph.Query{})
				cancel()
				if err == nil {
					t.Fatal("partitioned shard answered a scan")
				}
				if !typedAvailabilityError(err) {
					t.Fatalf("untyped error under partition: %v", err)
				}
			}
			// Open breaker short-circuits: the unavailable answer must now
			// come back without burning the retry schedule.
			start := time.Now()
			_, err := h.coord.V(ctx, &graph.Query{})
			if !errors.Is(err, cluster.ErrShardUnavailable) {
				t.Fatalf("want ErrShardUnavailable from open breaker, got %v", err)
			}
			if el := time.Since(start); el > time.Second {
				t.Fatalf("open breaker did not fast-fail: %v", el)
			}
			checkScript(t, h, ctx, countScript, false)
			// Heal; after the cooloff one half-open probe closes the
			// breaker and answers turn golden again.
			h.heal()
			time.Sleep(cfg.BreakerCooloff + 50*time.Millisecond)
			deadline = time.Now().Add(5 * time.Second)
			for {
				res, err := gremlin.RunScript(h.src, probeScript, nil)
				if err == nil {
					if got := graphtest.RenderObjs(res); got != goldenOf(probeScript) {
						t.Fatalf("post-recovery query diverged\n got: %s\nwant: %s", got, goldenOf(probeScript))
					}
					checkScript(t, h, ctx, countScript, true)
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("shard never recovered after heal: %v", err)
				}
				time.Sleep(50 * time.Millisecond)
			}
			if st := breakerState.Value(); st != cluster.BreakerClosed {
				t.Fatalf("breaker state after recovery = %d, want closed", st)
			}
		})

		// Regression: a half-open probe cut short by the caller's deadline
		// (a blackholed shard never answers, so the probe resolves with
		// neither success nor failure) must revert the breaker to open —
		// never wedge it half-open, where every subsequent request would
		// fast-fail forever.
		t.Run("abandoned-probe-reopens", func(t *testing.T) {
			// Open the breaker with a hard partition (fast transport
			// failures via resets).
			chaos.SetPartitioned(true)
			chaos.SetReset(true)
			deadline := time.Now().Add(5 * time.Second)
			for breakerState.Value() != cluster.BreakerOpen {
				if time.Now().After(deadline) {
					t.Fatal("breaker never opened under partition")
				}
				qctx, cancel := context.WithTimeout(ctx, 300*time.Millisecond)
				_, _ = h.coord.V(qctx, &graph.Query{})
				cancel()
			}
			// Swap the partition for a blackhole, let the cooloff pass, and
			// send the half-open probe with a deadline it cannot meet.
			chaos.Heal()
			chaos.SetDrop(true)
			time.Sleep(cfg.BreakerCooloff + 50*time.Millisecond)
			qctx, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
			_, err := h.coord.V(qctx, &graph.Query{})
			cancel()
			if err == nil {
				t.Fatal("blackholed probe reported success")
			}
			if !typedAvailabilityError(err) {
				t.Fatalf("untyped error from abandoned probe: %v", err)
			}
			if st := breakerState.Value(); st == cluster.BreakerHalfOpen {
				t.Fatal("abandoned probe wedged the breaker half-open")
			}
			// After healing, the next cooloff must admit a fresh probe and
			// recover the shard with no background health checker to help.
			h.heal()
			time.Sleep(cfg.BreakerCooloff + 50*time.Millisecond)
			deadline = time.Now().Add(5 * time.Second)
			for {
				res, err := gremlin.RunScript(h.src, probeScript, nil)
				if err == nil {
					if got := graphtest.RenderObjs(res); got != goldenOf(probeScript) {
						t.Fatalf("post-abandon recovery diverged\n got: %s\nwant: %s", got, goldenOf(probeScript))
					}
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("breaker never recovered after an abandoned probe: %v", err)
				}
				time.Sleep(50 * time.Millisecond)
			}
			if st := breakerState.Value(); st != cluster.BreakerClosed {
				t.Fatalf("breaker state after recovery = %d, want closed", st)
			}
		})
		h.close()
	})

	// Phase 4: the background health checker must open the breaker of a
	// partitioned shard with NO query traffic, and close it again once the
	// partition heals.
	t.Run("health-checker", func(t *testing.T) {
		cfg := calm()
		cfg.HealthInterval = 20 * time.Millisecond
		cfg.HealthTimeout = 500 * time.Millisecond
		cfg.BreakerThreshold = 3
		cfg.BreakerCooloff = 10 * time.Second // recovery must come from probes, not cooloff
		h := startCluster(t, build, 2, cfg, faultReg)
		target := h.coord.ShardOf("p1")
		breakerState := faultReg.Gauge(fmt.Sprintf(`cluster_breaker_state{shard="%d"}`, target))

		// Let at least one healthy probe land so the loop is demonstrably
		// running before the fault hits.
		time.Sleep(60 * time.Millisecond)
		h.chaos[target].SetPartitioned(true)
		waitFor(t, 5*time.Second, "breaker open via health probes", func() bool {
			return breakerState.Value() == cluster.BreakerOpen
		})
		// While open: typed fast-fail, no silent partials.
		if _, err := h.coord.V(ctx, &graph.Query{}); !errors.Is(err, cluster.ErrShardUnavailable) {
			t.Fatalf("want ErrShardUnavailable during partition, got %v", err)
		}
		checkScript(t, h, ctx, countScript, false)
		h.heal()
		waitFor(t, 5*time.Second, "breaker closed via health probes", func() bool {
			return breakerState.Value() == cluster.BreakerClosed
		})
		res, err := gremlin.RunScript(h.src, probeScript, nil)
		if err != nil {
			t.Fatalf("query after probe-driven recovery: %v", err)
		}
		if got := graphtest.RenderObjs(res); got != goldenOf(probeScript) {
			t.Fatalf("post-recovery query diverged\n got: %s\nwant: %s", got, goldenOf(probeScript))
		}
		checkScript(t, h, ctx, countScript, true)
		h.close()
	})

	// Phase 5: slow replies. Latency injected on the shard that owns the
	// probe's anchor (well inside the request timeout) must slow the query
	// down, never change its answer.
	t.Run("slow-replies", func(t *testing.T) {
		h := startCluster(t, build, 2, calm(), faultReg)
		target := h.coord.ShardOf("p1")
		const delay = 60 * time.Millisecond
		h.chaos[target].SetDelay(delay)
		start := time.Now()
		res, err := gremlin.RunScript(h.src, probeScript, nil)
		if err != nil {
			t.Fatalf("query under injected delay: %v", err)
		}
		if got := graphtest.RenderObjs(res); got != goldenOf(probeScript) {
			t.Fatalf("query under injected delay diverged\n got: %s\nwant: %s", got, goldenOf(probeScript))
		}
		if el := time.Since(start); el < delay {
			t.Fatalf("query took %v, under the %v injected delay: the fault never hit the shard", el, delay)
		}
		checkScript(t, h, ctx, countScript, true)
		h.heal()
		h.close()
	})

	// Phase 6: degraded mode — the only sanctioned partial-result path.
	// Partials must be exactly "everything the live shards own" and must
	// be marked via the counter and the PartialReport.
	t.Run("degraded", func(t *testing.T) {
		cfg := calm()
		cfg.Retries = -1 // fail over to partials fast
		cfg.Degraded = true
		reg := telemetry.NewRegistry()
		h := startCluster(t, build, 3, cfg, reg)
		target := h.coord.ShardOf("p1")
		h.chaos[target].SetPartitioned(true)

		pctx, report := cluster.WithPartialReport(ctx)
		got, err := h.coord.V(pctx, &graph.Query{})
		if err != nil {
			t.Fatalf("degraded V: %v", err)
		}
		var want []string
		for _, v := range rawV {
			if h.coord.ShardOf(v.ID) != target {
				want = append(want, v.ID)
			}
		}
		sort.Strings(want)
		if g, w := sortedIDs(got), strings.Join(want, ","); g != w {
			t.Fatalf("degraded V partial mismatch\n got: %s\nwant: %s", g, w)
		}
		if reg.Counter("cluster_partial_results_total").Value() == 0 {
			t.Fatal("degraded read did not mark the partial-results counter")
		}
		fails := report.Failures()
		if len(fails) == 0 {
			t.Fatal("degraded read did not record the skipped shard in the PartialReport")
		}
		for _, f := range fails {
			if f.Shard != target {
				t.Fatalf("PartialReport names shard %d, want %d", f.Shard, target)
			}
		}
		// Point reads routed to the dead shard yield nil slots, never
		// fabricated data.
		els, err := h.coord.VerticesByIDs(pctx, []string{"p1"}, &graph.Query{})
		if err != nil {
			t.Fatalf("degraded VerticesByIDs: %v", err)
		}
		if len(els) != 1 || els[0] != nil {
			t.Fatalf("degraded point read to dead shard returned %v, want one nil slot", els)
		}
		// A pushed count over every vertex counts exactly the out-edges the
		// live shards own, and names the dead shard once. The dead shard
		// now resets connections, so its failure comes without waiting
		// out the request timeout.
		h.chaos[target].SetReset(true)
		ids := make([]string, len(rawV))
		for i, v := range rawV {
			ids[i] = "'" + v.ID + "'"
		}
		liveOut := 0
		for _, e := range rawE {
			if h.coord.ShardOf(e.OutV) != target {
				liveOut++
			}
		}
		cctx, creport := cluster.WithPartialReport(ctx)
		res, err := gremlin.RunScriptCtx(cctx, h.src, "g.V("+strings.Join(ids, ", ")+").outE().count()", nil)
		if err != nil {
			t.Fatalf("degraded pushed count: %v", err)
		}
		if got := graphtest.RenderObjs(res); got != fmt.Sprint(liveOut) {
			t.Fatalf("degraded pushed count = %s, want the live shards' %d", got, liveOut)
		}
		if fails := creport.Failures(); len(fails) != 1 || fails[0].Shard != target {
			t.Fatalf("degraded pushed count PartialReport = %+v, want shard %d once", fails, target)
		}
		h.heal()
		h.close()
	})

	// Phase 7: observability — the fault phases' breaker transitions and
	// retry counts must be visible through a gserver fronting the
	// coordinator, via the standard !metrics control request.
	t.Run("metrics-observability", func(t *testing.T) {
		h := startCluster(t, build, 2, calm(), faultReg)
		front := gserver.NewWithConfig(h.src, gserver.Config{Registry: faultReg})
		addr, err := front.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatalf("front listen: %v", err)
		}
		defer front.Close()
		cl, err := gserver.Dial(addr)
		if err != nil {
			t.Fatalf("front dial: %v", err)
		}
		defer cl.Close()
		m, err := cl.Metrics()
		if err != nil {
			t.Fatalf("!metrics: %v", err)
		}
		for _, prefix := range []string{
			"cluster_retries_total",
			"cluster_breaker_opens_total",
		} {
			if sumByPrefix(m, prefix) == 0 {
				t.Fatalf("%s not observable via !metrics after fault phases", prefix)
			}
		}
		if sumByPrefix(m, "cluster_requests_total") == 0 {
			t.Fatal("cluster request counters not observable via !metrics")
		}
		h.close()
	})
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
