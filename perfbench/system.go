package main

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"time"

	"db2graph/internal/cluster"
	"db2graph/internal/core"
	"db2graph/internal/graph"
	"db2graph/internal/gremlin"
	"db2graph/internal/gserver"
	"db2graph/internal/sql/engine"
	"db2graph/internal/telemetry"
)

// system is one opened deployment under test, wired the way graphserver
// wires it: an instrumented backend and a plan cache.
type system struct {
	src   *gremlin.Source
	plans *gremlin.PlanCache
	// backend is the query source's backend below graph.Instrument (the
	// traced decorator when tracing), for cache counters.
	backend graph.Backend

	// db is set for the SQL-backed workloads.
	db *engine.Database

	// coord, servers and their registries are set for the sharded workload.
	coord      *cluster.Coordinator
	servers    []*gserver.Server
	clusterReg *telemetry.Registry
	shardRegs  []*telemetry.Registry
	// wire counts shard-server bytes when tracing.
	wire atomic.Int64
}

func (s *system) close() {
	if s.coord != nil {
		s.coord.Close()
	}
	for _, srv := range s.servers {
		srv.Close()
	}
}

// serve finishes a system the way graphserver's startup does: instrument
// the backend and attach a plan cache. When analyze is set, it also
// collects the statistics the cost-based planner uses.
func (s *system) serve(b graph.Backend, analyze bool) error {
	s.backend = b
	s.plans = gremlin.NewPlanCache(0)
	s.src = gremlin.NewSource(graph.Instrument(b, telemetry.NewRegistry())).WithPlanCache(s.plans)
	if !analyze {
		return nil
	}
	sp := graph.NewStatsProvider(s.src.Backend)
	if _, err := sp.Analyze(context.Background()); err != nil {
		return fmt.Errorf("analyze: %w", err)
	}
	s.src = s.src.WithStats(sp)
	return nil
}

// openSQL loads the dataset into the relational engine with SQL inserts and
// opens the Db2 Graph overlay on it (the paper's retrofit: no copy).
func openSQL(d *dataset, tr *tracer) (*system, error) {
	db := engine.New()
	cfg, err := d.lb.LoadSQL(db)
	if err != nil {
		return nil, fmt.Errorf("load sql: %w", err)
	}
	g, err := core.Open(db, cfg, core.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("open overlay: %w", err)
	}
	s := &system{db: db}
	var b graph.Backend = g
	if tr != nil {
		b = traceBackend(g, tr, spanBackend)
	}
	return s, s.serve(b, true)
}

// shards is the sharded workload's shard count.
const shards = 2

// openSharded partitions the graph with cluster.Partition, as graphserver
// -shard-index projects it, loads each part into a memory backend behind a
// loopback gserver (each shard analyzed, as graphserver does at start-up),
// and dials a coordinator with graphserver's default cluster settings.
func openSharded(vs, es []*graph.Element, tr *tracer) (_ *system, err error) {
	s := &system{clusterReg: telemetry.NewRegistry()}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	parts := cluster.Partition(vs, es, shards)
	addrs := make([]string, shards)
	for i, part := range parts {
		m := graph.NewMemBackend()
		for _, v := range part.Vertices {
			if err := m.AddVertex(v); err != nil {
				return nil, err
			}
		}
		for _, e := range part.Edges {
			if err := m.AddEdge(e); err != nil {
				return nil, err
			}
		}
		var b graph.Backend = m
		if tr != nil {
			b = traceBackend(m, tr, spanShard)
		}
		reg := telemetry.NewRegistry()
		src := gremlin.NewSource(graph.Instrument(b, reg))
		sp := graph.NewStatsProvider(src.Backend)
		if _, err := sp.Analyze(context.Background()); err != nil {
			return nil, fmt.Errorf("analyze shard %d: %w", i, err)
		}
		srv := gserver.NewWithConfig(src.WithStats(sp), gserver.Config{Registry: reg})
		s.servers = append(s.servers, srv)
		s.shardRegs = append(s.shardRegs, reg)
		var ln net.Listener
		if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return nil, err
		}
		if tr != nil {
			ln = countingListener{Listener: ln, n: &s.wire}
		}
		addrs[i] = srv.Serve(ln)
	}
	s.coord, err = cluster.Dial(cluster.Config{
		Addrs:          addrs,
		Retries:        2,
		HealthInterval: 2 * time.Second,
		RequestTimeout: 10 * time.Second,
		Registry:       s.clusterReg,
	})
	if err != nil {
		return nil, err
	}
	var b graph.Backend = s.coord
	if tr != nil {
		b = traceBackend(s.coord, tr, spanBackend)
	}
	// The coordinator is not analyzed. Through the coordinator, Analyze
	// scans the whole graph over the wire, and the client connection that
	// decodes that reply keeps a buffer of about 30 MB. Hedging drops
	// connections at random, so whether the buffer was still live at the
	// end moved heap_mb between 104 and 136 MB from run to run.
	return s, s.serve(b, false)
}

// writer holds one client's prepared DML statements, one set per base
// table; LinkBench writes go to the relational tables directly.
type writer struct {
	insNode, updNode, insLink, updLink, delLink []*engine.Stmt
}

func newWriter(db *engine.Database, tables int) (*writer, error) {
	w := &writer{}
	for t := 0; t < tables; t++ {
		for _, p := range []struct {
			dst *[]*engine.Stmt
			sql string
		}{
			{&w.insNode, "INSERT INTO node_t%d VALUES (?, ?, ?, ?)"},
			{&w.updNode, "UPDATE node_t%d SET version = ?, time = ?, data = ? WHERE id = ?"},
			{&w.insLink, "INSERT INTO link_t%d VALUES (?, ?, ?, ?, ?, ?)"},
			{&w.updLink, "UPDATE link_t%d SET visibility = ?, data = ?, time = ?, version = ? WHERE id1 = ? AND id2 = ?"},
			{&w.delLink, "DELETE FROM link_t%d WHERE id1 = ? AND id2 = ?"},
		} {
			st, err := db.Prepare(fmt.Sprintf(p.sql, t))
			if err != nil {
				return nil, fmt.Errorf("prepare %q: %w", p.sql, err)
			}
			*p.dst = append(*p.dst, st)
		}
	}
	return w, nil
}

func (w *writer) exec(o op) (int, error) {
	var st *engine.Stmt
	switch o.kind {
	case opAddNode:
		st = w.insNode[o.table]
	case opUpdateNode:
		st = w.updNode[o.table]
	case opAddLink:
		st = w.insLink[o.table]
	case opDeleteLink:
		st = w.delLink[o.table]
	default:
		st = w.updLink[o.table]
	}
	return st.Exec(o.args...)
}

// counters is a snapshot of every cumulative counter the layers expose.
type counters struct {
	planHits, planMisses int64
	poolHits, poolMisses int64
	cache                map[string]graph.CacheStats
	cluster, gserver     map[string]float64
	wire                 int64
}

func (s *system) counters() counters {
	c := counters{cache: map[string]graph.CacheStats{}}
	ps := s.plans.Stats()
	c.planHits, c.planMisses = ps.Hits, ps.Misses
	c.poolHits, c.poolMisses = gremlin.PoolStats()
	if p, ok := s.backend.(graph.CacheStatsProvider); ok {
		for k, v := range p.CacheMetrics() {
			c.cache[k] = v
		}
	}
	c.cluster = scrape(s.clusterReg)
	c.gserver = map[string]float64{}
	for _, reg := range s.shardRegs {
		for k, v := range scrape(reg) {
			c.gserver[k] += v
		}
	}
	c.wire = s.wire.Load()
	return c
}

// scrape reads a registry through its Prometheus rendering and sums each
// metric over its label sets (cluster counters are per shard).
func scrape(reg *telemetry.Registry) map[string]float64 {
	out := map[string]float64{}
	if reg == nil {
		return out
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		return out
	}
	for name, v := range telemetry.ParseMetrics(sb.String()) {
		if strings.Contains(name, "quantile=") {
			continue
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] += v
	}
	return out
}
