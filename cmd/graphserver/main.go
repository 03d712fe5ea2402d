// Command graphserver runs a network Gremlin server (the paper's "server
// mode") over a Db2 Graph overlay, optionally backed by a durable
// (WAL + checkpoint) store that survives crashes.
//
// Usage:
//
//	graphserver -demo -addr 127.0.0.1:8182
//	graphserver -db schema.sql -overlay overlay.json -addr :8182
//	graphserver -demo -data-dir /var/lib/db2graph -sync group=2ms
//	graphserver -data-dir /var/lib/db2graph   # serve recovered data only
//
// With -data-dir, the graph is persisted under the directory: an empty
// store is seeded from the -demo/-db source, a non-empty one recovers its
// contents on startup (checksummed WAL replay over the newest checkpoint)
// and can serve with no SQL source at all. The "!checkpoint" control
// request snapshots the store and truncates the WAL.
//
// Cluster deployment: N shard servers each hold one hash partition of the
// graph (-shard-index/-shard-count), and a coordinator server scatters
// queries across them with retries, health checks, and circuit
// breakers (-coordinator):
//
//	graphserver -demo -shard-index 0 -shard-count 2 -addr :8183
//	graphserver -demo -shard-index 1 -shard-count 2 -addr :8184
//	graphserver -coordinator 127.0.0.1:8183,127.0.0.1:8184 -addr :8182
//
// Replicated deployment: each shard primary (-replicate) streams its writes
// to a follower (-replica-of), and the coordinator (-replicas, parallel to
// -coordinator) promotes the follower automatically when a primary dies,
// fencing the deposed primary so it can never acknowledge a write again:
//
//	graphserver -demo -shard-index 0 -shard-count 2 -replicate -addr :8183
//	graphserver -replica-of 127.0.0.1:8183 -demo -shard-index 0 -shard-count 2 -addr :8185
//	graphserver -coordinator :8183,:8184 -replicas :8185,:8186 -addr :8182
//
// Clients speak the line-delimited JSON protocol of internal/gserver:
//
//	{"query": "g.V().count()"}
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"db2graph/internal/cluster"
	"db2graph/internal/core"
	"db2graph/internal/demo"
	"db2graph/internal/graph"
	"db2graph/internal/gremlin"
	"db2graph/internal/gserver"
	"db2graph/internal/janus"
	"db2graph/internal/overlay"
	"db2graph/internal/sql/engine"
	"db2graph/internal/wal"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8182", "listen address")
		dbScript    = flag.String("db", "", "SQL script creating and populating the database")
		overlayPath = flag.String("overlay", "", "graph overlay configuration (JSON)")
		demoMode    = flag.Bool("demo", false, "serve the paper's health-care example")
		dataDir     = flag.String("data-dir", "",
			"directory for the durable store (WAL + checkpoints); empty serves from memory only")
		storageSpec = flag.String("storage", "cow",
			"storage engine for -data-dir: cow (copy-on-write checkpoints) or lsm (log-structured merge with MVCC snapshot reads)")
		syncSpec = flag.String("sync", "always",
			"durability policy for -data-dir: always (fsync per commit), group[=delay] (group commit), none")

		queryTimeout = flag.Duration("query-timeout", 30*time.Second,
			"default per-query deadline; clients may shorten but never extend it (negative disables)")
		maxTraversers = flag.Int("max-traversers", graph.DefaultMaxTraversers,
			"per-query cap on live traversers (negative disables)")
		maxRepeat = flag.Int("max-repeat-iters", graph.DefaultMaxRepeatIters,
			"per-query cap on repeat() iterations (negative disables)")
		maxResults = flag.Int("max-results", graph.DefaultMaxResults,
			"per-query cap on returned results (negative disables)")
		maxRequestBytes = flag.Int("max-request-bytes", 1<<20,
			"largest accepted request frame in bytes")
		maxConcurrent = flag.Int("max-concurrent", 64,
			"queries executing simultaneously before fast-failing with OVERLOADED (negative disables)")
		parallelism = flag.Int("parallelism", 0,
			"goroutines per query for parallel traversal execution (0 = GOMAXPROCS, 1 = serial)")
		planCacheSize = flag.Int("plan-cache-size", 0,
			"compiled-plan cache capacity in plans (0 = default 256)")
		batchSize = flag.Int("batch-size", 0,
			"cap on ids per batched backend lookup (0 = one lookup per engine chunk)")
		drainTimeout = flag.Duration("drain-timeout", 5*time.Second,
			"how long shutdown waits for in-flight queries before canceling them")
		slowQuery = flag.Duration("slow-query-threshold", 0,
			"log queries taking at least this long to stderr (0 disables)")
		analyze = flag.Bool("analyze", true,
			"collect catalog statistics at startup so queries plan with the cost model; clients refresh with the \"!analyze\" control request")

		shardIndex = flag.Int("shard-index", -1,
			"serve only this hash partition of the source graph (requires -shard-count)")
		shardCount = flag.Int("shard-count", 0,
			"total shards the source graph is partitioned into")
		coordinator = flag.String("coordinator", "",
			"comma-separated shard server addresses; serve a scatter-gather coordinator over them instead of local data")
		clusterRetries = flag.Int("cluster-retries", 2,
			"coordinator: retries per shard read on availability failures (negative disables)")
		clusterHealthInterval = flag.Duration("cluster-health-interval", 2*time.Second,
			"coordinator: background shard health probe period (0 disables)")
		clusterDegraded = flag.Bool("cluster-degraded", false,
			"coordinator: return marked partial results when shards are down instead of failing")
		clusterRequestTimeout = flag.Duration("cluster-request-timeout", 10*time.Second,
			"coordinator: per-shard exchange deadline when a query carries none")
		replicas = flag.String("replicas", "",
			"coordinator: comma-separated follower addresses parallel to -coordinator; enables automatic shard failover (promotion + fencing)")
		replicaReads = flag.Bool("cluster-replica-reads", false,
			"coordinator: serve stale-bounded reads from a shard's caught-up follower while its primary is down")

		replicate = flag.Bool("replicate", false,
			"serve as a replication primary: accept follower subscriptions (\"!replicate\") and wait for the follower's ack on every write")
		replicaOf = flag.String("replica-of", "",
			"serve as a replication follower of this primary address: apply its oplog stream, reject writes until \"!promote\"")
		replicaAckTimeout = flag.Duration("replica-ack-timeout", 2*time.Second,
			"primary: how long a write waits for the follower's ack before returning REPLICA_TIMEOUT (negative replicates asynchronously)")
	)
	flag.Parse()

	// A coordinator serves the shards; it is not itself sharded. Without
	// this check, -shard-count would re-partition the coordinator's merged
	// view: projectShard would scan the entire remote cluster and silently
	// serve a local in-memory copy of one hash partition of it.
	if *coordinator != "" && (*shardCount != 0 || *shardIndex >= 0) {
		fmt.Fprintln(os.Stderr, "error: -coordinator cannot be combined with -shard-count/-shard-index; run shard servers and the coordinator as separate processes")
		os.Exit(2)
	}
	if *replicaOf != "" && (*replicate || *coordinator != "") {
		fmt.Fprintln(os.Stderr, "error: -replica-of cannot be combined with -replicate or -coordinator")
		os.Exit(2)
	}
	if *replicas != "" && *coordinator == "" {
		fmt.Fprintln(os.Stderr, "error: -replicas requires -coordinator")
		os.Exit(2)
	}

	var db *engine.Database
	var cfg *overlay.Config
	switch {
	case *coordinator != "":
		// Scatter-gather mode: no local data; the shards hold the graph.
	case *demoMode:
		var err error
		db, cfg, err = demo.HealthcareDatabase()
		if err != nil {
			fatal(err)
		}
	case *dbScript != "" && *overlayPath != "":
		data, err := os.ReadFile(*dbScript)
		if err != nil {
			fatal(err)
		}
		db = engine.New()
		if err := db.ExecScript(string(data)); err != nil {
			fatal(err)
		}
		cfg, err = overlay.Load(*overlayPath)
		if err != nil {
			fatal(err)
		}
	case *dataDir != "":
		// No SQL source: serve whatever the durable store recovers.
	case *replicaOf != "":
		// Bare follower: start empty and catch up from the primary's
		// oplog. A primary seeded from -demo/-db needs its follower
		// seeded identically instead — the oplog only carries writes
		// committed after the primary started.
	default:
		fmt.Fprintln(os.Stderr, "usage: graphserver -demo | -db schema.sql -overlay overlay.json [-data-dir dir [-sync policy]] | -coordinator addr,addr,...")
		os.Exit(2)
	}

	var backend graph.Backend
	var durable *janus.Graph
	var coord *cluster.Coordinator
	if *coordinator != "" {
		var err error
		coord, err = cluster.Dial(cluster.Config{
			Addrs:          splitAddrs(*coordinator),
			Replicas:       splitAddrs(*replicas),
			ReplicaReads:   *replicaReads,
			Retries:        *clusterRetries,
			HealthInterval: *clusterHealthInterval,
			Degraded:       *clusterDegraded,
			RequestTimeout: *clusterRequestTimeout,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("coordinating %d shards: %s\n", coord.Shards(), *coordinator)
		if *replicas != "" {
			fmt.Printf("shard failover armed: replicas %s\n", *replicas)
		}
		backend = coord
	} else if *dataDir != "" {
		policy, err := wal.ParsePolicy(*syncSpec)
		if err != nil {
			fatal(err)
		}
		switch *storageSpec {
		case "cow":
			durable, err = janus.OpenDurable(*dataDir, policy)
		case "lsm":
			durable, err = janus.OpenLSM(*dataDir, policy)
		default:
			err = fmt.Errorf("unknown -storage %q (want cow or lsm)", *storageSpec)
		}
		if err != nil {
			fatal(err)
		}
		recovered := durable.Store().Len()
		switch {
		case recovered > 0:
			fmt.Printf("recovered durable store (%s): %d keys, generation %d, sync=%s\n",
				*storageSpec, recovered, durable.Store().Generation(), policy)
		case db == nil:
			fatal(fmt.Errorf("-data-dir %s is empty and no -demo/-db source was given to seed it", *dataDir))
		default:
			if err := seed(durable, db, cfg); err != nil {
				fatal(err)
			}
			fmt.Printf("seeded durable store (%s) at %s (sync=%s)\n", *storageSpec, *dataDir, policy)
		}
		backend = durable
	} else if db == nil {
		// Bare follower: an empty memory backend, populated by catch-up.
		backend = graph.NewMemBackend()
	} else {
		g, err := core.Open(db, cfg, core.DefaultOptions())
		if err != nil {
			fatal(err)
		}
		backend = g
	}

	// Shard-server mode: keep only this server's hash partition (plus the
	// ghost endpoints and dual-homed edges the placement contract demands),
	// re-projected into a memory backend. A coordinator over all the shards
	// reassembles exactly the full graph.
	if *shardCount > 1 {
		if *shardIndex < 0 || *shardIndex >= *shardCount {
			fatal(fmt.Errorf("-shard-index %d out of range for -shard-count %d", *shardIndex, *shardCount))
		}
		shardB, nv, ne, err := projectShard(backend, *shardIndex, *shardCount)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("serving shard %d/%d: %d vertices, %d edges\n", *shardIndex, *shardCount, nv, ne)
		backend = shardB
	}

	// Replication applies the primary's logical ops through graph.Mutable.
	// The SQL overlay is read-only through the graph API, so a replicated
	// server materializes it into the mutable memory backend — the same
	// projection a shard server already serves.
	if (*replicate || *replicaOf != "") && durable == nil {
		if _, ok := backend.(graph.Mutable); !ok {
			mb, nv, ne, err := projectShard(backend, 0, 1)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("materialized overlay for replication: %d vertices, %d edges\n", nv, ne)
			backend = mb
		}
	}

	// Instrumenting the backend feeds per-method counters and latency
	// histograms into the default registry, which clients read via the
	// "!metrics" control request (alongside the kvstore WAL/checkpoint
	// gauges when -data-dir is set).
	src := gremlin.NewSource(graph.Instrument(backend, nil)).WithLimits(graph.Limits{
		MaxTraversers:  *maxTraversers,
		MaxRepeatIters: *maxRepeat,
		MaxResults:     *maxResults,
	}).WithParallelism(*parallelism).WithBatchSize(*batchSize)
	// The server default-enables a plan cache; the flag only sizes it.
	if *planCacheSize > 0 {
		src = src.WithPlanCache(gremlin.NewPlanCache(*planCacheSize))
	}
	// Catalog statistics drive the cost-based planner and the "!explain"
	// control request; the provider always exists so "!analyze" works, and
	// -analyze only controls the startup collection.
	sp := graph.NewStatsProvider(src.Backend)
	src = src.WithStats(sp)
	if *analyze {
		st, err := sp.Analyze(context.Background())
		if err != nil {
			fatal(err)
		}
		fmt.Printf("analyzed: %d vertices, %d edges, %d vertex labels, %d edge labels\n",
			st.VertexCount, st.EdgeCount, len(st.VertexLabels), len(st.EdgeLabels))
	}
	gcfg := gserver.Config{
		QueryTimeout:       *queryTimeout,
		MaxRequestBytes:    *maxRequestBytes,
		MaxConcurrent:      *maxConcurrent,
		DrainTimeout:       *drainTimeout,
		SlowQueryThreshold: *slowQuery,
	}
	if durable != nil {
		gcfg.Checkpointer = durable
	}
	var srv *gserver.Server
	if *replicate || *replicaOf != "" {
		role := gserver.RolePrimary
		if *replicaOf != "" {
			role = gserver.RoleFollower
		}
		gcfg.Replication = &gserver.ReplicationConfig{
			Role:        role,
			PrimaryAddr: *replicaOf,
			AckTimeout:  *replicaAckTimeout,
		}
		var err error
		srv, err = gserver.NewReplicated(src, gcfg)
		if err != nil {
			fatal(err)
		}
		if role == gserver.RoleFollower {
			fmt.Printf("replicating from %s (read-only until \"!promote\")\n", *replicaOf)
		} else {
			fmt.Println("replication primary: accepting follower subscriptions")
		}
	} else {
		srv = gserver.NewWithConfig(src, gcfg)
	}
	bound, err := srv.Listen(*addr)
	if err != nil {
		fatal(err)
	}
	fmt.Println("gremlin server listening on", bound)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Println("shutting down")
	srv.Close()
	if coord != nil {
		coord.Close()
	}
	if durable != nil {
		// A clean shutdown checkpoints (fast restart) and seals the WAL.
		if err := durable.Checkpoint(); err != nil {
			fmt.Fprintln(os.Stderr, "checkpoint on shutdown:", err)
		}
		if err := durable.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "close durable store:", err)
		}
	}
}

// seed bulk-loads the overlay-projected graph into the durable store and
// checkpoints, so subsequent startups recover directly from disk.
func seed(dst *janus.Graph, db *engine.Database, cfg *overlay.Config) error {
	g, err := core.Open(db, cfg, core.DefaultOptions())
	if err != nil {
		return err
	}
	ctx := context.Background()
	vs, err := g.V(ctx, nil)
	if err != nil {
		return err
	}
	es, err := g.E(ctx, nil)
	if err != nil {
		return err
	}
	l := dst.NewBulkLoader()
	for _, v := range vs {
		if err := l.AddVertex(v); err != nil {
			return err
		}
	}
	for _, e := range es {
		if err := l.AddEdge(e); err != nil {
			return err
		}
	}
	if err := l.Flush(); err != nil {
		return err
	}
	return dst.Checkpoint()
}

// projectShard materializes one hash partition of src (owned vertices,
// ghost endpoints, incident edges) into a memory backend.
func projectShard(src graph.Backend, index, count int) (graph.Backend, int, int, error) {
	ctx := context.Background()
	vs, err := src.V(ctx, nil)
	if err != nil {
		return nil, 0, 0, err
	}
	es, err := src.E(ctx, nil)
	if err != nil {
		return nil, 0, 0, err
	}
	part := cluster.Partition(vs, es, count)[index]
	m := graph.NewMemBackend()
	for _, v := range part.Vertices {
		if err := m.AddVertex(v); err != nil {
			return nil, 0, 0, err
		}
	}
	for _, e := range part.Edges {
		if err := m.AddEdge(e); err != nil {
			return nil, 0, 0, err
		}
	}
	return m, len(part.Vertices), len(part.Edges), nil
}

func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(1)
}
