// Command perfbench is the repository benchmark: closed-loop workloads over
// the Db2 Graph overlay and the sharded cluster, every answer checked
// against an oracle computed in plain Go from the generated graph. See
// BENCHMARK.json for the workloads, the metrics and the layer each metric
// belongs to.
//
// Usage (from the repository root, which run.sh does):
//
//	perfbench --workload multihop --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it records the
// environment. --trace 0 reports the end-to-end metrics; --trace 1 reports
// the per-layer metrics from a traced pass and writes its spans under
// --out.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// options are one run's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// vertices sizes the graph (tests shrink it); setups is how many times
	// set-up is repeated for setup_s; out receives span files.
	vertices int
	setups   int
	out      string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// speed and unscaled go to the environment line: the host speed the
	// end-to-end times were scaled by, and the times before scaling.
	speed    float64
	unscaled map[string]float64
}

func main() {
	o := options{vertices: 20000, setups: 3}
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: linkbench, multihop or sharded")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the operation stream")
	flag.Float64Var(&o.seconds, "seconds", 10, "nominal measured seconds: the run executes the rounds that last this long at the workload's reference rate")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced pass")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for span files")
	flag.Parse()
	o.trace = trace == 1
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}

	env := startEnv()
	res, err := run(o)
	fields := env.finish()
	if res != nil && res.speed > 0 {
		fields["host_speed"] = res.speed
		fields["unscaled"] = res.unscaled
	}
	envLine, _ := json.Marshal(map[string]any{"env": fields})
	fmt.Println(string(envLine))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if res != nil {
			line, _ := json.Marshal(res)
			fmt.Println(string(line))
		}
		os.Exit(1)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"linkbench", "multihop", "sharded"}

// workload defines the named workload over the dataset.
func workload(d *dataset, name string) (spec, error) {
	hop := func(seed int64) []generator { return []generator{newHopGen(d, seed)} }
	switch name {
	case "linkbench":
		return spec{
			name: name, clients: 2, round: 20000, warm: 5000, rate: 45000,
			open: func(tr *tracer) (*system, error) { return openSQL(d, tr) },
			generators: func(seed int64) []generator {
				return []generator{newLBClient(d, seed, 0, 2), newLBClient(d, seed, 1, 2)}
			},
		}, nil
	case "multihop":
		return spec{
			name: name, clients: 1, round: 100, warm: 100, rate: 70,
			open:       func(tr *tracer) (*system, error) { return openSQL(d, tr) },
			generators: hop,
		}, nil
	case "sharded":
		vs, es := d.elements()
		return spec{
			name: name, clients: 1, round: 50, warm: 50, rate: 43,
			open:       func(tr *tracer) (*system, error) { return openSharded(vs, es, tr) },
			generators: hop,
		}, nil
	}
	return spec{}, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// run executes one benchmark run. The returned result is non-nil whenever
// operations were attempted.
func run(o options) (*result, error) {
	d := newDataset(o.vertices)
	sp, err := workload(d, o.workload)
	if err != nil {
		return nil, err
	}
	if o.trace {
		return runTraced(sp, o)
	}
	cal := newCalibrator(runtime.GOMAXPROCS(0))
	var setups, calib []time.Duration
	var sys *system
	for i := 0; i < o.setups; i++ {
		if sys != nil {
			sys.close()
			sys = nil
		}
		runtime.GC()
		calib = append(calib, cal.measure())
		start := time.Now()
		s, err := sp.open(nil)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start))
		sys = s
	}
	defer sys.close()
	p, err := runPhase(sp, sys, cal, o.seed, nil, sp.rounds(o.seconds), minReads)
	res := outcomeOf(p, err)
	if err != nil {
		return res, err
	}
	res.speed = speed(append(calib, p.calib...))
	res.unscaled = map[string]float64{
		"setup_s":       quantile(setups, 0.5).Seconds(),
		"read_p50_ms":   ms(quantile(p.readLat, 0.50)),
		"read_p99_ms":   ms(quantile(p.readLat, 0.99)),
		"ops_s":         median(p.roundOpsS),
		"cpu_ms_per_op": ms(p.cpu) / float64(p.ops()),
	}
	res.Metrics = map[string]metric{
		"heap_mb": {heapMB(sys), "MiB"},
		"ops_s":   {res.unscaled["ops_s"] / res.speed, "1/s"},
	}
	for _, name := range []string{"setup_s", "read_p50_ms", "read_p99_ms", "cpu_ms_per_op"} {
		unit := "ms"
		if name == "setup_s" {
			unit = "s"
		}
		res.Metrics[name] = metric{res.unscaled[name] * res.speed, unit}
	}
	return res, nil
}

func outcomeOf(p *phase, err error) *result {
	if p == nil {
		return nil
	}
	var wrong errWrongAnswer
	return &result{
		Correct:   !errors.As(err, &wrong),
		Attempted: p.attempted,
		Failed:    p.failed,
		Metrics:   map[string]metric{},
	}
}

// runTraced runs the seeded stream twice on fresh systems, untraced and
// then traced, each for the rounds of half a run. The two passes
// must return the same answers op for op. The per-layer metrics come from
// the traced pass, except the pool and runtime ones: they come from the
// untraced pass, because spans allocate.
func runTraced(sp spec, o options) (*result, error) {
	cal := newCalibrator(runtime.GOMAXPROCS(0))
	sys, err := sp.open(nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	base, err := runPhase(sp, sys, cal, o.seed, nil, sp.rounds(o.seconds/2), 0)
	sys.close()
	if err != nil {
		return outcomeOf(base, err), err
	}
	runtime.GC()
	tr := newTracer()
	sys, err = sp.open(tr)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	p, err := runPhase(sp, sys, cal, o.seed, tr, base.rounds, 0)
	sys.close()
	res := outcomeOf(p, err)
	if err != nil {
		return res, err
	}
	res.Attempted += base.attempted
	if err := sameAnswers(base, p); err != nil {
		res.Correct = false
		return res, err
	}
	if o.out != "" {
		if err := os.MkdirAll(o.out, 0o755); err != nil {
			return res, err
		}
		path := filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.tsv", sp.name, o.seed))
		if err := tr.write(path); err != nil {
			return res, fmt.Errorf("write spans: %w", err)
		}
	}
	res.Metrics = layerMetrics(base, p, tr.totals(), sys.db != nil)
	return res, nil
}

// sameAnswers compares two passes over one seeded stream op by op.
func sameAnswers(a, b *phase) error {
	if a.reads != b.reads || a.writes != b.writes {
		return fmt.Errorf("traced pass ran %d reads and %d writes, untraced %d and %d",
			b.reads, b.writes, a.reads, a.writes)
	}
	for c := range a.digests {
		if len(a.digests[c]) != len(b.digests[c]) {
			return fmt.Errorf("client %d ran %d ops traced, %d untraced", c, len(b.digests[c]), len(a.digests[c]))
		}
		for k := range a.digests[c] {
			if a.digests[c][k] != b.digests[c][k] {
				return fmt.Errorf("client %d op %d: traced answer differs from untraced", c, k)
			}
		}
	}
	return nil
}

// layerMetrics derives the per-layer metrics. Read-path layers are per read
// (writes never enter them); DML time is per write. A layer the workload
// does not use reads 0.
func layerMetrics(base, p *phase, st spanTotals, sqlBacked bool) map[string]metric {
	reads, writes := float64(p.reads), float64(p.writes)
	per := func(x, n float64) float64 {
		if n == 0 {
			return 0
		}
		return x / n
	}
	ratio := func(hits, misses int64) float64 { return per(float64(hits), float64(hits+misses)) }
	b, a := p.before, p.after
	cache := func(name string) (hits, misses, inval int64) {
		return a.cache[name].Hits - b.cache[name].Hits, a.cache[name].Misses - b.cache[name].Misses,
			a.cache[name].Invalidations - b.cache[name].Invalidations
	}
	vh, vm, vi := cache("vertex")
	ah, am, ai := cache("adjacency")
	cl := func(name string) float64 { return a.cluster[name] - b.cluster[name] }
	gs := func(name string) float64 { return a.gserver[name] - b.gserver[name] }
	clusterS, serverS := cl("cluster_request_seconds_sum"), gs("gserver_request_seconds_sum")
	m := map[string]metric{
		"gremlin.self_ms_per_op":             {per(ms(st.gremlinSelf), reads), "ms"},
		"gremlin.plan_cache_hit_ratio":       {ratio(a.planHits-b.planHits, a.planMisses-b.planMisses), "ratio"},
		"gremlin.backend_calls_per_op":       {per(float64(st.backendCalls), reads), "count"},
		"gremlin.pool_hit_ratio":             {ratio(base.after.poolHits-base.before.poolHits, base.after.poolMisses-base.before.poolMisses), "ratio"},
		"core.self_ms_per_op":                {0, "ms"},
		"core.vertex_cache_hit_ratio":        {ratio(vh, vm), "ratio"},
		"core.adjacency_cache_hit_ratio":     {ratio(ah, am), "ratio"},
		"core.cache_invalidations_per_write": {per(float64(vi+ai), writes), "count"},
		"sql.exec_ms_per_op":                 {per(ms(st.sqlExec), reads), "ms"},
		"sql.stmts_per_op":                   {per(float64(st.stmts), reads), "count"},
		"sql.rows_per_stmt":                  {per(float64(st.rows), float64(st.stmts)), "count"},
		"sql.write_ms_per_write":             {per(ms(sum(st.dml)), writes), "ms"},
		"sql.write_p50_ms":                   {ms(quantile(st.dml, 0.50)), "ms"},
		"sql.write_p99_ms":                   {ms(quantile(st.dml, 0.99)), "ms"},
		"cluster.requests_per_op":            {per(cl("cluster_requests_total"), reads), "count"},
		"cluster.request_ms":                 {per(1000*clusterS, cl("cluster_request_seconds_count")), "ms"},
		"cluster.hedges_per_op":              {per(cl("cluster_hedges_total"), reads), "count"},
		"cluster.retries_per_op":             {per(cl("cluster_retries_total"), reads), "count"},
		"gserver.server_ms_per_request":      {per(1000*serverS, gs("gserver_request_seconds_count")), "ms"},
		"gserver.wire_kb_per_op":             {per(float64(a.wire-b.wire)/1024, reads), "KiB"},
		"gserver.wire_ms_per_op":             {per(1000*(clusterS-serverS), reads), "ms"},
		"runtime.alloc_kb_per_op":            {per(float64(base.allocBytes)/1024, float64(base.ops())), "KiB"},
		"runtime.mallocs_per_op":             {per(float64(base.allocObjects), float64(base.ops())), "count"},
		"runtime.gc_cpu_frac":                {per(base.gcCPU, base.totalCPU), "ratio"},
		"trace.overhead_frac":                {1 - (median(p.roundOpsS)/speed(p.calib))/(median(base.roundOpsS)/speed(base.calib)), "ratio"},
	}
	if sqlBacked {
		m["core.self_ms_per_op"] = metric{per(ms(st.backendSelf), reads), "ms"}
	}
	return m
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}
