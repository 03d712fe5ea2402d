package gremlin_test

import (
	"context"
	"encoding/json"
	"os"
	"sync"
	"testing"

	"db2graph/internal/core"
	"db2graph/internal/graph"
	"db2graph/internal/gremlin"
	"db2graph/internal/linkbench"
	"db2graph/internal/sql/engine"
	"db2graph/internal/telemetry"
)

// allocGateTolerance is the slack the gate allows over a committed
// baseline. Allocation counts and bytes are deterministic enough for 10%: a
// regression (a traverser allocated one at a time instead of from a slab,
// a per-query map built eagerly, an oversized slab) shows up as a multiple,
// not a percentage.
const allocGateTolerance = 1.10

// allocBaseline is one row's committed budget per op.
type allocBaseline struct {
	Allocs int64 `json:"allocs"`
	Bytes  int64 `json:"bytes"`
}

// allocGateRows are the paths the gate measures, keyed as in
// testdata/alloc_baseline.json:
//   - batched_expand_native: BenchmarkBatchedExpand native, the
//     two-hop frontier expansion over the native batch backend (no SQL);
//   - linkbench_<kind>: BenchmarkLinkBenchReads/<kind>, one LinkBench
//     Table-1 read through RunScriptCtx on the SQL-backed overlay.
var allocGateRows = []struct {
	key   string
	bench func(*testing.B)
}{
	{"batched_expand_native", benchBatchedExpandNative},
	{"linkbench_getNode", func(b *testing.B) { benchLinkBenchRead(b, linkbench.GetNode) }},
	{"linkbench_countLinks", func(b *testing.B) { benchLinkBenchRead(b, linkbench.CountLinks) }},
	{"linkbench_getLink", func(b *testing.B) { benchLinkBenchRead(b, linkbench.GetLink) }},
	{"linkbench_getLinkList", func(b *testing.B) { benchLinkBenchRead(b, linkbench.GetLinkList) }},
}

// TestAllocBaseline is the allocation-regression gate wired to
// `make bench-alloc` (set BENCH_ALLOC_GATE=1 to run): it measures each
// row's benchmark body under testing.Benchmark and fails any row whose
// allocs/op or bytes/op exceeds its committed baseline by more than
// allocGateTolerance. Improvements are reported so the baseline can be
// ratcheted down.
func TestAllocBaseline(t *testing.T) {
	if os.Getenv("BENCH_ALLOC_GATE") == "" {
		t.Skip("allocation gate skipped; set BENCH_ALLOC_GATE=1 (make bench-alloc) to run")
	}
	raw, err := os.ReadFile("testdata/alloc_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var base map[string]allocBaseline
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatal(err)
	}
	for _, row := range allocGateRows {
		t.Run(row.key, func(t *testing.T) {
			want, ok := base[row.key]
			if !ok {
				t.Fatalf("no baseline for %s in testdata/alloc_baseline.json", row.key)
			}
			res := testing.Benchmark(row.bench)
			for _, m := range []struct {
				unit      string
				got, want int64
			}{{"allocs/op", res.AllocsPerOp(), want.Allocs}, {"B/op", res.AllocedBytesPerOp(), want.Bytes}} {
				limit := int64(float64(m.want) * allocGateTolerance)
				t.Logf("%s: %d %s (baseline %d, limit %d)", row.key, m.got, m.unit, m.want, limit)
				if m.got > limit {
					t.Errorf("allocation regression: %d %s exceeds baseline %d by more than %.0f%%",
						m.got, m.unit, m.want, (allocGateTolerance-1)*100)
				}
				if m.got < m.want*9/10 {
					t.Logf("note: measured %s is >10%% below baseline; consider ratcheting %s down to %d", m.unit, row.key, m.got)
				}
			}
		})
	}
}

var (
	nativeOnce    sync.Once
	nativeBackend *graph.MemBackend
)

func benchBatchedExpandNative(b *testing.B) {
	nativeOnce.Do(func() { nativeBackend = gremlin.BenchBackend(b, 2000) })
	src := gremlin.NewSource(nativeBackend)
	if _, err := gremlin.BatchedExpand(src).ToList(); err != nil { // warm caches
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gremlin.BatchedExpand(src).ToList(); err != nil {
			b.Fatal(err)
		}
	}
}

// linkBenchFixture is a LinkBench graph loaded into the relational engine
// and opened through the overlay the way graphserver serves it: split
// layout (a table per vertex and edge type), an instrumented backend,
// statistics and a plan cache.
type linkBenchFixture struct {
	src     *gremlin.Source
	scripts map[linkbench.QueryKind][]string
}

// linkBenchScripts is the number of distinct scripts of each kind a run
// cycles through.
const linkBenchScripts = 64

var (
	lbOnce sync.Once
	lbFix  *linkBenchFixture
	lbErr  error
)

func linkBenchReads(tb testing.TB) *linkBenchFixture {
	lbOnce.Do(func() {
		d := linkbench.Generate(linkbench.DefaultConfig(2000))
		db := engine.New()
		cfg, err := d.LoadSQL(db)
		if err != nil {
			lbErr = err
			return
		}
		g, err := core.Open(db, cfg, core.DefaultOptions())
		if err != nil {
			lbErr = err
			return
		}
		src := gremlin.NewSource(graph.Instrument(g, telemetry.NewRegistry())).
			WithPlanCache(gremlin.NewPlanCache(0))
		sp := graph.NewStatsProvider(src.Backend)
		if _, err := sp.Analyze(context.Background()); err != nil {
			lbErr = err
			return
		}
		fix := &linkBenchFixture{src: src.WithStats(sp), scripts: map[linkbench.QueryKind][]string{}}
		w := d.NewWorkload(1)
		for _, k := range []linkbench.QueryKind{linkbench.GetNode, linkbench.CountLinks, linkbench.GetLink, linkbench.GetLinkList} {
			for i := 0; i < linkBenchScripts; i++ {
				fix.scripts[k] = append(fix.scripts[k], w.Next(k).Gremlin())
			}
		}
		lbFix = fix
	})
	if lbErr != nil {
		tb.Fatal(lbErr)
	}
	return lbFix
}

// benchLinkBenchRead runs one kind's scripts in turn, one script per op,
// after a warm-up pass over all of them (plan cache and pooled SQL plans
// filled).
func benchLinkBenchRead(b *testing.B, kind linkbench.QueryKind) {
	fix := linkBenchReads(b)
	scripts := fix.scripts[kind]
	ctx := context.Background()
	for _, s := range scripts {
		if _, err := gremlin.RunScriptCtx(ctx, fix.src, s, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gremlin.RunScriptCtx(ctx, fix.src, scripts[i%len(scripts)], nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLinkBenchReads measures the four LinkBench Table-1 reads through
// the script path on the SQL-backed overlay (the fixture the allocation
// gate's linkbench rows use). CPU and allocation profiles of this path are
// one `go test -run '^$' -bench LinkBenchReads -cpuprofile/-memprofile`
// away.
func BenchmarkLinkBenchReads(b *testing.B) {
	for _, k := range []linkbench.QueryKind{linkbench.GetNode, linkbench.CountLinks, linkbench.GetLink, linkbench.GetLinkList} {
		b.Run(k.String(), func(b *testing.B) { benchLinkBenchRead(b, k) })
	}
}
