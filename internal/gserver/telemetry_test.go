package gserver

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"db2graph/internal/graph"
	"db2graph/internal/graph/graphtest"
	"db2graph/internal/gremlin"
	"db2graph/internal/janus"
	"db2graph/internal/telemetry"
)

// syncWriter makes a bytes.Buffer safe to read from the test goroutine while
// the server's slow-query logger writes to it.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// TestMetricsControlRequest drives the full loop: queries are counted by
// response code, and a client fetches the registry via "!metrics".
func TestMetricsControlRequest(t *testing.T) {
	reg := telemetry.NewRegistry()
	addr, _, _ := startHardenedServer(t, Config{Registry: reg}, graph.Limits{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Submit("g.V().count()"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit("g.V('p1').out('hasDisease')"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit("g.V().nosuchstep()"); err == nil {
		t.Fatal("expected a parse error")
	}

	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if got := m[`gserver_requests_total{code="OK"}`]; got != 2 {
		t.Fatalf("OK request counter = %v, want 2\nmetrics: %v", got, m)
	}
	if got := m[`gserver_requests_total{code="PARSE"}`]; got != 1 {
		t.Fatalf("PARSE request counter = %v, want 1", got)
	}
	if got := m["gserver_request_seconds_count"]; got != 3 {
		t.Fatalf("request latency observations = %v, want 3", got)
	}
	// The "!metrics" control request itself is in flight while the snapshot
	// is taken, but is not a query: it must not inflate the request counters.
	if got := m["gserver_inflight_requests"]; got != 1 {
		t.Fatalf("inflight gauge = %v, want 1 (the control request itself)", got)
	}
	if got := m["gserver_active_queries"]; got != 0 {
		t.Fatalf("active queries gauge = %v, want 0", got)
	}
}

// TestSlowQueryLog checks the threshold: slow queries are logged and counted,
// fast ones are not.
func TestSlowQueryLog(t *testing.T) {
	reg := telemetry.NewRegistry()
	logBuf := &syncWriter{}
	addr, _, fb := startHardenedServer(t, Config{
		Registry:           reg,
		SlowQueryThreshold: 20 * time.Millisecond,
		SlowQueryLog:       logBuf,
	}, graph.Limits{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Fast query: below threshold, not logged.
	if _, err := c.Submit("g.V().count()"); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("gserver_slow_queries_total").Value(); got != 0 {
		t.Fatalf("slow counter after fast query = %d, want 0", got)
	}

	fb.Inject("V", graphtest.FaultPoint{Delay: 50 * time.Millisecond})
	if _, err := c.Submit("g.V()"); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("gserver_slow_queries_total").Value(); got != 1 {
		t.Fatalf("slow counter = %d, want 1", got)
	}
	logged := logBuf.String()
	if !strings.Contains(logged, "slow query") || !strings.Contains(logged, `query="g.V()"`) {
		t.Fatalf("slow-query log missing entry: %q", logged)
	}
}

// TestProfileRoundTrip submits a query with tracing enabled and checks the
// decoded Response.Profile payload.
func TestProfileRoundTrip(t *testing.T) {
	// Instrumented backend, exactly as cmd/graphserver wires it: backend
	// method timings land in the span and come back in the profile payload.
	reg := telemetry.NewRegistry()
	fb := buildFaultyBackend(t)
	src := gremlin.NewSource(graph.Instrument(fb, reg))
	srv := NewWithConfig(src, Config{Registry: reg})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	res, prof, err := c.SubmitProfile("g.V().hasLabel('patient').count()")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].(float64) != 3 {
		t.Fatalf("results = %v, want [3]", res)
	}
	pm, ok := prof.(map[string]any)
	if !ok {
		t.Fatalf("profile payload = %T, want map", prof)
	}
	stmts, ok := pm["statements"].([]any)
	if !ok || len(stmts) == 0 {
		t.Fatalf("profile has no statements: %v", pm)
	}
	st := stmts[0].(map[string]any)
	steps, ok := st["steps"].([]any)
	if !ok || len(steps) == 0 {
		t.Fatalf("statement has no steps: %v", st)
	}
	step := steps[0].(map[string]any)
	for _, key := range []string{"step", "in", "out", "calls", "us"} {
		if _, ok := step[key]; !ok {
			t.Fatalf("step record missing %q: %v", key, step)
		}
	}
	// Backend calls made by the query show up as span ops.
	ops, ok := pm["ops"].([]any)
	if !ok || len(ops) == 0 {
		t.Fatalf("profile has no ops: %v", pm)
	}

	// A plain Submit carries no profile and pays no tracing cost.
	if _, err := c.Submit("g.V().count()"); err != nil {
		t.Fatal(err)
	}
}

// TestCacheMetricsAndFlush proves the caching read path surfaces through the
// server: repeated queries hit the compiled-plan cache and the backend's
// topology caches, "!metrics" reports their counters, and "!flushcaches"
// drops every layer without changing results.
func TestCacheMetricsAndFlush(t *testing.T) {
	reg := telemetry.NewRegistry()
	g := janus.New()
	vs, es := graphtest.Dataset()
	for _, v := range vs {
		if err := g.AddVertex(v); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range es {
		if err := g.AddEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewWithConfig(gremlin.NewSource(g), Config{Registry: reg})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	want, err := c.Submit("g.V('p1').out('hasDisease').out('isa')")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := c.Submit("g.V('p1').out('hasDisease').out('isa')")
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("cached run %d returned %d results, want %d", i, len(got), len(want))
		}
	}

	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		`cache_hits{cache="plan"}`,
		`cache_hits{cache="adjacency"}`,
		`cache_hits{cache="vertex"}`,
	} {
		if m[name] < 1 {
			t.Fatalf("%s = %v, want >= 1 after repeated queries\nmetrics: %v", name, m[name], m)
		}
	}
	if m[`cache_entries{cache="plan"}`] < 1 {
		t.Fatalf("plan cache empty after queries: %v", m)
	}
	// Batched expansion observed its batch sizes.
	if m[`gremlin_batch_size_count`] < 1 {
		t.Fatalf("gremlin_batch_size_count = %v, want >= 1", m[`gremlin_batch_size_count`])
	}

	if err := c.FlushCaches(); err != nil {
		t.Fatal(err)
	}
	m, err = c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		`cache_entries{cache="plan"}`,
		`cache_entries{cache="adjacency"}`,
		`cache_entries{cache="vertex"}`,
	} {
		if m[name] != 0 {
			t.Fatalf("%s = %v after !flushcaches, want 0", name, m[name])
		}
	}
	// Flushed caches only cost refills; results are unchanged.
	got, err := c.Submit("g.V('p1').out('hasDisease').out('isa')")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("post-flush run returned %d results, want %d", len(got), len(want))
	}
}
