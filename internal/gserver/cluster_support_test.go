package gserver

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"db2graph/internal/graph"
	"db2graph/internal/graph/graphtest"
	"db2graph/internal/gremlin"
	"db2graph/internal/sql/types"
	"db2graph/internal/telemetry"
)

// ---------------------------------------------------------------------------
// GraphOp wire protocol

// specialFloats are the float properties JSON cannot carry: a NaN with a
// payload, both infinities, and negative zero.
var specialFloats = map[string]types.Value{
	"nan":   types.NewFloat(math.Float64frombits(0x7ff8_0000_dead_beef)),
	"pinf":  types.NewFloat(math.Inf(1)),
	"ninf":  types.NewFloat(math.Inf(-1)),
	"nzero": types.NewFloat(math.Copysign(0, -1)),
}

// TestGraphOpRoundTrip proves the remote read methods return exactly what
// the local backend returns. The four element reads decode through the one
// Response.ElementBatch decoder: elements, alignment, nil slots, nil and
// empty groups, propless elements, a dual-homed edge with its ghost
// endpoint, and float properties JSON cannot carry, all bit-exact. The
// count equals the backend's own AggVertexEdges count.
func TestGraphOpRoundTrip(t *testing.T) {
	m := graph.NewMemBackend()
	vs, es := graphtest.Dataset()
	vs = append(vs,
		&graph.Element{ID: "f1", Label: "float", Props: specialFloats},
		&graph.Element{ID: "bare", Label: "float"}, // propless, isolated
	)
	es = append(es,
		&graph.Element{ID: "ef1", Label: "weighs", IsEdge: true, OutV: "f1", InV: "p1", Props: specialFloats},
		&graph.Element{ID: "ef2", Label: "weighs", IsEdge: true, OutV: "p2", InV: "f1"}, // propless edge
	)
	for _, v := range vs {
		if err := m.AddVertex(v); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range es {
		if err := m.AddEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewWithConfig(gremlin.NewSource(m), Config{Registry: telemetry.NewRegistry()})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	batch := graph.Batched(m)

	// A dual-homed edge, placed the way the coordinator places one whose
	// in-vertex lives on another shard: the server upserts a ghost copy of
	// the remote endpoint before inserting the edge.
	ghost := &WireElement{ID: "remote9", Label: "disease"}
	if _, err := c.GraphOp(addEdgeOp("dual1", &WireElement{ID: "p3", Label: "patient"}, ghost)); err != nil {
		t.Fatalf("dual-homed AddEdge: %v", err)
	}

	read := func(t *testing.T, op GraphOp) ([]*graph.Element, [][]*graph.Element) {
		t.Helper()
		resp, err := c.GraphOp(op)
		if err != nil {
			t.Fatal(err)
		}
		els, groups, err := resp.ElementBatch()
		if err != nil {
			t.Fatal(err)
		}
		return els, groups
	}
	same := func(t *testing.T, what string, got, want []*graph.Element) {
		t.Helper()
		if g, w := graphtest.RenderBits(got), graphtest.RenderBits(want); g != w {
			t.Fatalf("remote %s diverged\n got: %s\nwant: %s", what, g, w)
		}
	}

	t.Run("V", func(t *testing.T) {
		for _, q := range []*graph.Query{nil, {Labels: []string{"patient"}}, {Labels: []string{"float"}}} {
			want, err := m.V(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			got, groups := read(t, GraphOp{Method: OpV, Query: q})
			if groups != nil {
				t.Fatal("V reply carried groups")
			}
			same(t, "V", got, want)
		}
	})

	t.Run("E", func(t *testing.T) {
		want, err := m.E(ctx, &graph.Query{})
		if err != nil {
			t.Fatal(err)
		}
		got, _ := read(t, GraphOp{Method: OpE, Query: &graph.Query{}})
		same(t, "E", got, want)
		if !strings.Contains(graphtest.RenderBits(got), "dual1|mentions||true|p3->remote9") {
			t.Fatalf("dual-homed edge missing from E: %s", graphtest.RenderBits(got))
		}
	})

	t.Run("VerticesByIDs", func(t *testing.T) {
		// "nope" exercises nil-slot preservation across the wire; "bare"
		// a nil Props map; "remote9" the ghost endpoint.
		ids := []string{"p2", "nope", "f1", "bare", "remote9", "p2"}
		want, err := batch.VerticesByIDs(ctx, ids, &graph.Query{})
		if err != nil {
			t.Fatal(err)
		}
		got, _ := read(t, GraphOp{Method: OpVerticesByIDs, IDs: ids, Query: &graph.Query{}})
		same(t, "VerticesByIDs", got, want)
		if got[1] != nil || got[3] == nil || got[3].Props != nil {
			t.Fatalf("nil slot or propless vertex lost: %s", graphtest.RenderBits(got))
		}
	})

	t.Run("EdgesForVertices", func(t *testing.T) {
		// "bare" has no edges (an empty group); "nope" does not exist;
		// "remote9" holds only the dual-homed edge.
		vids := []string{"p1", "bare", "f1", "nope", "remote9", "d10"}
		want, err := batch.EdgesForVertices(ctx, vids, graph.DirBoth, &graph.Query{})
		if err != nil {
			t.Fatal(err)
		}
		_, groups := read(t, GraphOp{Method: OpEdgesForVertices, IDs: vids, Dir: graph.DirBoth, Query: &graph.Query{}})
		if len(groups) != len(want) {
			t.Fatalf("got %d groups, want %d", len(groups), len(want))
		}
		for i := range groups {
			if (groups[i] == nil) != (want[i] == nil) {
				t.Fatalf("group %d (%s): nil=%v, want nil=%v", i, vids[i], groups[i] == nil, want[i] == nil)
			}
			same(t, "group "+vids[i], groups[i], want[i])
		}
		if len(groups[1]) != 0 || len(groups[4]) != 1 {
			t.Fatalf("empty or dual-homed group wrong: %s / %s", graphtest.RenderBits(groups[1]), graphtest.RenderBits(groups[4]))
		}
	})

	t.Run("CountVertexEdges", func(t *testing.T) {
		// "nope" does not exist, "p2" repeats, and "remote9" is the ghost
		// endpoint of the dual-homed edge.
		vids := []string{"p1", "p2", "nope", "f1", "bare", "remote9", "p2", "d10", "d11"}
		for _, dir := range []graph.Direction{graph.DirOut, graph.DirIn, graph.DirBoth} {
			for _, q := range []*graph.Query{
				nil,
				{Labels: []string{"isa"}},
				{Preds: []graph.Pred{{Key: "description", Op: graph.OpEq, Value: types.NewString("2019")}}},
			} {
				want, err := m.AggVertexEdges(ctx, vids, dir, q, graph.Agg{Kind: graph.AggCount})
				if err != nil {
					t.Fatal(err)
				}
				resp, err := c.GraphOp(GraphOp{Method: OpCountVertexEdges, IDs: vids, Dir: dir, Query: q})
				if err != nil {
					t.Fatal(err)
				}
				got, err := resp.EdgeCount()
				if err != nil {
					t.Fatalf("%s %+v: %v", dir, q, err)
				}
				if w, _ := want.Int(); got != w {
					t.Fatalf("remote %s count %+v = %d, backend says %d", dir, q, got, w)
				}
			}
		}
		// A zero count survives omitempty as a count, not as no reply.
		resp, err := c.GraphOp(GraphOp{Method: OpCountVertexEdges, IDs: []string{"nope"}})
		if err != nil {
			t.Fatal(err)
		}
		if n, err := resp.EdgeCount(); err != nil || n != 0 {
			t.Fatalf("count of a missing vertex = %d, %v; want 0", n, err)
		}
	})

	t.Run("unknown-method", func(t *testing.T) {
		_, err := c.GraphOp(GraphOp{Method: "Nope"})
		if !errors.Is(err, ErrBadRequest) {
			t.Fatalf("unknown method error = %v, want ErrBadRequest", err)
		}
	})
}

// ---------------------------------------------------------------------------
// !health control request

func TestHealthControlRequest(t *testing.T) {
	addr, srv := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	h, err := c.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != HealthOK {
		t.Fatalf("status = %q, want %q", h.Status, HealthOK)
	}
	if h.ReadOnly {
		t.Fatal("mem-backed server reported readonly")
	}
	if h.UptimeMillis < 0 {
		t.Fatalf("uptime = %d, want >= 0", h.UptimeMillis)
	}
	if h.MaxConcurrent <= 0 {
		t.Fatalf("max concurrent = %d, want > 0", h.MaxConcurrent)
	}
	// Health is a control request: it must answer on a quiet server
	// without consuming an admission slot (inflight counts transport
	// requests, active counts executing queries).
	if h.ActiveQueries != 0 {
		t.Fatalf("active queries = %d, want 0", h.ActiveQueries)
	}
	_ = srv
}

// ---------------------------------------------------------------------------
// Client retry: jitter shape + deadline awareness (satellite: jittered
// backoff that never sleeps past the context deadline)

func TestRetryDelayJitterBounds(t *testing.T) {
	base, max := 40*time.Millisecond, 200*time.Millisecond
	expect := []struct {
		attempt int
		full    time.Duration // un-jittered delay for this attempt
	}{
		{1, 40 * time.Millisecond},
		{2, 80 * time.Millisecond},
		{3, 160 * time.Millisecond},
		{4, 200 * time.Millisecond}, // capped
		{9, 200 * time.Millisecond},
	}
	for _, tc := range expect {
		var min, seen time.Duration = time.Hour, 0
		for i := 0; i < 200; i++ {
			d := retryDelay(tc.attempt, base, max)
			if d < tc.full/2 || d > tc.full {
				t.Fatalf("attempt %d delay %v outside [%v, %v]", tc.attempt, d, tc.full/2, tc.full)
			}
			if d < min {
				min = d
			}
			if d > seen {
				seen = d
			}
		}
		// Equal jitter: with 200 samples the spread must actually be used
		// (an un-jittered implementation would return one constant).
		if min == seen {
			t.Fatalf("attempt %d: 200 samples all returned %v — no jitter", tc.attempt, min)
		}
	}
}

// TestRetryStopsBeforeDeadline: with a dead server and a context deadline
// too short to cover the backoff schedule, the client must give up early
// instead of sleeping through the deadline.
func TestRetryStopsBeforeDeadline(t *testing.T) {
	addr, srv := startServer(t)
	c, err := DialOptions(addr, Options{
		DialRetries: 10,
		RetryBase:   300 * time.Millisecond,
		RetryMax:    2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Kill the server: every subsequent exchange fails with a transport
	// error and enters the retry schedule.
	srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = c.SubmitCtx(ctx, "g.V()")
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("submit against closed server succeeded")
	}
	// The first backoff sleep (>=150ms jittered from 300ms) cannot fit the
	// 250ms budget twice; with 10 configured retries an implementation that
	// ignored the deadline would sit through several seconds of backoff.
	if elapsed > 1500*time.Millisecond {
		t.Fatalf("client kept retrying past its deadline: %v", elapsed)
	}
}

// ---------------------------------------------------------------------------
// Close drain semantics (satellite: slow in-flight clients)

// TestCloseDrainsInflightClients proves the documented drain contract from
// the client's perspective: requests in flight when Close begins complete
// with their results; requests issued after Close fail with a connection
// error; and nothing leaks under -race.
func TestCloseDrainsInflightClients(t *testing.T) {
	before := runtime.NumGoroutine()

	fb := buildFaultyBackend(t)
	srv := NewWithConfig(gremlin.NewSource(fb), Config{DrainTimeout: 10 * time.Second})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// Park several slow queries in flight.
	fb.Inject("V", graphtest.FaultPoint{Delay: 400 * time.Millisecond})
	const slow = 3
	results := make([]error, slow)
	var started, done sync.WaitGroup
	for i := 0; i < slow; i++ {
		started.Add(1)
		done.Add(1)
		go func(i int) {
			defer done.Done()
			c, err := Dial(addr)
			if err != nil {
				started.Done()
				results[i] = err
				return
			}
			defer c.Close()
			started.Done()
			res, err := c.Submit("g.V()") // hits the delayed fault point
			if err == nil && len(res) != 8 {
				err = fmt.Errorf("wrong drained result: %v", res)
			}
			results[i] = err
		}(i)
	}
	started.Wait()
	time.Sleep(100 * time.Millisecond) // let the submits reach the server

	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()

	// A client arriving while the server drains must get a typed
	// connection error, not a hang and not a silent empty result.
	time.Sleep(50 * time.Millisecond)
	late, err := DialOptions(addr, Options{Timeout: 2 * time.Second, DialRetries: -1})
	if err == nil {
		_, err = late.Submit("g.V()")
		late.Close()
	}
	if err == nil {
		t.Fatal("request issued after Close succeeded")
	}

	done.Wait()
	if err := <-closed; err != nil {
		t.Fatalf("close: %v", err)
	}
	for i, err := range results {
		if err != nil {
			t.Fatalf("in-flight client %d failed during drain: %v", i, err)
		}
	}

	// Everything the server and clients started must wind down.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if g := runtime.NumGoroutine(); g <= before+2 {
			break
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak after drain: %d -> %d\n%s", before, g, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
