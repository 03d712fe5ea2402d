package gserver

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"db2graph/internal/graph"
	"db2graph/internal/graph/graphtest"
	"db2graph/internal/gremlin"
)

func startServer(t *testing.T) (string, *Server) {
	t.Helper()
	m := graph.NewMemBackend()
	vs, es := graphtest.Dataset()
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
	srv := New(gremlin.NewSource(m))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr, srv
}

func TestSubmitQueries(t *testing.T) {
	addr, _ := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	results, err := c.Submit("g.V().hasLabel('patient').count()")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].(float64) != 3 {
		t.Fatalf("count = %v", results)
	}

	results, err = c.Submit("g.V('p1').out('hasDisease')")
	if err != nil {
		t.Fatal(err)
	}
	m := results[0].(map[string]any)
	if m["id"] != "d11" || m["type"] != "vertex" {
		t.Fatalf("vertex = %v", m)
	}

	results, err = c.Submit("g.V('p1').outE('hasDisease')")
	if err != nil {
		t.Fatal(err)
	}
	e := results[0].(map[string]any)
	if e["type"] != "edge" || e["outV"] != "p1" || e["inV"] != "d11" {
		t.Fatalf("edge = %v", e)
	}

	// Multi-statement script with variables.
	results, err = c.Submit("x = g.V('p1').out('hasDisease').next(); g.V(x).values('conceptName')")
	if err != nil {
		t.Fatal(err)
	}
	if results[0].(string) != "type 2 diabetes" {
		t.Fatalf("script result = %v", results)
	}
}

func TestErrorsPropagate(t *testing.T) {
	addr, _ := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Submit("g.V().nosuchstep()")
	if err == nil || !strings.Contains(err.Error(), "nosuchstep") {
		t.Fatalf("error = %v", err)
	}
	// Connection still usable after an error.
	if _, err := c.Submit("g.V().count()"); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentClients(t *testing.T) {
	addr, _ := startServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := 0; j < 25; j++ {
				res, err := c.Submit("g.V().count()")
				if err != nil {
					errs <- err
					return
				}
				if res[0].(float64) != 8 {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestCloseStopsServer(t *testing.T) {
	addr, srv := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit("g.V().count()"); err == nil {
		t.Fatal("submit after close succeeded")
	}
	if _, err := Dial(addr); err == nil {
		t.Fatal("dial after close succeeded")
	}
}

func TestEncodeShapes(t *testing.T) {
	if Encode([]any{map[string]int64{"a": 1}}).([]any)[0].(map[string]any)["a"].(int64) != 1 {
		t.Fatal("nested encode failed")
	}
	if Encode(struct{}{}) != "{}" {
		t.Fatalf("fallback encode = %v", Encode(struct{}{}))
	}
}

func TestMalformedRequestDropsConnectionOnly(t *testing.T) {
	addr, _ := startServer(t)
	// Raw garbage: the server must drop this connection without crashing.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	raw.Write([]byte("this is not json\n"))
	buf := make([]byte, 64)
	raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := raw.Read(buf); err == nil {
		// A response to garbage would itself be a bug unless it's an error
		// frame; either way the server must stay alive (checked below).
		_ = buf
	}
	raw.Close()

	// The server still answers well-formed clients.
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Submit("g.V().count()")
	if err != nil || res[0].(float64) != 8 {
		t.Fatalf("server unhealthy after garbage: %v, %v", res, err)
	}
}

func TestHugeQueryRoundTrip(t *testing.T) {
	addr, _ := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A query with a large IN-style id list stresses the line protocol.
	ids := make([]string, 500)
	for i := range ids {
		ids[i] = fmt.Sprintf("'p%d'", i%3+1)
	}
	q := "g.V(" + strings.Join(ids, ", ") + ").dedup().count()"
	res, err := c.Submit(q)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].(float64) != 3 {
		t.Fatalf("count = %v", res)
	}
}

// TestClientAbortUnblocks proves Abort frees a client whose exchange is
// blocked on a server that never answers: the exchange fails promptly
// (instead of draining against its socket deadline while holding the
// client mutex), and the client redials cleanly on its next use.
func TestClientAbortUnblocks(t *testing.T) {
	// A listener that accepts and then ignores the connection: the client's
	// read blocks until its 30s socket deadline — far longer than this test
	// is willing to wait without Abort.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var held []net.Conn
	var mu sync.Mutex
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, conn)
			mu.Unlock()
		}
	}()
	defer func() {
		mu.Lock()
		defer mu.Unlock()
		for _, c := range held {
			c.Close()
		}
	}()

	c, err := DialOptions(ln.Addr().String(), Options{Timeout: 30 * time.Second, DialRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan error, 1)
	go func() {
		_, err := c.Submit("g.V()")
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the exchange block on the read
	start := time.Now()
	c.Abort()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("aborted exchange reported success")
		}
		if el := time.Since(start); el > 2*time.Second {
			t.Fatalf("abort took %v to unblock the exchange", el)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Abort did not unblock the in-flight exchange")
	}

	// The client must recover: point it at a real server by redialing —
	// the aborted connection is gone, so the next exchange (with default
	// transport retries) redials fresh.
	addr, _ := startServer(t)
	c2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	go func() {
		_, err := c2.Submit("g.V().count()")
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	c2.Abort() // abort mid- or post-exchange; either way the client self-heals
	<-done
	if _, err := c2.Submit("g.V().count()"); err != nil {
		t.Fatalf("client did not recover after Abort: %v", err)
	}
}

// startStatsServer is startServer with a statistics provider wired into the
// traversal source, so !analyze and costed !explain work.
func startStatsServer(t *testing.T) string {
	t.Helper()
	m := graph.NewMemBackend()
	vs, es := graphtest.FanoutDataset()
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
	src := gremlin.NewSource(m).
		WithStats(graph.NewStatsProvider(m)).
		WithPlanCache(gremlin.NewPlanCache(0))
	srv := New(src)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr
}

func TestExplainAndAnalyzeControls(t *testing.T) {
	addr := startStatsServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Before !analyze: explain renders, but uncosted.
	text, err := c.Explain("g.V('h1').in('follows')")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "static (no statistics)") {
		t.Fatalf("pre-analyze explain should be static:\n%s", text)
	}

	summary, err := c.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(summary, "analyzed:") || !strings.Contains(summary, "epoch 1") {
		t.Fatalf("analyze summary = %q", summary)
	}

	text, err = c.Explain("g.V('h1').in('follows')")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"explain [", "costed", "est.rows", "actual", "in(follows)"} {
		if !strings.Contains(text, want) {
			t.Fatalf("costed explain missing %q:\n%s", want, text)
		}
	}

	// The explained script really executed (estimated vs ACTUAL rows).
	if !strings.Contains(text, "40") {
		t.Fatalf("explain should report the 40 followers actually produced:\n%s", text)
	}

	// Bad script through the explain path propagates a normal error.
	if _, err := c.Explain("g.V().nosuchstep()"); err == nil || !strings.Contains(err.Error(), "nosuchstep") {
		t.Fatalf("explain error = %v", err)
	}
}

func TestAnalyzeWithoutStatsProvider(t *testing.T) {
	addr, _ := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Analyze(); err == nil || !strings.Contains(err.Error(), "no statistics provider") {
		t.Fatalf("analyze without provider = %v", err)
	}
	// But !explain still works — it just renders a static plan.
	text, err := c.Explain("g.V().out('hasDisease').count()")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "static (no statistics)") {
		t.Fatalf("explain without stats:\n%s", text)
	}
}
