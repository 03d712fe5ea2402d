package gserver

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"db2graph/internal/graph"
	"db2graph/internal/gremlin"
	"db2graph/internal/telemetry"
)

// startPair boots a primary/follower gserver pair over fresh MemBackends and
// returns clients for both plus the servers, once the primary reports the
// follower's subscription: until then a primary acks writes solo (the
// documented semi-sync contract), so a test asserting "acked means on the
// follower" must not write earlier.
func startPair(t *testing.T) (pc, fc *Client, primary, follower *Server) {
	t.Helper()
	pb, fb := graph.NewMemBackend(), graph.NewMemBackend()
	var err error
	primary, err = NewReplicated(gremlin.NewSource(pb), Config{
		Registry:    telemetry.NewRegistry(),
		Replication: &ReplicationConfig{Role: RolePrimary, AckTimeout: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	paddr, err := primary.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { primary.Close() })
	follower, err = NewReplicated(gremlin.NewSource(fb), Config{
		Registry:    telemetry.NewRegistry(),
		Replication: &ReplicationConfig{Role: RoleFollower, PrimaryAddr: paddr},
	})
	if err != nil {
		t.Fatal(err)
	}
	faddr, err := follower.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { follower.Close() })
	pc, err = Dial(paddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pc.Close() })
	fc, err = Dial(faddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fc.Close() })
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		h, err := pc.Health()
		if err != nil {
			t.Fatal(err)
		}
		if h.ReplicaAttached {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("follower never attached to the primary")
		}
	}
	return pc, fc, primary, follower
}

func addVertexOp(id, label string) GraphOp {
	return GraphOp{Method: OpAddVertex, Element: &WireElement{ID: id, Label: label}}
}

func addEdgeOp(id string, out, in *WireElement) GraphOp {
	return GraphOp{
		Method:      OpAddEdge,
		Element:     &WireElement{ID: id, Label: "mentions", IsEdge: true, OutV: out.ID, InV: in.ID},
		OutVElement: out,
		InVElement:  in,
	}
}

// dumpGraph renders every vertex and edge id:label(+endpoints) sorted, so
// two backends can be compared exactly.
func dumpGraph(t *testing.T, c *Client) string {
	t.Helper()
	var lines []string
	for _, method := range []string{OpV, OpE} {
		resp, err := c.GraphOp(GraphOp{Method: method})
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		els, _, err := resp.ElementBatch()
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		for _, el := range els {
			if el == nil {
				continue
			}
			lines = append(lines, fmt.Sprintf("%s:%s:%s>%s", el.ID, el.Label, el.OutV, el.InV))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestReplicatedPairSyncAck is the core synchronous-replication contract:
// every write acknowledged by the primary is immediately visible on the
// follower — no "eventually", the ack itself is the barrier.
func TestReplicatedPairSyncAck(t *testing.T) {
	pc, fc, primary, follower := startPair(t)
	_ = follower
	for i := 0; i < 20; i++ {
		u := &WireElement{ID: fmt.Sprintf("u%d", i), Label: "user"}
		if resp, err := pc.GraphOp(addVertexOp(u.ID, u.Label)); err != nil || resp.Code != "" {
			t.Fatalf("AddVertex %s: %v %+v", u.ID, err, resp)
		}
		if i > 0 {
			prev := &WireElement{ID: fmt.Sprintf("u%d", i-1), Label: "user"}
			if resp, err := pc.GraphOp(addEdgeOp(fmt.Sprintf("m%d", i), u, prev)); err != nil || resp.Code != "" {
				t.Fatalf("AddEdge m%d: %v %+v", i, err, resp)
			}
		}
		// The ack already happened; the follower must have the write NOW.
		if p, f := dumpGraph(t, pc), dumpGraph(t, fc); p != f {
			t.Fatalf("follower behind after acked write %d\nprimary:\n%s\nfollower:\n%s", i, p, f)
		}
	}
	h, err := pc.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.Role != RolePrimary || !h.ReplicaAttached || h.ReplicationLagRecords != 0 {
		t.Fatalf("primary health: %+v", h)
	}
	fh, err := fc.Health()
	if err != nil {
		t.Fatal(err)
	}
	if fh.Role != RoleFollower || fh.LastSeq != h.LastSeq {
		t.Fatalf("follower health: %+v (primary %+v)", fh, h)
	}
	_ = primary
}

// TestFollowerRejectsWrites: mutations against a follower fail typed, reads
// still serve (replica reads are the point of having one).
func TestFollowerRejectsWrites(t *testing.T) {
	pc, fc, _, _ := startPair(t)
	if resp, err := pc.GraphOp(addVertexOp("a", "user")); err != nil || resp.Code != "" {
		t.Fatalf("primary write: %v %+v", err, resp)
	}
	_, err := fc.GraphOp(addVertexOp("b", "user"))
	if !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("follower write should be NOT_PRIMARY, got %v", err)
	}
	resp, err := fc.GraphOp(GraphOp{Method: OpVerticesByIDs, IDs: []string{"a"}})
	els, _, _ := resp.ElementBatch()
	if err != nil || len(els) != 1 || els[0] == nil {
		t.Fatalf("follower read: %v %+v", err, resp)
	}
}

// TestPromoteAndFence walks the failover protocol by hand: promote the
// follower to epoch 2, fence the old primary, and verify the zombie can no
// longer acknowledge anything — neither via stale-epoch writes nor direct
// epochless ones — while the new primary accepts epoch-2 writes.
func TestPromoteAndFence(t *testing.T) {
	pc, fc, _, _ := startPair(t)
	if resp, err := pc.GraphOp(addVertexOp("a", "user")); err != nil || resp.Code != "" {
		t.Fatalf("seed write: %v %+v", err, resp)
	}

	// Promote the follower.
	if _, err := fc.Submit("!promote 2"); err != nil {
		t.Fatalf("promote: %v", err)
	}
	if h, err := fc.Health(); err != nil || h.Role != RolePrimary || h.Epoch != 2 {
		t.Fatalf("promoted health: %v %+v", err, h)
	}
	// New primary accepts writes at the new epoch (and epochless ones).
	op := addVertexOp("b", "user")
	op.Epoch = 2
	if resp, err := fc.GraphOp(op); err != nil || resp.Code != "" {
		t.Fatalf("write to new primary: %v %+v", err, resp)
	}

	// Zombie: stale-epoch writes rejected even before fencing...
	op = addVertexOp("c", "user")
	op.Epoch = 2
	if _, err := pc.GraphOp(op); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale primary should reject epoch-2 write (its epoch is 1), got %v", err)
	}
	// (an epoch-1 write still lands — the fence closes that hole)
	if _, err := pc.Submit("!fence 2"); err != nil {
		t.Fatalf("fence: %v", err)
	}
	if _, err := pc.GraphOp(addVertexOp("d", "user")); !errors.Is(err, ErrFenced) {
		t.Fatalf("fenced primary must reject all writes, got %v", err)
	}
	if h, err := pc.Health(); err != nil || !h.Fenced {
		t.Fatalf("fenced health: %v %+v", err, h)
	}
	// A stale fence cannot kill the new primary.
	if _, err := fc.Submit("!fence 2"); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("fence at own epoch must be rejected, got %v", err)
	}
	if h, err := fc.Health(); err != nil || h.Fenced {
		t.Fatalf("new primary wrongly fenced: %v %+v", err, h)
	}
	// Double promote is idempotent.
	if _, err := fc.Submit("!promote 2"); err != nil {
		t.Fatalf("re-promote: %v", err)
	}
}

// TestPromotedFollowerServesReplication: after promotion the new primary's
// own oplog (built while it was a follower) can seed a fresh follower — the
// chain survives a failover.
func TestPromotedFollowerServesReplication(t *testing.T) {
	pc, fc, _, follower := startPair(t)
	for i := 0; i < 5; i++ {
		if resp, err := pc.GraphOp(addVertexOp(fmt.Sprintf("u%d", i), "user")); err != nil || resp.Code != "" {
			t.Fatalf("write %d: %v %+v", i, err, resp)
		}
	}
	if _, err := fc.Submit("!promote 2"); err != nil {
		t.Fatalf("promote: %v", err)
	}
	// Third server subscribes to the promoted follower.
	tb := graph.NewMemBackend()
	third, err := NewReplicated(gremlin.NewSource(tb), Config{
		Registry: telemetry.NewRegistry(),
		Replication: &ReplicationConfig{
			Role: RoleFollower, PrimaryAddr: followerAddr(t, follower),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	taddr, err := third.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer third.Close()
	tc, err := Dial(taddr)
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	op := addVertexOp("post-promote", "user")
	op.Epoch = 2
	if resp, err := fc.GraphOp(op); err != nil || resp.Code != "" {
		t.Fatalf("post-promote write: %v %+v", err, resp)
	}
	want := dumpGraph(t, fc)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got := dumpGraph(t, tc); got == want {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("third replica never converged\nwant:\n%s\ngot:\n%s", want, dumpGraph(t, tc))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// followerAddr digs the listen address out of a running server.
func followerAddr(t *testing.T, s *Server) string {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listener == nil {
		t.Fatal("server not listening")
	}
	return s.listener.Addr().String()
}

// TestGhostEndpointUpsert: an AddEdge carrying endpoint elements lands on a
// server that owns neither endpoint; both are upserted before the edge.
func TestGhostEndpointUpsert(t *testing.T) {
	pc, fc, _, _ := startPair(t)
	out := &WireElement{ID: "x1", Label: "user"}
	in := &WireElement{ID: "x2", Label: "user"}
	if resp, err := pc.GraphOp(addEdgeOp("e1", out, in)); err != nil || resp.Code != "" {
		t.Fatalf("AddEdge with ghost endpoints: %v %+v", err, resp)
	}
	for _, c := range []*Client{pc, fc} {
		resp, err := c.GraphOp(GraphOp{Method: OpVerticesByIDs, IDs: []string{"x1", "x2"}})
		els, _, _ := resp.ElementBatch()
		if err != nil || len(els) != 2 || els[0] == nil || els[1] == nil {
			t.Fatalf("ghost endpoints missing: %v %+v", err, resp)
		}
	}
	// Re-adding an endpoint that now exists must not error (upsert).
	if resp, err := pc.GraphOp(addEdgeOp("e2", out, in)); err != nil || resp.Code != "" {
		t.Fatalf("second edge between existing endpoints: %v %+v", err, resp)
	}
}

// TestUnreplicatedMutations: a plain server with a mutable backend accepts
// graph-op writes with no replication configured.
func TestUnreplicatedMutations(t *testing.T) {
	m := graph.NewMemBackend()
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
	if resp, err := c.GraphOp(addVertexOp("a", "user")); err != nil || resp.Code != "" {
		t.Fatalf("AddVertex: %v %+v", err, resp)
	}
	resp, err := c.GraphOp(GraphOp{Method: OpVerticesByIDs, IDs: []string{"a"}})
	els, _, _ := resp.ElementBatch()
	if err != nil || len(els) != 1 || els[0] == nil {
		t.Fatalf("read back: %v %+v", err, resp)
	}
}
