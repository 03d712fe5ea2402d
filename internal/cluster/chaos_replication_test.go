package cluster

import (
	"net"
	"strings"
	"testing"
	"time"

	"db2graph/internal/graph"
	"db2graph/internal/gremlin"
	"db2graph/internal/gserver"
	"db2graph/internal/telemetry"
)

// TestHealRevivesParkedSubscription is the satellite regression for chaos
// heal semantics: a replication subscription dialed DURING a partition is
// parked (accepted, blackholed) rather than refused; Heal must revive that
// very connection so the stream resumes without a redial.
//
// The primary serves clients on a clean listener and replication through a
// chaos listener, so the partition hits only the follower's subscription.
func TestHealRevivesParkedSubscription(t *testing.T) {
	primary, err := gserver.NewReplicated(gremlin.NewSource(graph.NewMemBackend()), gserver.Config{
		Registry:    telemetry.NewRegistry(),
		Replication: &gserver.ReplicationConfig{Role: gserver.RolePrimary, AckTimeout: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	clientAddr, err := primary.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	chaos := WrapListener(ln)
	repAddr := primary.Serve(chaos)
	t.Cleanup(func() { primary.Close() })

	freg := telemetry.NewRegistry()
	follower, err := gserver.NewReplicated(gremlin.NewSource(graph.NewMemBackend()), gserver.Config{
		Registry:    freg,
		Replication: &gserver.ReplicationConfig{Role: gserver.RoleFollower, PrimaryAddr: repAddr},
	})
	if err != nil {
		t.Fatal(err)
	}
	faddr, err := follower.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { follower.Close() })

	pc, err := gserver.Dial(clientAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	fc, err := gserver.Dial(faddr)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()

	write := func(id string) {
		t.Helper()
		_, err := pc.GraphOp(gserver.GraphOp{
			Method:  gserver.OpAddVertex,
			Element: &gserver.WireElement{ID: id, Label: "user"},
		})
		if err != nil {
			t.Fatalf("write %s: %v", id, err)
		}
	}
	followerHas := func(id string) bool {
		resp, err := fc.GraphOp(gserver.GraphOp{Method: gserver.OpV})
		if err != nil {
			return false
		}
		els, _, err := resp.ElementBatch()
		if err != nil {
			return false
		}
		for _, el := range els {
			if el != nil && strings.EqualFold(el.ID, id) {
				return true
			}
		}
		return false
	}
	waitFor := func(id string, d time.Duration) {
		t.Helper()
		deadline := time.Now().Add(d)
		for !followerHas(id) {
			if time.Now().After(deadline) {
				t.Fatalf("follower never received %s", id)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	write("v1")
	waitFor("v1", 5*time.Second)

	connects := freg.Counter("gserver_replica_connects_total")

	// Partition the replication path: the live subscription dies, the
	// follower redials, and that new connection is parked.
	chaos.SetPartitioned(true)
	deadline := time.Now().Add(5 * time.Second)
	before := connects.Value()
	for connects.Value() == before {
		if time.Now().After(deadline) {
			t.Fatal("follower never redialed after its subscription was killed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Let the redial count settle: the parked connection blocks the
	// follower's session loop, so the count must stop moving.
	var parked int64
	for settle := time.Now(); ; {
		v := connects.Value()
		if v == parked && time.Since(settle) > 400*time.Millisecond {
			break
		}
		if v != parked {
			parked, settle = v, time.Now()
		}
		if time.Now().After(deadline) {
			t.Fatalf("redial count never settled (at %d)", v)
		}
		time.Sleep(25 * time.Millisecond)
	}

	// A write during the partition lands on the primary only (no
	// subscriber is attached, so it acks immediately).
	write("v2")

	// Heal: the parked connection revives in place and the stream resumes
	// — v2 arrives with zero additional dials.
	chaos.Heal()
	waitFor("v2", 10*time.Second)
	if got := connects.Value(); got != parked {
		t.Fatalf("subscription redialed across heal: %d connects, want %d (the parked conn must resume)", got, parked)
	}

	// The revived stream keeps serving new traffic too.
	write("v3")
	waitFor("v3", 5*time.Second)
}
