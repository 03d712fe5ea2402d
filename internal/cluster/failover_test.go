package cluster

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"db2graph/internal/graph"
	"db2graph/internal/gremlin"
	"db2graph/internal/gserver"
	"db2graph/internal/telemetry"
)

// startReplicatedShard boots one primary gserver behind a chaos listener
// plus a follower subscribed to it, both over fresh MemBackends.
func startReplicatedShard(t *testing.T) (chaos *Chaos, paddr, faddr string) {
	t.Helper()
	primary, err := gserver.NewReplicated(gremlin.NewSource(graph.NewMemBackend()), gserver.Config{
		Registry:    telemetry.NewRegistry(),
		Replication: &gserver.ReplicationConfig{Role: gserver.RolePrimary, AckTimeout: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	chaos = WrapListener(ln)
	paddr = primary.Serve(chaos)
	t.Cleanup(func() { primary.Close() })

	follower, err := gserver.NewReplicated(gremlin.NewSource(graph.NewMemBackend()), gserver.Config{
		Registry:    telemetry.NewRegistry(),
		Replication: &gserver.ReplicationConfig{Role: gserver.RoleFollower, PrimaryAddr: paddr},
	})
	if err != nil {
		t.Fatal(err)
	}
	faddr, err = follower.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { follower.Close() })
	return chaos, paddr, faddr
}

func vertexIDs(t *testing.T, c *Coordinator) map[string]bool {
	t.Helper()
	els, err := c.V(context.Background(), &graph.Query{})
	if err != nil {
		t.Fatalf("coordinator V: %v", err)
	}
	ids := make(map[string]bool, len(els))
	for _, el := range els {
		ids[el.ID] = true
	}
	return ids
}

// TestAutomaticFailover is the chaos failover proof at the coordinator
// level: kill the primary under write load, watch the state machine promote
// the follower, and verify every acknowledged write survived, every
// unacknowledged failure was typed (indeterminate or determinate — never a
// silent lie), and the healed zombie is fenced.
func TestAutomaticFailover(t *testing.T) {
	chaos, paddr, faddr := startReplicatedShard(t)
	reg := telemetry.NewRegistry()
	coord, err := Dial(Config{
		Addrs:             []string{paddr},
		Replicas:          []string{faddr},
		Retries:           -1,
		RequestTimeout:    time.Second,
		BreakerThreshold:  2,
		BreakerCooloff:    30 * time.Second, // recovery must come from failover, not cooloff
		HealthInterval:    15 * time.Millisecond,
		HealthTimeout:     250 * time.Millisecond,
		HealthBackoffMax:  60 * time.Millisecond,
		FailoverThreshold: 2,
		Registry:          reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	acked := make(map[string]bool)   // write returned nil: MUST survive
	unsent := make(map[string]bool)  // determinate failure: MUST NOT appear
	unknown := make(map[string]bool) // indeterminate: either is correct
	write := func(id string) {
		err := coord.AddVertex(&graph.Element{ID: id, Label: "user"})
		switch {
		case err == nil:
			acked[id] = true
		case errors.Is(err, ErrIndeterminateWrite):
			unknown[id] = true
		default:
			unsent[id] = true
		}
	}
	ids := func(prefix string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = prefix + string(rune('a'+i%26)) + string(rune('a'+i/26))
		}
		return out
	}

	for _, id := range ids("pre", 10) {
		write(id)
	}
	if len(acked) != 10 {
		t.Fatalf("pre-fault writes: %d acked of 10 (unsent %d, unknown %d)", len(acked), len(unsent), len(unknown))
	}

	// Hard-kill the primary and keep writing through the outage.
	chaos.SetPartitioned(true)
	chaos.SetReset(true)
	failovers := reg.Counter(`cluster_failovers_total{shard="0"}`)
	deadline := time.Now().Add(15 * time.Second)
	i := 0
	during := ids("mid", 200)
	for failovers.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("failover never triggered")
		}
		write(during[i%len(during)])
		i++
		time.Sleep(10 * time.Millisecond)
	}

	// Post-failover: writes must flow again, to the promoted follower.
	var lastErr error
	ok := false
	for _, id := range ids("post", 20) {
		if err := coord.AddVertex(&graph.Element{ID: id, Label: "user"}); err == nil {
			acked[id] = true
			ok = true
		} else {
			lastErr = err
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !ok {
		t.Fatalf("no write succeeded after failover: %v", lastErr)
	}
	if got := reg.Gauge(`cluster_shard_epoch{shard="0"}`).Value(); got < 2 {
		t.Fatalf("epoch after failover = %d, want >= 2", got)
	}

	// Zero wrong results: acked writes all present, determinate failures
	// all absent. (Reads are now served by the promoted follower.)
	have := vertexIDs(t, coord)
	for id := range acked {
		if !have[id] {
			t.Fatalf("acknowledged write %q lost across failover", id)
		}
	}
	for id := range unsent {
		if !acked[id] && !unknown[id] && have[id] {
			t.Fatalf("determinately-failed write %q appeared anyway", id)
		}
	}

	// Heal the network: the deposed primary comes back a zombie. The
	// fence loop must land, after which it can never acknowledge a write.
	chaos.Heal()
	zc, err := gserver.Dial(paddr)
	if err != nil {
		t.Fatalf("dial healed zombie: %v", err)
	}
	defer zc.Close()
	fenceDeadline := time.Now().Add(10 * time.Second)
	for {
		_, err := zc.GraphOp(gserver.GraphOp{
			Method:  gserver.OpAddVertex,
			Element: &gserver.WireElement{ID: "zombie-write", Label: "user"},
		})
		if errors.Is(err, gserver.ErrFenced) {
			break
		}
		if time.Now().After(fenceDeadline) {
			t.Fatalf("zombie never fenced; last write result: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	// And the coordinator still answers correctly after the zombie heals.
	have = vertexIDs(t, coord)
	for id := range acked {
		if !have[id] {
			t.Fatalf("acknowledged write %q lost after zombie heal", id)
		}
	}
}

// TestReplicaReads: with the primary down and failover disabled (threshold
// out of reach), opted-in reads are served by the caught-up follower while
// writes keep failing determinately.
func TestReplicaReads(t *testing.T) {
	chaos, paddr, faddr := startReplicatedShard(t)
	reg := telemetry.NewRegistry()
	coord, err := Dial(Config{
		Addrs:             []string{paddr},
		Replicas:          []string{faddr},
		Retries:           -1,
		RequestTimeout:    time.Second,
		BreakerThreshold:  2,
		BreakerCooloff:    30 * time.Second,
		HealthInterval:    15 * time.Millisecond,
		HealthTimeout:     250 * time.Millisecond,
		FailoverThreshold: 1 << 30, // never fail over in this test
		ReplicaReads:      true,
		Registry:          reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	for _, id := range []string{"r1", "r2", "r3"} {
		if err := coord.AddVertex(&graph.Element{ID: id, Label: "user"}); err != nil {
			t.Fatalf("seed write %s: %v", id, err)
		}
	}

	chaos.SetPartitioned(true)
	chaos.SetReset(true)
	// Wait for the breaker to open via probes, then reads must come back
	// from the replica.
	deadline := time.Now().Add(10 * time.Second)
	replReads := reg.Counter(`cluster_replica_reads_total{shard="0"}`)
	for {
		ids, err := func() (map[string]bool, error) {
			els, err := coord.V(context.Background(), &graph.Query{})
			if err != nil {
				return nil, err
			}
			m := map[string]bool{}
			for _, el := range els {
				m[el.ID] = true
			}
			return m, nil
		}()
		if err == nil && replReads.Value() > 0 {
			if !ids["r1"] || !ids["r2"] || !ids["r3"] {
				t.Fatalf("replica read missing seeded vertices: %v", ids)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica read never served (err %v, counter %d)", err, replReads.Value())
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Writes must NOT silently divert to the replica.
	err = coord.AddVertex(&graph.Element{ID: "r4", Label: "user"})
	if err == nil {
		t.Fatal("write succeeded with the primary dead and no failover")
	}
	if errors.Is(err, ErrIndeterminateWrite) {
		t.Fatalf("breaker-open write must be determinate, got %v", err)
	}
}

// TestProberBackoffBoundsProbeCount is the satellite-2 regression: while a
// shard stays down, the health prober backs off exponentially instead of
// hammering the dead address at the full probe rate.
func TestProberBackoffBoundsProbeCount(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close() // nothing listens: every probe fails fast

	reg := telemetry.NewRegistry()
	coord, err := Dial(Config{
		Addrs:            []string{dead},
		HealthInterval:   10 * time.Millisecond,
		HealthBackoffMax: 320 * time.Millisecond,
		HealthTimeout:    100 * time.Millisecond,
		Registry:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	time.Sleep(1200 * time.Millisecond)
	probes := reg.Counter(`cluster_health_probes_total{shard="0"}`).Value()
	// Fixed-rate probing would fire ~120 times in 1.2s. The backoff
	// schedule (10,20,40,80,160,320,320,... with equal jitter) allows at
	// most ~12; leave generous slack for scheduling noise.
	if probes == 0 {
		t.Fatal("prober never ran")
	}
	if probes > 30 {
		t.Fatalf("prober fired %d times in 1.2s against a dead shard; backoff not applied", probes)
	}
}

// TestPartialReportDedup is the satellite-4 regression: a report hammered
// concurrently for the same shard (scatter legs racing a heal/promotion)
// names the shard exactly once, keeping the latest cause.
func TestPartialReportDedup(t *testing.T) {
	var r PartialReport
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.record(ShardError{Shard: 2, Addr: "b", Err: errBreakerOpen})
				r.record(ShardError{Shard: 0, Addr: "a", Err: errBreakerOpen})
			}
		}()
	}
	wg.Wait()
	r.record(ShardError{Shard: 2, Addr: "b-promoted", Err: errBreakerOpen})
	fs := r.Failures()
	if len(fs) != 2 {
		t.Fatalf("Failures() = %d entries, want 2 (one per shard): %v", len(fs), fs)
	}
	if fs[0].Shard != 0 || fs[1].Shard != 2 {
		t.Fatalf("failures not ordered by shard: %v", fs)
	}
	if fs[1].Addr != "b-promoted" {
		t.Fatalf("latest cause must win: got addr %q", fs[1].Addr)
	}
}
