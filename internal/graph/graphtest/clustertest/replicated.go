// Replicated-cluster conformance: every shard runs as a primary/follower
// gserver pair under synchronous logical replication, fronted by a
// failover-capable coordinator. The suite proves three things, per backend:
//
//  1. Replication differential: after a concurrent write load through the
//     coordinator quiesces, each follower's graph is BIT-IDENTICAL to its
//     primary's — same vertices, same edges, rendered and compared exactly.
//  2. Chaos failover: hard-killing a shard's primary mid-load triggers
//     automatic promotion of its follower. Every acknowledged write
//     survives, every failure is typed (indeterminate at worst — never a
//     silent lie), and the cluster answers correctly afterwards.
//  3. Fencing: once the dead primary heals it is a zombie — the fence
//     lands and it can never acknowledge another write, and nothing it
//     accepted while deposed ever appears in a coordinator answer.
//
// Run under -race: replication acks, health probes, promotion, and fence
// delivery all race with the write load by design.
package clustertest

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"db2graph/internal/cluster"
	"db2graph/internal/graph"
	"db2graph/internal/graph/graphtest"
	"db2graph/internal/gremlin"
	"db2graph/internal/gserver"
	"db2graph/internal/telemetry"
)

// MutableBuilder builds one fresh, isolated backend instance loaded with
// exactly the given elements, plus the write path that mutates it.
type MutableBuilder func(vertices, edges []*graph.Element) (graph.Backend, graph.Mutable, error)

// replicatedHarness is one live deployment of n primary/follower pairs.
type replicatedHarness struct {
	coord     *cluster.Coordinator
	reg       *telemetry.Registry
	chaos     []*cluster.Chaos // wraps each PRIMARY's listener
	primaries []*gserver.Server
	followers []*gserver.Server
	paddrs    []string
	faddrs    []string
}

func startReplicated(t *testing.T, build MutableBuilder, n int, cfg cluster.Config) *replicatedHarness {
	t.Helper()
	vs, es := graphtest.Dataset()
	parts := cluster.Partition(vs, es, n)
	h := &replicatedHarness{reg: telemetry.NewRegistry()}
	for i := 0; i < n; i++ {
		// Primary and follower are seeded with the same partition, so the
		// oplog only ever carries the live write load.
		pb, pmut, err := build(parts[i].Vertices, parts[i].Edges)
		if err != nil {
			t.Fatalf("build shard %d primary: %v", i, err)
		}
		primary, err := gserver.NewReplicated(gremlin.NewSource(pb), gserver.Config{
			Registry: telemetry.NewRegistry(),
			Mutator:  pmut,
			Replication: &gserver.ReplicationConfig{
				Role: gserver.RolePrimary, AckTimeout: 2 * time.Second,
			},
		})
		if err != nil {
			t.Fatalf("shard %d primary server: %v", i, err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ch := cluster.WrapListener(ln)
		paddr := primary.Serve(ch)

		fb, fmut, err := build(parts[i].Vertices, parts[i].Edges)
		if err != nil {
			t.Fatalf("build shard %d follower: %v", i, err)
		}
		follower, err := gserver.NewReplicated(gremlin.NewSource(fb), gserver.Config{
			Registry: telemetry.NewRegistry(),
			Mutator:  fmut,
			Replication: &gserver.ReplicationConfig{
				Role: gserver.RoleFollower, PrimaryAddr: paddr,
			},
		})
		if err != nil {
			t.Fatalf("shard %d follower server: %v", i, err)
		}
		faddr, err := follower.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		h.chaos = append(h.chaos, ch)
		h.primaries = append(h.primaries, primary)
		h.followers = append(h.followers, follower)
		h.paddrs = append(h.paddrs, paddr)
		h.faddrs = append(h.faddrs, faddr)
	}
	cfg.Addrs = h.paddrs
	cfg.Replicas = h.faddrs
	cfg.Registry = h.reg
	coord, err := cluster.Dial(cfg)
	if err != nil {
		t.Fatalf("dial coordinator: %v", err)
	}
	h.coord = coord
	t.Cleanup(func() {
		coord.Close()
		for _, ch := range h.chaos {
			ch.Heal()
		}
		for i := range h.primaries {
			h.primaries[i].Close()
			h.followers[i].Close()
		}
	})
	return h
}

// dumpServer renders every vertex and edge on one server, sorted, so two
// replicas can be compared bit-for-bit.
func dumpServer(t *testing.T, addr string) string {
	t.Helper()
	c, err := gserver.Dial(addr)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	defer c.Close()
	var lines []string
	for _, method := range []string{gserver.OpV, gserver.OpE} {
		resp, err := c.GraphOp(gserver.GraphOp{Method: method})
		if err != nil {
			t.Fatalf("%s on %s: %v", method, addr, err)
		}
		els, _, err := resp.ElementBatch()
		if err != nil {
			t.Fatalf("%s on %s: %v", method, addr, err)
		}
		for _, el := range els {
			if el == nil {
				continue
			}
			props := make([]string, 0, len(el.Props))
			for k, v := range el.Props {
				props = append(props, fmt.Sprintf("%s=%v", k, v))
			}
			sort.Strings(props)
			lines = append(lines, fmt.Sprintf("%s:%s:%s>%s:%v", el.ID, el.Label, el.OutV, el.InV, props))
		}
	}
	sort.Strings(lines)
	return fmt.Sprintf("%d elements\n%v", len(lines), lines)
}

func coordIDs(t *testing.T, h *replicatedHarness) (vids, eids map[string]bool) {
	t.Helper()
	ctx := context.Background()
	vids, eids = map[string]bool{}, map[string]bool{}
	vs, err := h.coord.V(ctx, &graph.Query{})
	if err != nil {
		t.Fatalf("coordinator V: %v", err)
	}
	for _, el := range vs {
		vids[el.ID] = true
	}
	es, err := h.coord.E(ctx, &graph.Query{})
	if err != nil {
		t.Fatalf("coordinator E: %v", err)
	}
	for _, el := range es {
		eids[el.ID] = true
	}
	return vids, eids
}

// RunReplicatedCluster executes the replication differential + chaos
// failover + fencing suite against primary/follower pairs built by build.
func RunReplicatedCluster(t *testing.T, build MutableBuilder) {
	t.Helper()

	t.Run("differential", func(t *testing.T) {
		// Calm config: no prober, generous timeouts — this phase is about
		// replication correctness under concurrency, not fault handling.
		h := startReplicated(t, build, 2, cluster.Config{
			Retries:        2,
			RequestTimeout: 10 * time.Second,
		})
		const writers, perWriter = 4, 25
		var wg sync.WaitGroup
		errCh := make(chan error, writers)
		for g := 0; g < writers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				ctx := context.Background()
				var prev *graph.Element
				for i := 0; i < perWriter; i++ {
					v := &graph.Element{ID: fmt.Sprintf("ru%d_%d", g, i), Label: "user"}
					if err := h.coord.AddVertexCtx(ctx, v); err != nil {
						errCh <- fmt.Errorf("writer %d vertex %d: %w", g, i, err)
						return
					}
					if prev != nil && i%5 == 0 {
						e := &graph.Element{
							ID: fmt.Sprintf("rm%d_%d", g, i), Label: "mentions",
							OutV: prev.ID, InV: v.ID, IsEdge: true,
						}
						if err := h.coord.AddEdgeCtx(ctx, e, prev, v); err != nil {
							errCh <- fmt.Errorf("writer %d edge %d: %w", g, i, err)
							return
						}
					}
					prev = v
				}
			}(g)
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			t.Fatal(err)
		}

		// Quiesce is implicit: every write above returned only after its
		// follower acknowledged the applied op. Bit-identical now.
		for i := range h.paddrs {
			p, f := dumpServer(t, h.paddrs[i]), dumpServer(t, h.faddrs[i])
			if p != f {
				t.Fatalf("shard %d follower diverged from primary at quiesce\nprimary:  %s\nfollower: %s", i, p, f)
			}
		}

		// And the coordinator's merged answer holds exactly the seeded
		// dataset plus the written load — nothing lost, nothing invented.
		vids, eids := coordIDs(t, h)
		vs, es := graphtest.Dataset()
		wantV, wantE := len(vs)+writers*perWriter, 0
		for _, v := range vs {
			if !vids[v.ID] {
				t.Fatalf("seeded vertex %s missing after write load", v.ID)
			}
		}
		for _, e := range es {
			wantE++
			if !eids[e.ID] {
				t.Fatalf("seeded edge %s missing after write load", e.ID)
			}
		}
		for g := 0; g < writers; g++ {
			for i := 0; i < perWriter; i++ {
				if !vids[fmt.Sprintf("ru%d_%d", g, i)] {
					t.Fatalf("written vertex ru%d_%d missing", g, i)
				}
				if i%5 == 0 && i > 0 {
					wantE++
					if !eids[fmt.Sprintf("rm%d_%d", g, i)] {
						t.Fatalf("written edge rm%d_%d missing", g, i)
					}
				}
			}
		}
		if len(vids) != wantV {
			t.Fatalf("coordinator sees %d vertices, want %d", len(vids), wantV)
		}
		if len(eids) != wantE {
			t.Fatalf("coordinator sees %d edges, want %d", len(eids), wantE)
		}
	})

	t.Run("failover", func(t *testing.T) {
		h := startReplicated(t, build, 2, cluster.Config{
			Retries:           -1,
			RequestTimeout:    2 * time.Second,
			BreakerThreshold:  2,
			BreakerCooloff:    30 * time.Second, // recovery must come from failover
			HealthInterval:    15 * time.Millisecond,
			HealthTimeout:     250 * time.Millisecond,
			HealthBackoffMax:  60 * time.Millisecond,
			FailoverThreshold: 2,
		})
		ctx := context.Background()
		target := h.coord.ShardOf("fv0")

		acked := map[string]bool{}
		unsent := map[string]bool{}
		unknown := map[string]bool{}
		write := func(id string) {
			err := h.coord.AddVertexCtx(ctx, &graph.Element{ID: id, Label: "user"})
			switch {
			case err == nil:
				acked[id] = true
			case errors.Is(err, cluster.ErrIndeterminateWrite):
				unknown[id] = true
			case errors.Is(err, cluster.ErrShardUnavailable) ||
				errors.Is(err, gserver.ErrFenced) || errors.Is(err, gserver.ErrNotPrimary) ||
				errors.Is(err, context.DeadlineExceeded):
				unsent[id] = true
			default:
				t.Fatalf("untyped write failure for %s: %v", id, err)
			}
		}

		for i := 0; i < 10; i++ {
			write(fmt.Sprintf("pre%d", i))
		}
		if len(acked) != 10 {
			t.Fatalf("pre-fault: %d/10 acked", len(acked))
		}

		// Hard-kill the target shard's primary and keep writing.
		h.chaos[target].SetPartitioned(true)
		h.chaos[target].SetReset(true)
		failovers := h.reg.Counter(fmt.Sprintf(`cluster_failovers_total{shard="%d"}`, target))
		deadline := time.Now().Add(20 * time.Second)
		for i := 0; failovers.Value() == 0; i++ {
			if time.Now().After(deadline) {
				t.Fatal("failover never triggered")
			}
			write(fmt.Sprintf("mid%d", i))
			time.Sleep(10 * time.Millisecond)
		}

		// Post-promotion the shard takes writes again (the lost-ack window
		// is bounded: only writes during the outage may be indeterminate).
		recovered := false
		var lastErr error
		for i := 0; i < 40 && !recovered; i++ {
			id := fmt.Sprintf("post%d", i)
			if err := h.coord.AddVertexCtx(ctx, &graph.Element{ID: id, Label: "user"}); err == nil {
				acked[id] = true
				recovered = true
			} else {
				lastErr = err
				time.Sleep(25 * time.Millisecond)
			}
		}
		if !recovered {
			t.Fatalf("writes never recovered after failover: %v", lastErr)
		}

		// Zero wrong results at the coordinator: every acked write
		// present, every determinate failure absent.
		vids, _ := coordIDs(t, h)
		for id := range acked {
			if !vids[id] {
				t.Fatalf("acknowledged write %q lost across failover", id)
			}
		}
		for id := range unsent {
			if !acked[id] && !unknown[id] && vids[id] {
				t.Fatalf("determinately-rejected write %q appeared anyway", id)
			}
		}

		// Fencing: heal the network; the deposed primary is now a zombie.
		// The fence must land, after which it can never acknowledge a
		// write — and nothing it accepts in the gap reaches the cluster.
		h.chaos[target].Heal()
		zc, err := gserver.Dial(h.paddrs[target])
		if err != nil {
			t.Fatalf("dial healed zombie: %v", err)
		}
		defer zc.Close()
		fenceDeadline := time.Now().Add(10 * time.Second)
		for {
			_, err := zc.GraphOp(gserver.GraphOp{
				Method:  gserver.OpAddVertex,
				Element: &gserver.WireElement{ID: "zombie-w", Label: "user"},
			})
			if errors.Is(err, gserver.ErrFenced) {
				break
			}
			if time.Now().After(fenceDeadline) {
				t.Fatalf("zombie never fenced; last result: %v", err)
			}
			time.Sleep(50 * time.Millisecond)
		}
		vids, _ = coordIDs(t, h)
		if vids["zombie-w"] {
			t.Fatal("a zombie-accepted write leaked into coordinator answers")
		}
		for id := range acked {
			if !vids[id] {
				t.Fatalf("acknowledged write %q lost after zombie healed", id)
			}
		}
	})
}
