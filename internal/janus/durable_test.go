package janus

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"db2graph/internal/graph"
	"db2graph/internal/graph/graphtest"
	"db2graph/internal/kvstore"
	"db2graph/internal/telemetry"
	"db2graph/internal/wal"
)

// loadAll inserts the dataset through the incremental (per-element
// journaled) path.
func loadAll(g *Graph, vs, es []*graph.Element) error {
	for _, v := range vs {
		if err := g.AddVertex(v); err != nil {
			return err
		}
	}
	for _, e := range es {
		if err := g.AddEdge(e); err != nil {
			return err
		}
	}
	return nil
}

// TestDurableConformance runs the full backend conformance suite against a
// graph that is loaded, checkpointed, closed, and reopened from disk before
// every query — so the suite exercises recovered state, not the write-path
// cache.
func TestDurableConformance(t *testing.T) {
	n := 0
	graphtest.Run(t, func(vs, es []*graph.Element) (graph.Backend, error) {
		n++
		mem := wal.NewMemVFS()
		dir := fmt.Sprintf("db%d", n)
		g, err := OpenDurableVFS(mem, dir, wal.EveryCommit(), telemetry.NewRegistry())
		if err != nil {
			return nil, err
		}
		if err := loadAll(g, vs, es); err != nil {
			return nil, err
		}
		if err := g.Checkpoint(); err != nil {
			return nil, err
		}
		if err := g.Close(); err != nil {
			return nil, err
		}
		return OpenDurableVFS(mem, dir, wal.EveryCommit(), telemetry.NewRegistry())
	})
}

// TestDurableConcurrent runs the concurrency conformance suite on a
// recovered durable backend.
func TestDurableConcurrent(t *testing.T) {
	n := 0
	graphtest.RunConcurrent(t, func(vs, es []*graph.Element) (graph.Backend, error) {
		n++
		mem := wal.NewMemVFS()
		dir := fmt.Sprintf("db%d", n)
		g, err := OpenDurableVFS(mem, dir, wal.GroupCommit(0), telemetry.NewRegistry())
		if err != nil {
			return nil, err
		}
		if err := loadAll(g, vs, es); err != nil {
			return nil, err
		}
		if err := g.Close(); err != nil {
			return nil, err
		}
		return OpenDurableVFS(mem, dir, wal.EveryCommit(), telemetry.NewRegistry())
	})
}

// TestDurableCrashRecovery kills the "process" at every mutating disk
// operation of a full dataset load, reopens, verifies every acknowledged
// element survived intact, completes the load, and then runs the entire
// conformance query suite over the recovered graph.
func TestDurableCrashRecovery(t *testing.T) {
	vs, es := graphtest.Dataset()

	// Calibrate: count mutating VFS ops for a clean load.
	calib := wal.NewFaultVFS(wal.NewMemVFS())
	g, err := OpenDurableVFS(calib, "db", wal.EveryCommit(), telemetry.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if err := loadAll(g, vs, es); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	total := calib.Ops()
	if total < len(vs)+len(es) {
		t.Fatalf("implausible op count %d", total)
	}

	ctx := context.Background()
	for op := 0; op < total; op++ {
		op := op
		t.Run(fmt.Sprintf("op%03d", op), func(t *testing.T) {
			mem := wal.NewMemVFS()
			fv := wal.NewFaultVFS(mem)
			fv.CrashAt(op)
			g, err := OpenDurableVFS(fv, "db", wal.EveryCommit(), telemetry.NewRegistry())
			if err != nil {
				// Crash during initial open: nothing acknowledged, nothing
				// owed. Recovery below must still work from whatever landed.
				g = nil
			}
			acked := 0 // elements acknowledged: first len(vs) are vertices
			if g != nil {
				for _, v := range vs {
					if err := g.AddVertex(v); err != nil {
						break
					}
					acked++
				}
				if acked == len(vs) {
					for _, e := range es {
						if err := g.AddEdge(e); err != nil {
							break
						}
						acked++
					}
				}
			}
			mem.Crash(wal.CrashTornUnsynced)

			re, err := OpenDurableVFS(mem, "db", wal.EveryCommit(), telemetry.NewRegistry())
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			// Every acknowledged element must be present and intact.
			for i := 0; i < acked && i < len(vs); i++ {
				got, err := re.V(ctx, &graph.Query{IDs: []string{vs[i].ID}})
				if err != nil || len(got) != 1 || got[0].Label != vs[i].Label {
					t.Fatalf("acked vertex %s lost (%v, %v)", vs[i].ID, got, err)
				}
			}
			for i := len(vs); i < acked; i++ {
				e := es[i-len(vs)]
				got, err := re.E(ctx, &graph.Query{IDs: []string{e.ID}})
				if err != nil || len(got) != 1 || got[0].OutV != e.OutV || got[0].InV != e.InV {
					t.Fatalf("acked edge %s lost (%v, %v)", e.ID, got, err)
				}
			}
			// Finish the load idempotently (skip what survived) and prove
			// the recovered store is fully usable by the whole suite.
			for _, v := range vs {
				if got, _ := re.V(ctx, &graph.Query{IDs: []string{v.ID}}); len(got) == 1 {
					continue
				}
				if err := re.AddVertex(v); err != nil {
					t.Fatalf("re-add vertex %s: %v", v.ID, err)
				}
			}
			for _, e := range es {
				if got, _ := re.E(ctx, &graph.Query{IDs: []string{e.ID}}); len(got) == 1 {
					continue
				}
				if err := re.AddEdge(e); err != nil {
					t.Fatalf("re-add edge %s: %v", e.ID, err)
				}
			}
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
			final, err := OpenDurableVFS(mem, "db", wal.EveryCommit(), telemetry.NewRegistry())
			if err != nil {
				t.Fatal(err)
			}
			all, err := final.V(ctx, nil)
			if err != nil || len(all) != len(vs) {
				t.Fatalf("completed graph has %d vertices, want %d (%v)", len(all), len(vs), err)
			}
			edges, err := final.E(ctx, nil)
			if err != nil || len(edges) != len(es) {
				t.Fatalf("completed graph has %d edges, want %d (%v)", len(edges), len(es), err)
			}
		})
	}
}

// TestDurableCrashThenConformance picks one representative crash point,
// completes the load after recovery, and runs graphtest.Run on the result —
// the "recovered store passes the conformance suite" acceptance gate.
func TestDurableCrashThenConformance(t *testing.T) {
	n := 0
	graphtest.Run(t, func(vs, es []*graph.Element) (graph.Backend, error) {
		n++
		mem := wal.NewMemVFS()
		fv := wal.NewFaultVFS(mem)
		dir := fmt.Sprintf("db%d", n)
		g, err := OpenDurableVFS(fv, dir, wal.EveryCommit(), telemetry.NewRegistry())
		if err != nil {
			return nil, err
		}
		// Crash roughly mid-load.
		fv.CrashAt(fv.Ops() + 3*(len(vs)+len(es)))
		loadAll(g, vs, es) // expected to fail at the crash point
		mem.Crash(wal.CrashTornUnsynced)
		re, err := OpenDurableVFS(mem, dir, wal.EveryCommit(), telemetry.NewRegistry())
		if err != nil {
			return nil, err
		}
		ctx := context.Background()
		for _, v := range vs {
			if got, _ := re.V(ctx, &graph.Query{IDs: []string{v.ID}}); len(got) == 1 {
				continue
			}
			if err := re.AddVertex(v); err != nil {
				return nil, err
			}
		}
		for _, e := range es {
			if got, _ := re.E(ctx, &graph.Query{IDs: []string{e.ID}}); len(got) == 1 {
				continue
			}
			if err := re.AddEdge(e); err != nil {
				return nil, err
			}
		}
		return re, nil
	})
}

// TestDurableReadOnlyDegradation drives the graph against a disk that dies
// permanently mid-load and verifies the janus layer surfaces the typed
// sentinel instead of panicking, keeps serving reads, and recovers every
// acknowledged element on reopen.
func TestDurableReadOnlyDegradation(t *testing.T) {
	vs, es := graphtest.Dataset()
	mem := wal.NewMemVFS()
	fv := wal.NewFaultVFS(mem)
	g, err := OpenDurableVFS(fv, "db", wal.EveryCommit(), telemetry.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vs {
		if err := g.AddVertex(v); err != nil {
			t.Fatal(err)
		}
	}
	boom := errors.New("device error")
	fv.FailAt(fv.Ops(), boom, true)

	err = g.AddEdge(es[0])
	if err == nil || !errors.Is(err, wal.ErrIO) {
		t.Fatalf("first failure = %v; want wrapped wal.ErrIO", err)
	}
	if !g.ReadOnly() {
		t.Fatal("graph did not degrade to read-only")
	}
	if err := g.AddEdge(es[1]); !errors.Is(err, kvstore.ErrReadOnly) {
		t.Fatalf("post-degradation AddEdge = %v; want kvstore.ErrReadOnly", err)
	}
	if err := g.Checkpoint(); !errors.Is(err, kvstore.ErrReadOnly) {
		t.Fatalf("post-degradation Checkpoint = %v; want kvstore.ErrReadOnly", err)
	}
	// Reads still serve every acknowledged vertex.
	ctx := context.Background()
	got, err := g.V(ctx, nil)
	if err != nil || len(got) != len(vs) {
		t.Fatalf("read-only graph V() = %d, %v; want %d vertices", len(got), err, len(vs))
	}
	g.Close()

	re, err := OpenDurableVFS(mem, "db", wal.EveryCommit(), telemetry.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	got, err = re.V(ctx, nil)
	if err != nil || len(got) != len(vs) {
		t.Fatalf("recovered graph V() = %d, %v; want %d", len(got), err, len(vs))
	}
	// The unacknowledged edge must not have half-applied: either absent
	// entirely or never present (it failed before the WAL record).
	edges, err := re.E(ctx, nil)
	if err != nil || len(edges) != 0 {
		t.Fatalf("unacked edge resurrected: %d edges (%v)", len(edges), err)
	}
}

// TestDurableTelemetryGauges checks the checkpoint/WAL gauges a durable
// store maintains on its registry.
func TestDurableTelemetryGauges(t *testing.T) {
	reg := telemetry.NewRegistry()
	mem := wal.NewMemVFS()
	g, err := OpenDurableVFS(mem, "db", wal.EveryCommit(), reg)
	if err != nil {
		t.Fatal(err)
	}
	vs, es := graphtest.Dataset()
	if err := loadAll(g, vs, es); err != nil {
		t.Fatal(err)
	}
	if reg.Counter("kvstore_wal_records_total").Value() < int64(len(vs)+len(es)) {
		t.Fatalf("wal records counter = %d", reg.Counter("kvstore_wal_records_total").Value())
	}
	if reg.Gauge("kvstore_wal_bytes").Value() <= 0 {
		t.Fatal("wal bytes gauge not maintained")
	}
	if reg.Gauge("kvstore_checkpoint_generation").Value() != 1 {
		t.Fatalf("generation gauge = %d", reg.Gauge("kvstore_checkpoint_generation").Value())
	}
	if err := g.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if reg.Gauge("kvstore_checkpoint_generation").Value() != 2 {
		t.Fatalf("generation gauge after checkpoint = %d", reg.Gauge("kvstore_checkpoint_generation").Value())
	}
	if reg.Counter("kvstore_checkpoints_total").Value() != 1 {
		t.Fatalf("checkpoints counter = %d", reg.Counter("kvstore_checkpoints_total").Value())
	}
	if reg.Gauge("kvstore_readonly").Value() != 0 {
		t.Fatal("readonly gauge set on healthy store")
	}
}
