package janus

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"db2graph/internal/graph"
	"db2graph/internal/graph/graphtest"
	"db2graph/internal/gremlin"
	"db2graph/internal/sql/types"
	"db2graph/internal/telemetry"
	"db2graph/internal/wal"
)

// openEngine opens a janus store on the named storage engine: "cow"
// (copy-on-write checkpoints) or "lsm".
func openEngine(engine string, vfs wal.VFS, dir string, policy wal.SyncPolicy) (*Graph, error) {
	if engine == "lsm" {
		return OpenLSMVFS(vfs, dir, policy, telemetry.NewRegistry())
	}
	return OpenDurableVFS(vfs, dir, policy, telemetry.NewRegistry())
}

// twoHopCount answers g.V().out().out().count().
func twoHopCount(src *gremlin.Source) (int64, error) {
	res, err := src.V().Out().Out().Count().ToList()
	if err != nil {
		return 0, err
	}
	return res[0].(types.Value).I, nil
}

// TestReopenThenWrite seeds a store on disk without fsync, checkpoints it,
// reopens it under a syncing policy and writes every edge, then reopens it
// once more: the store must hold exactly the acknowledged vertices and
// edges, and answer a two-hop count as the plain edge list does.
func TestReopenThenWrite(t *testing.T) {
	vs, es := graphtest.Dataset()
	out := map[string][]string{}
	for _, e := range es {
		out[e.OutV] = append(out[e.OutV], e.InV)
	}
	var want int64
	for _, v := range vs {
		for _, mid := range out[v.ID] {
			want += int64(len(out[mid]))
		}
	}
	ctx := context.Background()
	for _, engine := range []string{"cow", "lsm"} {
		for _, pol := range []struct {
			name   string
			policy wal.SyncPolicy
		}{{"always", wal.EveryCommit()}, {"group", wal.GroupCommit(0)}} {
			t.Run(engine+"/"+pol.name, func(t *testing.T) {
				dir := t.TempDir()
				g, err := openEngine(engine, wal.OS(), dir, wal.NoSync())
				if err != nil {
					t.Fatal(err)
				}
				if err := loadAll(g, vs, nil); err != nil {
					t.Fatal(err)
				}
				if err := g.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				if err := g.Close(); err != nil {
					t.Fatal(err)
				}
				if g, err = openEngine(engine, wal.OS(), dir, pol.policy); err != nil {
					t.Fatal(err)
				}
				if err := loadAll(g, nil, es); err != nil {
					t.Fatal(err)
				}
				if err := g.Close(); err != nil {
					t.Fatal(err)
				}
				if g, err = openEngine(engine, wal.OS(), dir, wal.NoSync()); err != nil {
					t.Fatal(err)
				}
				defer g.Close()

				got, err := g.V(ctx, nil)
				if err != nil || len(got) != len(vs) {
					t.Fatalf("reopened store has %d vertices, want %d (%v)", len(got), len(vs), err)
				}
				edges, err := g.E(ctx, nil)
				if err != nil || len(edges) != len(es) {
					t.Fatalf("reopened store has %d edges, want %d (%v)", len(edges), len(es), err)
				}
				for _, e := range es {
					got, err := g.E(ctx, &graph.Query{IDs: []string{e.ID}})
					if err != nil || len(got) != 1 || got[0].OutV != e.OutV || got[0].InV != e.InV || got[0].Label != e.Label {
						t.Fatalf("edge %s not read back intact: %v (%v)", e.ID, got, err)
					}
				}
				if n, err := twoHopCount(gremlin.NewSource(g)); err != nil || n != want {
					t.Fatalf("two-hop count = %d (%v), want %d", n, err, want)
				}
			})
		}
	}
}

// TestReadersDuringWrites runs two-hop count readers while a writer adds
// edges, on both engines. Edges are only added and the vertex set is fixed,
// so every answer must lie between the count before the writes and the
// count after them.
func TestReadersDuringWrites(t *testing.T) {
	const n, readers = 40, 2
	var vs, es []*graph.Element
	for i := 0; i < n; i++ {
		vs = append(vs, &graph.Element{ID: fmt.Sprintf("v%d", i), Label: "node"})
	}
	for i := 0; i < 4*n; i++ {
		es = append(es, &graph.Element{
			ID: fmt.Sprintf("e%d", i), Label: "link", IsEdge: true,
			OutV: fmt.Sprintf("v%d", i%n), InV: fmt.Sprintf("v%d", (7*i+3)%n),
		})
	}
	for _, engine := range []string{"cow", "lsm"} {
		t.Run(engine, func(t *testing.T) {
			g, err := openEngine(engine, wal.NewMemVFS(), "db", wal.NoSync())
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			if err := loadAll(g, vs, es[:len(es)/2]); err != nil {
				t.Fatal(err)
			}
			src := gremlin.NewSource(g)
			lo, err := twoHopCount(src)
			if err != nil {
				t.Fatal(err)
			}

			stop := make(chan struct{})
			answers := make([][]int64, readers)
			errs := make([]error, readers)
			var wg sync.WaitGroup
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					for {
						c, err := twoHopCount(src)
						if err != nil {
							errs[r] = err
							return
						}
						answers[r] = append(answers[r], c)
						select {
						case <-stop:
							return
						default:
						}
					}
				}(r)
			}
			for _, e := range es[len(es)/2:] {
				if err := g.AddEdge(e); err != nil {
					close(stop)
					wg.Wait()
					t.Fatal(err)
				}
			}
			close(stop)
			wg.Wait()

			hi, err := twoHopCount(src)
			if err != nil {
				t.Fatal(err)
			}
			if hi <= lo {
				t.Fatalf("writes did not raise the count: %d -> %d", lo, hi)
			}
			for r := range answers {
				if errs[r] != nil {
					t.Fatalf("reader %d: %v", r, errs[r])
				}
				for _, c := range answers[r] {
					if c < lo || c > hi {
						t.Fatalf("reader %d saw %d, outside [%d, %d]", r, c, lo, hi)
					}
				}
			}
		})
	}
}
