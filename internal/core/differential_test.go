package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"db2graph/internal/graph"
	"db2graph/internal/gremlin"
	"db2graph/internal/overlay"
	"db2graph/internal/sql/engine"
	"db2graph/internal/sql/types"
)

// TestDifferentialRandomTraversals generates random graphs and random
// traversals and checks that the Db2 Graph overlay provider, the memory
// reference backend, and the naive (strategies-off) execution all agree.
func TestDifferentialRandomTraversals(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	labels := []string{"alpha", "beta"}
	elabels := []string{"knows", "likes"}

	for round := 0; round < 14; round++ {
		nV := 6 + rng.Intn(10)
		nE := 8 + rng.Intn(20)

		// Build the random graph.
		type vrec struct {
			id    int64
			label string
			score int64
		}
		type erec struct {
			id       int64
			src, dst int64
			label    string
			weight   int64
		}
		var vs []vrec
		for i := 0; i < nV; i++ {
			vs = append(vs, vrec{
				id:    int64(i + 1),
				label: labels[rng.Intn(len(labels))],
				score: int64(rng.Intn(50)),
			})
		}
		var es []erec
		seen := map[[3]int64]bool{}
		for i := 0; i < nE; i++ {
			src := vs[rng.Intn(nV)].id
			dst := vs[rng.Intn(nV)].id
			li := rng.Intn(len(elabels))
			key := [3]int64{src, dst, int64(li)}
			if seen[key] || src == dst {
				continue
			}
			seen[key] = true
			es = append(es, erec{
				id: int64(1000 + i), src: src, dst: dst,
				label: elabels[li], weight: int64(rng.Intn(20)),
			})
		}

		// Load into the relational engine + overlay.
		db := engine.New()
		if err := db.ExecScript(`
			CREATE TABLE verts (id BIGINT PRIMARY KEY, lbl VARCHAR(10), score BIGINT);
			CREATE TABLE edges (eid BIGINT PRIMARY KEY, src BIGINT, dst BIGINT, lbl VARCHAR(10), weight BIGINT);
			CREATE INDEX idx_src ON edges (src);
			CREATE INDEX idx_dst ON edges (dst);`); err != nil {
			t.Fatal(err)
		}
		for _, v := range vs {
			if _, err := db.Exec("INSERT INTO verts VALUES (?, ?, ?)", v.id, v.label, v.score); err != nil {
				t.Fatal(err)
			}
		}
		for _, e := range es {
			if _, err := db.Exec("INSERT INTO edges VALUES (?, ?, ?, ?, ?)", e.id, e.src, e.dst, e.label, e.weight); err != nil {
				t.Fatal(err)
			}
		}
		cfg := &overlay.Config{
			VTables: []overlay.VTable{{
				TableName: "verts", ID: "id", Label: "lbl", Properties: []string{"score"},
			}},
			ETables: []overlay.ETable{{
				TableName: "edges", ID: "eid",
				SrcVTable: "verts", SrcV: "src", DstVTable: "verts", DstV: "dst",
				Label: "lbl", Properties: []string{"weight"},
			}},
		}
		g, err := Open(db, cfg, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}

		// Load the same graph into the reference backend.
		mem := graph.NewMemBackend()
		for _, v := range vs {
			mem.AddVertex(&graph.Element{
				ID: fmt.Sprint(v.id), Label: v.label,
				Props: map[string]types.Value{"score": types.NewInt(v.score)},
			})
		}
		for _, e := range es {
			mem.AddEdge(&graph.Element{
				ID: fmt.Sprint(e.id), Label: e.label,
				OutV: fmt.Sprint(e.src), InV: fmt.Sprint(e.dst),
				Props: map[string]types.Value{"weight": types.NewInt(e.weight)},
			})
		}

		sources := map[string]*gremlin.Source{
			"db2graph": g.Traversal(),
			"naive":    g.NaiveTraversal(),
			"mem":      gremlin.NewSource(mem),
		}

		// Random traversal generator: start step + a few random stages.
		buildRandom := func(src *gremlin.Source, script *rand.Rand) *gremlin.Traversal {
			var tr *gremlin.Traversal
			if script.Intn(2) == 0 {
				tr = src.V()
			} else {
				tr = src.V(fmt.Sprint(script.Int63n(int64(nV)) + 1))
			}
			steps := script.Intn(4)
			for s := 0; s < steps; s++ {
				switch script.Intn(10) {
				case 0:
					tr = tr.HasLabel(labels[script.Intn(len(labels))])
				case 1:
					tr = tr.HasP("score", gremlin.Gte(int64(script.Intn(40))))
				case 2:
					tr = tr.Out(elabels[script.Intn(len(elabels))])
				case 3:
					tr = tr.In()
				case 4:
					tr = tr.Both()
				case 5:
					tr = tr.Dedup()
				case 6:
					tr = tr.OutE(elabels[script.Intn(len(elabels))]).InV()
				case 7:
					tr = tr.Where(gremlin.Anon().Out())
				case 8:
					tr = tr.InE(elabels[script.Intn(len(elabels))]).OutV()
				case 9:
					tr = tr.BothE().OtherV()
				}
			}
			switch script.Intn(5) {
			case 0:
				tr = tr.Count()
			case 1:
				tr = tr.Values("score").Sum()
			}
			return tr
		}

		for q := 0; q < 40; q++ {
			seed := rng.Int63()
			results := map[string]string{}
			for name, src := range sources {
				tr := buildRandom(src, rand.New(rand.NewSource(seed)))
				objs, err := tr.ToList()
				if err != nil {
					// All backends must agree on errors too (e.g. values()
					// over an edge-free frontier shape mismatch).
					results[name] = "error"
					continue
				}
				var parts []string
				for _, o := range objs {
					switch x := o.(type) {
					case *graph.Element:
						parts = append(parts, x.ID)
					case types.Value:
						parts = append(parts, x.Text())
					default:
						parts = append(parts, fmt.Sprint(o))
					}
				}
				sort.Strings(parts)
				results[name] = strings.Join(parts, ",")
			}
			if results["db2graph"] != results["mem"] || results["db2graph"] != results["naive"] {
				t.Fatalf("round %d query %d (seed %d) diverged:\n db2graph=%s\n naive=%s\n mem=%s",
					round, q, seed, results["db2graph"], results["naive"], results["mem"])
			}
		}
	}
}
