// Batch conformance for graph.BatchBackend implementations. A backend's
// native vectorized multi-gets (VerticesByIDs, EdgesForVertices) must be
// observationally identical — same elements, same order, same nil slots —
// to the generic fallback adapter built from the base Backend contract,
// across directions, filters, duplicates, missing ids, and per-vertex
// limits. The gremlin engine swaps freely between the two, so any
// divergence here is a silent wrong-result bug in batched expansion.
package graphtest

import (
	"context"
	"sort"
	"strings"
	"testing"

	"db2graph/internal/graph"
	"db2graph/internal/sql/types"
)

// renderFull serializes elements including properties (Element.String shows
// only id/label), so projection and predicate handling differences surface.
func renderFull(els []*graph.Element) string {
	parts := make([]string, len(els))
	for i, el := range els {
		if el == nil {
			parts[i] = "-"
			continue
		}
		keys := make([]string, 0, len(el.Props))
		for k := range el.Props {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		props := make([]string, len(keys))
		for j, k := range keys {
			props[j] = k + "=" + el.Props[k].Text()
		}
		parts[i] = el.String() + "{" + strings.Join(props, ";") + "}"
	}
	return strings.Join(parts, ",")
}

// renderGroups serializes a per-vertex edge grouping, order included.
func renderGroups(groups [][]*graph.Element) string {
	parts := make([]string, len(groups))
	for i, g := range groups {
		parts[i] = renderFull(g)
	}
	return strings.Join(parts, " | ")
}

// RunBatchConformance checks a backend's batched lookups against the
// fallback adapter over the canonical dataset.
func RunBatchConformance(t *testing.T, build func(vertices, edges []*graph.Element) (graph.Backend, error)) {
	t.Helper()
	ctx := context.Background()
	vs, es := Dataset()
	b, err := build(vs, es)
	if err != nil {
		t.Fatalf("build backend: %v", err)
	}
	native := graph.Batched(b)
	fallback := graph.FallbackBatch(b)
	if _, isNative := b.(graph.BatchBackend); !isNative {
		t.Logf("backend %s has no native BatchBackend; adapter checked against itself", b.Name())
	}

	allIDs := make([]string, 0, len(vs))
	for _, v := range vs {
		allIDs = append(allIDs, v.ID)
	}

	idSets := [][]string{
		{"p1"},
		{"p1", "p2", "p3"},
		{"zzz"},
		{"p1", "zzz", "d10", "p1"}, // duplicate and missing slots
		allIDs,
	}
	vqueries := []*graph.Query{
		nil,
		{},
		{Labels: []string{"patient"}},
		{Labels: []string{"patient", "disease"}},
		{Preds: []graph.Pred{{Key: "name", Op: graph.OpEq, Value: types.NewString("Bob")}}},
		{Projection: []string{"name"}},
	}
	for si, ids := range idSets {
		for qi, q := range vqueries {
			want, err := fallback.VerticesByIDs(ctx, ids, q)
			if err != nil {
				t.Fatalf("fallback VerticesByIDs(set %d, q %d): %v", si, qi, err)
			}
			got, err := native.VerticesByIDs(ctx, ids, q)
			if err != nil {
				t.Fatalf("native VerticesByIDs(set %d, q %d): %v", si, qi, err)
			}
			if g, w := renderFull(got), renderFull(want); g != w {
				t.Fatalf("VerticesByIDs(set %d, q %d) diverged\n got: %s\nwant: %s", si, qi, g, w)
			}
		}
	}

	vidSets := [][]string{
		{"p1"},
		{"p1", "p2", "p3"},
		{"d10", "d11"},
		{"d11", "d13", "zzz", "d11"}, // duplicate and missing slots
		allIDs,
	}
	equeries := []*graph.Query{
		nil,
		{},
		{Labels: []string{"isa"}},
		{Labels: []string{"hasDisease"}},
		{Preds: []graph.Pred{{Key: "description", Op: graph.OpEq, Value: types.NewString("2019")}}},
	}
	for si, vids := range vidSets {
		for _, dir := range []graph.Direction{graph.DirOut, graph.DirIn, graph.DirBoth} {
			for qi, q := range equeries {
				want, err := fallback.EdgesForVertices(ctx, vids, dir, q)
				if err != nil {
					t.Fatalf("fallback EdgesForVertices(set %d, dir %d, q %d): %v", si, dir, qi, err)
				}
				got, err := native.EdgesForVertices(ctx, vids, dir, q)
				if err != nil {
					t.Fatalf("native EdgesForVertices(set %d, dir %d, q %d): %v", si, dir, qi, err)
				}
				if g, w := renderGroups(got), renderGroups(want); g != w {
					t.Fatalf("EdgesForVertices(set %d, dir %d, q %d) diverged\n got: %s\nwant: %s",
						si, dir, qi, g, w)
				}
				// Per-vertex group semantics: every group must equal the
				// single-vertex VertexEdges call the contract promises.
				for i, vid := range vids {
					single, err := b.VertexEdges(ctx, []string{vid}, dir, q)
					if err != nil {
						t.Fatalf("VertexEdges(%s): %v", vid, err)
					}
					if g, w := renderFull(got[i]), renderFull(single); g != w {
						t.Fatalf("EdgesForVertices(set %d, dir %d, q %d) group %d (%s) != VertexEdges\n got: %s\nwant: %s",
							si, dir, qi, i, vid, g, w)
					}
				}
			}
		}
	}
}
