package experiments

import (
	"bytes"
	"strings"
	"testing"

	"db2graph/internal/linkbench"
)

// tinyScale keeps test runtime low while exercising every experiment path.
func tinyScale() Scale {
	return Scale{
		SmallVertices:     400,
		LargeVertices:     1200,
		CacheVertexBudget: 600,
		LatencyOps:        5,
		Clients:           4,
		OpsPerClient:      3,
		Layout:            linkbench.LayoutSplit,
		Seed:              42,
	}
}

func TestPrintTable1(t *testing.T) {
	var buf bytes.Buffer
	PrintTable1(&buf)
	out := buf.String()
	for _, want := range []string{"getNode", "countLinks", "getLink", "getLinkList", "g.V("} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 1 output missing %q:\n%s", want, out)
		}
	}
}

func TestRunTable2(t *testing.T) {
	var buf bytes.Buffer
	rows := tinyScale().RunTable2(&buf)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Stats.Vertices != 400 || rows[1].Stats.Vertices != 1200 {
		t.Fatalf("sizes = %+v", rows)
	}
	if rows[1].Stats.Edges <= rows[0].Stats.Edges {
		t.Fatal("large dataset not larger")
	}
}

func TestRunTable3ShapeHolds(t *testing.T) {
	var buf bytes.Buffer
	rows, err := tinyScale().RunTable3(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Per dataset: Db2 Graph pays no export/load; standalone systems use
	// several times the disk.
	for i := 0; i < len(rows); i += 3 {
		db2, gx, jn := rows[i], rows[i+1], rows[i+2]
		if db2.System != "Db2 Graph" || db2.Export != 0 || db2.Load != 0 {
			t.Fatalf("db2 row = %+v", db2)
		}
		if gx.Load == 0 || jn.Load == 0 {
			t.Fatalf("standalone load time missing: %+v %+v", gx, jn)
		}
		if gx.DiskBytes < db2.DiskBytes || jn.DiskBytes < db2.DiskBytes {
			t.Fatalf("standalone disk not larger: db2=%d gdbx=%d janus=%d",
				db2.DiskBytes, gx.DiskBytes, jn.DiskBytes)
		}
	}
}

func TestRunFigure4(t *testing.T) {
	var buf bytes.Buffer
	rows, err := tinyScale().RunFigure4(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Optimized <= 0 || r.Unoptimized <= 0 {
			t.Fatalf("missing measurements: %+v", r)
		}
	}
}

func TestRunFigure5(t *testing.T) {
	var buf bytes.Buffer
	rows, err := tinyScale().RunFigure5(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	systems := map[string]bool{}
	for _, r := range rows {
		systems[r.System] = true
		if len(r.ByKind) != 4 {
			t.Fatalf("kinds = %d", len(r.ByKind))
		}
	}
	if len(systems) != 3 {
		t.Fatalf("systems = %v", systems)
	}
}

func TestRunFigure6(t *testing.T) {
	var buf bytes.Buffer
	rows, err := tinyScale().RunFigure6(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		for _, k := range r.ByKind {
			if k.OpsSec <= 0 {
				t.Fatalf("zero throughput: %+v", r)
			}
		}
	}
}

func TestRunAblation(t *testing.T) {
	var buf bytes.Buffer
	rows, err := tinyScale().RunAblation(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Config != "all-on" || rows[len(rows)-1].Config != "all-off" {
		t.Fatalf("configs = %v", rows)
	}
}

func TestRunLayoutComparison(t *testing.T) {
	var buf bytes.Buffer
	rows, err := tinyScale().RunLayoutComparison(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Config != "split-tables" || rows[1].Config != "single-node-link" {
		t.Fatalf("rows = %+v", rows)
	}
}
