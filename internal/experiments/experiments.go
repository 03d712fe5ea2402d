// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 8) at configurable laptop scale: Table 1 (the
// LinkBench query mapping), Table 2 (dataset statistics), Table 3 (graph
// loading time and disk usage), Figure 4 (optimized traversal strategies on
// vs off), Figure 5 (query latency across the three systems and two dataset
// sizes), and Figure 6 (concurrent-client throughput). It also provides the
// ablation of the data-dependent runtime optimizations that DESIGN.md
// commits to.
package experiments

import (
	"fmt"
	"io"
	"os"
	"time"

	"db2graph/internal/core"
	"db2graph/internal/gdbx"
	"db2graph/internal/gremlin"
	"db2graph/internal/janus"
	"db2graph/internal/linkbench"
	"db2graph/internal/sql/engine"
)

// Scale configures experiment sizing. The paper's 10M/100M datasets map to
// the Small/Large vertex counts here; shapes, not absolute numbers, are the
// reproduction target. End-to-end performance is measured by the repository
// benchmark (bash perfbench/run.sh), not here; DESIGN.md §16 holds its
// numbers.
type Scale struct {
	// SmallVertices and LargeVertices size the two datasets of Table 2.
	SmallVertices int
	LargeVertices int
	// CacheVertexBudget models GDB-X's in-memory cache: the number of
	// vertices that fit. The small dataset must fit; the large must not
	// (the Figure 5 crossover).
	CacheVertexBudget int
	// LatencyOps is the number of operations per query type for latency
	// experiments.
	LatencyOps int
	// Clients and OpsPerClient drive the throughput experiment (the paper
	// uses 50 clients).
	Clients      int
	OpsPerClient int
	// Layout selects the relational schema for the Db2 Graph side.
	Layout linkbench.Layout
	// Seed for dataset generation.
	Seed int64
}

// DefaultScale returns the laptop-scale defaults.
func DefaultScale() Scale {
	return Scale{
		SmallVertices:     20000,
		LargeVertices:     200000,
		CacheVertexBudget: 30000,
		LatencyOps:        200,
		Clients:           50,
		OpsPerClient:      40,
		Layout:            linkbench.LayoutSplit,
		Seed:              42,
	}
}

// dataset builds a deterministic dataset of the given size.
func (s Scale) dataset(vertices int) *linkbench.Dataset {
	cfg := linkbench.DefaultConfig(vertices)
	cfg.Seed = s.Seed
	cfg.Layout = s.Layout
	return linkbench.Generate(cfg)
}

// loadDb2 loads the dataset into the relational engine and opens the
// overlay graph.
func loadDb2(d *linkbench.Dataset, opts core.Options) (*core.Graph, *engine.Database, error) {
	db := engine.New()
	cfg, err := d.LoadSQL(db)
	if err != nil {
		return nil, nil, err
	}
	g, err := core.Open(db, cfg, opts)
	if err != nil {
		return nil, nil, err
	}
	return g, db, nil
}

// loadGdbx loads the dataset into the native graph database simulator.
func loadGdbx(d *linkbench.Dataset, cacheBudget int) (*gdbx.Graph, error) {
	g := gdbx.New(gdbx.Config{CacheCapacity: cacheBudget, PrefetchOnOpen: false})
	if err := d.LoadBackend(g); err != nil {
		return nil, err
	}
	if err := g.Seal(); err != nil {
		return nil, err
	}
	return g, nil
}

// loadJanus bulk-loads the dataset into the JanusGraph-style store.
func loadJanus(d *linkbench.Dataset) (*janus.Graph, error) {
	g := janus.New()
	l := g.NewBulkLoader()
	if err := d.LoadBackend(l); err != nil {
		return nil, err
	}
	if err := l.Flush(); err != nil {
		return nil, err
	}
	return g, nil
}

// --- Table 1 ---

// PrintTable1 prints the LinkBench query -> Gremlin mapping.
func PrintTable1(w io.Writer) {
	fmt.Fprintln(w, "Table 1: LinkBench Queries")
	fmt.Fprintf(w, "  %-22s %s\n", "LinkBench Query", "Gremlin")
	rows := []linkbench.Query{
		{Kind: linkbench.GetNode, ID1: "id", Label: "lbl"},
		{Kind: linkbench.CountLinks, ID1: "id1", Label: "lbl"},
		{Kind: linkbench.GetLink, ID1: "id1", Label: "lbl", ID2: "id2"},
		{Kind: linkbench.GetLinkList, ID1: "id1", Label: "lbl"},
	}
	sigs := []string{
		"getNode(id, lbl)", "countLinks(id1,lbl)", "getLink(id1,lbl,id2)", "getLinkList(id1,lbl)",
	}
	for i, q := range rows {
		fmt.Fprintf(w, "  %-22s %s\n", sigs[i], q.Gremlin())
	}
}

// --- Table 2 ---

// Table2Row is one dataset's statistics.
type Table2Row struct {
	Name  string
	Stats linkbench.Stats
}

// RunTable2 generates both datasets and reports their statistics.
func (s Scale) RunTable2(w io.Writer) []Table2Row {
	out := []Table2Row{
		{Name: fmt.Sprintf("%dk", s.SmallVertices/1000), Stats: s.dataset(s.SmallVertices).Stats()},
		{Name: fmt.Sprintf("%dk", s.LargeVertices/1000), Stats: s.dataset(s.LargeVertices).Stats()},
	}
	fmt.Fprintln(w, "Table 2: LinkBench Datasets (laptop scale)")
	fmt.Fprintf(w, "  %-8s %12s %12s %10s %10s %12s\n",
		"Dataset", "Vertices", "Edges", "AvgDeg", "MaxDeg", "CSV bytes")
	for _, r := range out {
		fmt.Fprintf(w, "  %-8s %12d %12d %10.2f %10d %12d\n",
			r.Name, r.Stats.Vertices, r.Stats.Edges, r.Stats.AvgDegree, r.Stats.MaxDegree, r.Stats.CSVBytes)
	}
	return out
}

// --- Table 3 ---

// Table3Row is one system's loading profile on one dataset.
type Table3Row struct {
	Dataset   string
	System    string
	DiskBytes int64
	Export    time.Duration // export from the relational DB (baselines only)
	Load      time.Duration // build native structures
	Open      time.Duration // open the graph for querying
}

// RunTable3 measures the loading pipeline of every system on both
// datasets: Db2 Graph needs no export or load, only a metadata-level open;
// the standalone databases pay export + load + open and a multiple of the
// disk space.
func (s Scale) RunTable3(w io.Writer) ([]Table3Row, error) {
	var rows []Table3Row
	for _, size := range []int{s.SmallVertices, s.LargeVertices} {
		name := fmt.Sprintf("%dk", size/1000)
		d := s.dataset(size)

		// Relational side: data already lives in the database.
		db := engine.New()
		cfg, err := d.LoadSQL(db)
		if err != nil {
			return nil, err
		}
		openStart := time.Now()
		if _, err := core.Open(db, cfg, core.DefaultOptions()); err != nil {
			return nil, err
		}
		rows = append(rows, Table3Row{
			Dataset: name, System: "Db2 Graph",
			DiskBytes: db.TotalBytes(), Open: time.Since(openStart),
		})

		// Export phase (shared by both standalone systems).
		dir, err := os.MkdirTemp("", "linkbench-export-")
		if err != nil {
			return nil, err
		}
		exportStart := time.Now()
		if _, err := d.ExportCSV(dir); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		export := time.Since(exportStart)
		os.RemoveAll(dir)

		// GDB-X: load + seal, then open (prefetch).
		loadStart := time.Now()
		gx, err := loadGdbx(d, s.CacheVertexBudget)
		if err != nil {
			return nil, err
		}
		gxLoad := time.Since(loadStart)
		openStart = time.Now()
		if err := gx.Open(); err != nil {
			return nil, err
		}
		rows = append(rows, Table3Row{
			Dataset: name, System: "GDB-X",
			DiskBytes: gx.ByteSize(), Export: export, Load: gxLoad, Open: time.Since(openStart),
		})

		// JanusGraph: bulk load, then open (cache warm-up scan).
		loadStart = time.Now()
		jn, err := loadJanus(d)
		if err != nil {
			return nil, err
		}
		jnLoad := time.Since(loadStart)
		openStart = time.Now()
		jn.Open()
		rows = append(rows, Table3Row{
			Dataset: name, System: "JanusGraph",
			DiskBytes: jn.ByteSize(), Export: export, Load: jnLoad, Open: time.Since(openStart),
		})
	}

	fmt.Fprintln(w, "Table 3: Graph loading time and disk usage")
	fmt.Fprintf(w, "  %-8s %-11s %12s %12s %12s %12s\n",
		"Dataset", "System", "Disk bytes", "Export", "Load", "Open")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-8s %-11s %12d %12s %12s %12s\n",
			r.Dataset, r.System, r.DiskBytes, fmtDur(r.Export), fmtDur(r.Load), fmtDur(r.Open))
	}
	return rows, nil
}

func fmtDur(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	return d.Round(time.Microsecond).String()
}

// --- Figure 4 ---

// Figure4Row compares per-query latency with strategies on and off.
type Figure4Row struct {
	Kind           linkbench.QueryKind
	Optimized      time.Duration
	Unoptimized    time.Duration
	Speedup        float64
	OptimizedOps   int
	UnoptimizedOps int
}

// RunFigure4 measures the four LinkBench queries on the small dataset with
// the optimized traversal strategies enabled and disabled (data-dependent
// runtime optimizations stay on in both, as in the paper).
func (s Scale) RunFigure4(w io.Writer) ([]Figure4Row, error) {
	d := s.dataset(s.SmallVertices)
	g, _, err := loadDb2(d, core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	opt, err := linkbench.MeasureLatency(g.Traversal(), d.NewWorkload(s.Seed+1), s.LatencyOps)
	if err != nil {
		return nil, err
	}
	naive, err := linkbench.MeasureLatency(g.NaiveTraversal(), d.NewWorkload(s.Seed+1), s.LatencyOps)
	if err != nil {
		return nil, err
	}
	var rows []Figure4Row
	for i := range opt {
		rows = append(rows, Figure4Row{
			Kind:        opt[i].Kind,
			Optimized:   opt[i].Mean,
			Unoptimized: naive[i].Mean,
			Speedup:     float64(naive[i].Mean) / float64(opt[i].Mean),
		})
	}
	fmt.Fprintln(w, "Figure 4: Db2 Graph with vs without optimized traversal strategies")
	fmt.Fprintf(w, "  %-12s %14s %14s %9s\n", "Query", "With (mean)", "Without (mean)", "Speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-12s %14s %14s %8.2fx\n",
			r.Kind, fmtDur(r.Optimized), fmtDur(r.Unoptimized), r.Speedup)
	}
	return rows, nil
}

// --- Figures 5 and 6 ---

// SystemLatency is one system's latency profile on one dataset.
type SystemLatency struct {
	Dataset string
	System  string
	ByKind  []linkbench.LatencyResult
}

// SystemThroughput is one system's throughput profile on one dataset.
type SystemThroughput struct {
	Dataset string
	System  string
	ByKind  []linkbench.ThroughputResult
}

// loadAllSystems prepares the three systems over one dataset.
func (s Scale) loadAllSystems(d *linkbench.Dataset) (map[string]*gremlin.Source, error) {
	out := make(map[string]*gremlin.Source, 3)
	g, _, err := loadDb2(d, core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	out["Db2 Graph"] = g.Traversal()
	gx, err := loadGdbx(d, s.CacheVertexBudget)
	if err != nil {
		return nil, err
	}
	if err := gx.Open(); err != nil {
		return nil, err
	}
	out["GDB-X"] = gremlin.NewSource(gx)
	jn, err := loadJanus(d)
	if err != nil {
		return nil, err
	}
	out["JanusGraph"] = gremlin.NewSource(jn)
	return out, nil
}

var systemOrder = []string{"Db2 Graph", "GDB-X", "JanusGraph"}

// RunFigure5 measures per-query latency for the three systems on both
// datasets.
func (s Scale) RunFigure5(w io.Writer) ([]SystemLatency, error) {
	var rows []SystemLatency
	for _, size := range []int{s.SmallVertices, s.LargeVertices} {
		name := fmt.Sprintf("%dk", size/1000)
		d := s.dataset(size)
		systems, err := s.loadAllSystems(d)
		if err != nil {
			return nil, err
		}
		for _, sys := range systemOrder {
			res, err := linkbench.MeasureLatency(systems[sys], d.NewWorkload(s.Seed+2), s.LatencyOps)
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", sys, name, err)
			}
			rows = append(rows, SystemLatency{Dataset: name, System: sys, ByKind: res})
		}
	}
	fmt.Fprintln(w, "Figure 5: Latency of LinkBench queries (mean)")
	fmt.Fprintf(w, "  %-8s %-11s %12s %12s %12s %12s\n",
		"Dataset", "System", "getNode", "countLinks", "getLink", "getLinkList")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-8s %-11s %12s %12s %12s %12s\n",
			r.Dataset, r.System,
			fmtDur(r.ByKind[0].Mean), fmtDur(r.ByKind[1].Mean),
			fmtDur(r.ByKind[2].Mean), fmtDur(r.ByKind[3].Mean))
	}
	return rows, nil
}

// RunFigure6 measures concurrent-client throughput for the three systems
// on both datasets.
func (s Scale) RunFigure6(w io.Writer) ([]SystemThroughput, error) {
	var rows []SystemThroughput
	for _, size := range []int{s.SmallVertices, s.LargeVertices} {
		name := fmt.Sprintf("%dk", size/1000)
		d := s.dataset(size)
		systems, err := s.loadAllSystems(d)
		if err != nil {
			return nil, err
		}
		for _, sys := range systemOrder {
			res, err := linkbench.MeasureThroughput(systems[sys], d.NewWorkload(s.Seed+3), s.Clients, s.OpsPerClient)
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", sys, name, err)
			}
			rows = append(rows, SystemThroughput{Dataset: name, System: sys, ByKind: res})
		}
	}
	fmt.Fprintf(w, "Figure 6: Throughput with %d concurrent clients (ops/sec)\n", s.Clients)
	fmt.Fprintf(w, "  %-8s %-11s %12s %12s %12s %12s\n",
		"Dataset", "System", "getNode", "countLinks", "getLink", "getLinkList")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-8s %-11s %12.0f %12.0f %12.0f %12.0f\n",
			r.Dataset, r.System,
			r.ByKind[0].OpsSec, r.ByKind[1].OpsSec, r.ByKind[2].OpsSec, r.ByKind[3].OpsSec)
	}
	return rows, nil
}

// --- Ablation: data-dependent runtime optimizations (Section 6.3) ---

// AblationRow is one optimization configuration's latency profile.
type AblationRow struct {
	Config string
	ByKind []linkbench.LatencyResult
}

// RunAblation measures the LinkBench queries under configurations that
// disable one runtime optimization at a time (and everything at once).
func (s Scale) RunAblation(w io.Writer) ([]AblationRow, error) {
	d := s.dataset(s.SmallVertices)
	configs := []struct {
		name string
		mod  func(*core.Options)
	}{
		{"all-on", func(o *core.Options) {}},
		{"no-label-pruning", func(o *core.Options) { o.LabelPruning = false }},
		{"no-property-pruning", func(o *core.Options) { o.PropertyPruning = false }},
		{"no-prefix-pinning", func(o *core.Options) { o.PrefixedIDPinning = false }},
		{"no-implicit-edge-ids", func(o *core.Options) { o.ImplicitEdgeIDs = false }},
		{"no-stmt-cache", func(o *core.Options) { o.StatementCache = false }},
		{"all-off", func(o *core.Options) { *o = core.Options{} }},
	}
	var rows []AblationRow
	for _, cfg := range configs {
		opts := core.DefaultOptions()
		cfg.mod(&opts)
		g, _, err := loadDb2(d, opts)
		if err != nil {
			return nil, err
		}
		res, err := linkbench.MeasureLatency(g.Traversal(), d.NewWorkload(s.Seed+4), s.LatencyOps)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cfg.name, err)
		}
		rows = append(rows, AblationRow{Config: cfg.name, ByKind: res})
	}
	fmt.Fprintln(w, "Ablation: data-dependent runtime optimizations (mean latency)")
	fmt.Fprintf(w, "  %-22s %12s %12s %12s %12s\n",
		"Config", "getNode", "countLinks", "getLink", "getLinkList")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-22s %12s %12s %12s %12s\n",
			r.Config,
			fmtDur(r.ByKind[0].Mean), fmtDur(r.ByKind[1].Mean),
			fmtDur(r.ByKind[2].Mean), fmtDur(r.ByKind[3].Mean))
	}
	return rows, nil
}

// RunLayoutComparison contrasts the two relational layouts the overlay can
// retrofit onto: the split layout (one table per vertex/edge type, fixed
// labels — maximal table-elimination leverage) and the single node/link
// layout real LinkBench deployments use (label columns; every query hits
// the same two tables). Both answer the same Gremlin.
func (s Scale) RunLayoutComparison(w io.Writer) ([]AblationRow, error) {
	var rows []AblationRow
	for _, layout := range []linkbench.Layout{linkbench.LayoutSplit, linkbench.LayoutSingle} {
		name := "split-tables"
		if layout == linkbench.LayoutSingle {
			name = "single-node-link"
		}
		cfg := linkbench.DefaultConfig(s.SmallVertices)
		cfg.Seed = s.Seed
		cfg.Layout = layout
		d := linkbench.Generate(cfg)
		g, _, err := loadDb2(d, core.DefaultOptions())
		if err != nil {
			return nil, err
		}
		res, err := linkbench.MeasureLatency(g.Traversal(), d.NewWorkload(s.Seed+5), s.LatencyOps)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		rows = append(rows, AblationRow{Config: name, ByKind: res})
	}
	fmt.Fprintln(w, "Layout comparison: split type-per-table vs single node/link schema")
	fmt.Fprintf(w, "  %-22s %12s %12s %12s %12s\n",
		"Layout", "getNode", "countLinks", "getLink", "getLinkList")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-22s %12s %12s %12s %12s\n",
			r.Config,
			fmtDur(r.ByKind[0].Mean), fmtDur(r.ByKind[1].Mean),
			fmtDur(r.ByKind[2].Mean), fmtDur(r.ByKind[3].Mean))
	}
	return rows, nil
}
