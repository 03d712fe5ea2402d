package core

import (
	"fmt"
	"testing"

	"db2graph/internal/graph"
	"db2graph/internal/graph/graphtest"
	"db2graph/internal/graph/graphtest/clustertest"
	"db2graph/internal/overlay"
	"db2graph/internal/sql/engine"
)

// buildOverlayBackend loads the conformance dataset into relational tables
// and overlays a graph on them, proving the Db2 Graph provider honors the
// exact same contract as the standalone graph databases.
func buildOverlayBackend(opts Options) func(vs, es []*graph.Element) (graph.Backend, error) {
	return func(vs, es []*graph.Element) (graph.Backend, error) {
		b, _, err := buildOverlayWithDB(opts, vs, es)
		return b, err
	}
}

func buildOverlayWithDB(opts Options, vs, es []*graph.Element) (graph.Backend, *engine.Database, error) {
	db := engine.New()
	if err := db.ExecScript(`
		CREATE TABLE patients (id VARCHAR(20) PRIMARY KEY, patientID BIGINT, name VARCHAR(50), subscriptionID BIGINT);
		CREATE TABLE diseases (id VARCHAR(20) PRIMARY KEY, conceptName VARCHAR(100));
		CREATE TABLE has_disease (eid VARCHAR(20) PRIMARY KEY, src VARCHAR(20), dst VARCHAR(20), description VARCHAR(50));
		CREATE TABLE ontology (eid VARCHAR(20) PRIMARY KEY, src VARCHAR(20), dst VARCHAR(20));
		CREATE TABLE users (id VARCHAR(20) PRIMARY KEY);
		CREATE TABLE topics (id VARCHAR(20) PRIMARY KEY);
		CREATE TABLE follows (eid VARCHAR(20) PRIMARY KEY, src VARCHAR(20), dst VARCHAR(20));
		CREATE TABLE likes (eid VARCHAR(20) PRIMARY KEY, src VARCHAR(20), dst VARCHAR(20));
		CREATE TABLE mentions (eid VARCHAR(20) PRIMARY KEY, src VARCHAR(20), dst VARCHAR(20));
		CREATE INDEX idx_hd_src ON has_disease (src);
		CREATE INDEX idx_hd_dst ON has_disease (dst);
		CREATE INDEX idx_on_src ON ontology (src);
		CREATE INDEX idx_on_dst ON ontology (dst);
		CREATE INDEX idx_fo_src ON follows (src);
		CREATE INDEX idx_fo_dst ON follows (dst);
		CREATE INDEX idx_li_src ON likes (src);
		CREATE INDEX idx_li_dst ON likes (dst);
		CREATE INDEX idx_me_src ON mentions (src);
		CREATE INDEX idx_me_dst ON mentions (dst);
	`); err != nil {
		return nil, nil, err
	}
	mut := sqlMutator{db}
	for _, v := range vs {
		if err := mut.AddVertex(v); err != nil {
			return nil, nil, err
		}
	}
	for _, e := range es {
		if err := mut.AddEdge(e); err != nil {
			return nil, nil, err
		}
	}
	cfg := &overlay.Config{
		VTables: []overlay.VTable{
			{TableName: "patients", ID: "id", FixLabel: true, Label: "'patient'",
				Properties: []string{"patientID", "name", "subscriptionID"}},
			{TableName: "diseases", ID: "id", FixLabel: true, Label: "'disease'",
				Properties: []string{"conceptName"}},
			{TableName: "users", ID: "id", FixLabel: true, Label: "'user'",
				Properties: []string{}},
			{TableName: "topics", ID: "id", FixLabel: true, Label: "'topic'",
				Properties: []string{}},
		},
		ETables: []overlay.ETable{
			{TableName: "has_disease", ID: "eid", SrcVTable: "patients", SrcV: "src",
				DstVTable: "diseases", DstV: "dst", FixLabel: true, Label: "'hasDisease'",
				Properties: []string{"description"}},
			{TableName: "ontology", ID: "eid", SrcVTable: "diseases", SrcV: "src",
				DstVTable: "diseases", DstV: "dst", FixLabel: true, Label: "'isa'",
				Properties: []string{}},
			{TableName: "follows", ID: "eid", SrcVTable: "users", SrcV: "src",
				DstVTable: "topics", DstV: "dst", FixLabel: true, Label: "'follows'",
				Properties: []string{}},
			{TableName: "likes", ID: "eid", SrcVTable: "topics", SrcV: "src",
				DstVTable: "users", DstV: "dst", FixLabel: true, Label: "'likes'",
				Properties: []string{}},
			{TableName: "mentions", ID: "eid", SrcVTable: "users", SrcV: "src",
				DstVTable: "users", DstV: "dst", FixLabel: true, Label: "'mentions'",
				Properties: []string{}},
		},
	}
	b, err := Open(db, cfg, opts)
	return b, db, err
}

// sqlMutator applies graph mutations as plain relational DML — the overlay
// never sees the write; it must notice through the engine's data version,
// exactly as when any other Db2 client updates the overlaid tables.
type sqlMutator struct{ db *engine.Database }

func (m sqlMutator) AddVertex(v *graph.Element) error {
	switch v.Label {
	case "patient":
		_, err := m.db.Exec("INSERT INTO patients VALUES (?, ?, ?, ?)",
			v.ID, v.Props["patientID"], v.Props["name"], v.Props["subscriptionID"])
		return err
	case "disease":
		_, err := m.db.Exec("INSERT INTO diseases VALUES (?, ?)", v.ID, v.Props["conceptName"])
		return err
	case "user":
		_, err := m.db.Exec("INSERT INTO users VALUES (?)", v.ID)
		return err
	case "topic":
		_, err := m.db.Exec("INSERT INTO topics VALUES (?)", v.ID)
		return err
	}
	return fmt.Errorf("unexpected label %q", v.Label)
}

func (m sqlMutator) AddEdge(e *graph.Element) error {
	switch e.Label {
	case "hasDisease":
		_, err := m.db.Exec("INSERT INTO has_disease VALUES (?, ?, ?, ?)",
			e.ID, e.OutV, e.InV, e.Props["description"])
		return err
	case "isa":
		_, err := m.db.Exec("INSERT INTO ontology VALUES (?, ?, ?)", e.ID, e.OutV, e.InV)
		return err
	case "follows", "likes", "mentions":
		_, err := m.db.Exec("INSERT INTO "+e.Label+" VALUES (?, ?, ?)", e.ID, e.OutV, e.InV)
		return err
	}
	return fmt.Errorf("unexpected label %q", e.Label)
}

func TestConformanceAllOptimizations(t *testing.T) {
	graphtest.Run(t, buildOverlayBackend(DefaultOptions()))
}

func TestConformanceNoOptimizations(t *testing.T) {
	graphtest.Run(t, buildOverlayBackend(Options{}))
}

func TestFaultInjection(t *testing.T) {
	graphtest.RunFaults(t, buildOverlayBackend(DefaultOptions()))
}

func TestClusterFaults(t *testing.T) {
	clustertest.RunClusterFaults(t, buildOverlayBackend(DefaultOptions()))
}

func TestReplicatedCluster(t *testing.T) {
	clustertest.RunReplicatedCluster(t, func(vs, es []*graph.Element) (graph.Backend, graph.Mutable, error) {
		b, db, err := buildOverlayWithDB(DefaultOptions(), vs, es)
		if err != nil {
			return nil, nil, err
		}
		return b, sqlMutator{db}, nil
	})
}

func TestConformanceEachOptimizationOff(t *testing.T) {
	for name, opts := range optionVariants() {
		opts := opts
		t.Run(name, func(t *testing.T) {
			graphtest.Run(t, buildOverlayBackend(opts))
		})
	}
}

func TestConcurrentConformance(t *testing.T) {
	graphtest.RunConcurrent(t, buildOverlayBackend(DefaultOptions()))
}

func TestBatchConformance(t *testing.T) {
	graphtest.RunBatchConformance(t, buildOverlayBackend(DefaultOptions()))
}

func TestBatchConformanceNoOptimizations(t *testing.T) {
	graphtest.RunBatchConformance(t, buildOverlayBackend(Options{}))
}

func TestCachedDifferential(t *testing.T) {
	graphtest.RunCachedDifferential(t, buildOverlayBackend(DefaultOptions()))
}

func TestDupFrontierCounts(t *testing.T) {
	graphtest.RunDupFrontierCounts(t, buildOverlayBackend(DefaultOptions()))
}

func TestLivenessDifferential(t *testing.T) {
	graphtest.RunLivenessDifferential(t, buildOverlayBackend(DefaultOptions()))
}

func TestPlannerDifferential(t *testing.T) {
	graphtest.RunPlannerDifferential(t, buildOverlayBackend(DefaultOptions()))
}

func TestStatsConformance(t *testing.T) {
	graphtest.RunStatsConformance(t, buildOverlayBackend(DefaultOptions()))
}

func TestCacheInvalidation(t *testing.T) {
	graphtest.RunCacheInvalidation(t, func(vs, es []*graph.Element) (graph.Backend, graph.Mutable, error) {
		b, db, err := buildOverlayWithDB(DefaultOptions(), vs, es)
		if err != nil {
			return nil, nil, err
		}
		return b, sqlMutator{db}, nil
	})
}
