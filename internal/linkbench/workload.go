package linkbench

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"db2graph/internal/gremlin"
)

// QueryKind enumerates the four LinkBench queries of Table 1.
type QueryKind int

// The LinkBench query types.
const (
	GetNode QueryKind = iota
	CountLinks
	GetLink
	GetLinkList
	numQueryKinds
)

// String names the query kind as the paper does.
func (k QueryKind) String() string {
	switch k {
	case GetNode:
		return "getNode"
	case CountLinks:
		return "countLinks"
	case GetLink:
		return "getLink"
	case GetLinkList:
		return "getLinkList"
	default:
		return fmt.Sprintf("QueryKind(%d)", int(k))
	}
}

// Query is one concrete benchmark operation.
type Query struct {
	Kind QueryKind
	// ID1 is the (graph) id of the anchor vertex; Label the vertex or edge
	// label; ID2 the destination vertex id for getLink.
	ID1   string
	Label string
	ID2   string
}

// Gremlin renders the query as Table 1's Gremlin text.
func (q Query) Gremlin() string {
	switch q.Kind {
	case GetNode:
		return fmt.Sprintf("g.V('%s').hasLabel('%s')", q.ID1, q.Label)
	case CountLinks:
		return fmt.Sprintf("g.V('%s').outE('%s').count()", q.ID1, q.Label)
	case GetLink:
		return fmt.Sprintf("g.V('%s').outE('%s').filter(inV().id() == '%s')", q.ID1, q.Label, q.ID2)
	case GetLinkList:
		return fmt.Sprintf("g.V('%s').outE('%s')", q.ID1, q.Label)
	default:
		return ""
	}
}

// Build constructs the query as a traversal on src (the fast path used by
// the latency/throughput drivers; the Gremlin text form goes through the
// parser and the network server).
func (q Query) Build(src *gremlin.Source) *gremlin.Traversal {
	switch q.Kind {
	case GetNode:
		return src.V(q.ID1).HasLabel(q.Label)
	case CountLinks:
		return src.V(q.ID1).OutE(q.Label).Count()
	case GetLink:
		return src.V(q.ID1).OutE(q.Label).Where(gremlin.Anon().InV().HasID(q.ID2))
	case GetLinkList:
		return src.V(q.ID1).OutE(q.Label)
	default:
		return nil
	}
}

// Workload generates random benchmark queries over a dataset.
type Workload struct {
	d   *Dataset
	rng *rand.Rand
	mu  sync.Mutex
}

// NewWorkload creates a deterministic workload generator.
func (d *Dataset) NewWorkload(seed int64) *Workload {
	return &Workload{d: d, rng: rand.New(rand.NewSource(seed))}
}

// Next produces the next random query of the given kind. Anchor vertices
// are drawn from edge sources so adjacency queries hit real data.
func (w *Workload) Next(kind QueryKind) Query {
	w.mu.Lock()
	defer w.mu.Unlock()
	d := w.d
	switch kind {
	case GetNode:
		id := w.rng.Int63n(int64(d.Cfg.Vertices)) + 1
		return Query{Kind: kind, ID1: d.VertexID(id), Label: VertexLabel(d.vertexType(id))}
	default:
		e := d.Edges[w.rng.Intn(len(d.Edges))]
		return Query{
			Kind:  kind,
			ID1:   d.VertexID(e.Src),
			Label: EdgeLabel(e.Type),
			ID2:   d.VertexID(e.Dst),
		}
	}
}

// NextAny produces a random query of a random kind.
func (w *Workload) NextAny() Query {
	w.mu.Lock()
	k := QueryKind(w.rng.Intn(int(numQueryKinds)))
	w.mu.Unlock()
	return w.Next(k)
}

// LatencyResult reports mean latency per query kind.
type LatencyResult struct {
	Kind    QueryKind
	Ops     int
	Mean    time.Duration
	Total   time.Duration
	Results int64 // cumulative result cardinality (sanity signal)
}

// MeasureLatency runs n queries of each kind sequentially and reports the
// mean latency per kind (Figures 4 and 5).
func MeasureLatency(src *gremlin.Source, w *Workload, n int) ([]LatencyResult, error) {
	out := make([]LatencyResult, 0, int(numQueryKinds))
	for k := QueryKind(0); k < numQueryKinds; k++ {
		// Pre-generate so query generation cost stays out of the timing.
		queries := make([]Query, n)
		for i := range queries {
			queries[i] = w.Next(k)
		}
		// Warm up (statement caches, plan pools) before timing.
		warm := len(queries)
		if warm > 20 {
			warm = 20
		}
		for _, q := range queries[:warm] {
			if _, err := q.Build(src).ToList(); err != nil {
				return nil, fmt.Errorf("linkbench: %s: %w", k, err)
			}
		}
		var results int64
		start := time.Now()
		for _, q := range queries {
			objs, err := q.Build(src).ToList()
			if err != nil {
				return nil, fmt.Errorf("linkbench: %s: %w", k, err)
			}
			results += int64(len(objs))
		}
		total := time.Since(start)
		out = append(out, LatencyResult{
			Kind: k, Ops: n, Total: total,
			Mean:    total / time.Duration(n),
			Results: results,
		})
	}
	return out, nil
}

// ThroughputResult reports ops/sec per query kind.
type ThroughputResult struct {
	Kind    QueryKind
	Ops     int64
	Elapsed time.Duration
	OpsSec  float64
}

// MeasureThroughput runs opsPerClient queries of each kind from clients
// concurrent goroutines (the paper uses 50 clients) and reports aggregate
// throughput per kind (Figure 6).
func MeasureThroughput(src *gremlin.Source, w *Workload, clients, opsPerClient int) ([]ThroughputResult, error) {
	out := make([]ThroughputResult, 0, int(numQueryKinds))
	for k := QueryKind(0); k < numQueryKinds; k++ {
		// Pre-generate per-client query streams.
		streams := make([][]Query, clients)
		for c := range streams {
			streams[c] = make([]Query, opsPerClient)
			for i := range streams[c] {
				streams[c][i] = w.Next(k)
			}
		}
		var firstErr atomic.Value
		var wg sync.WaitGroup
		start := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(queries []Query) {
				defer wg.Done()
				for _, q := range queries {
					if _, err := q.Build(src).ToList(); err != nil {
						firstErr.CompareAndSwap(nil, err)
						return
					}
				}
			}(streams[c])
		}
		wg.Wait()
		elapsed := time.Since(start)
		if err, ok := firstErr.Load().(error); ok && err != nil {
			return nil, fmt.Errorf("linkbench: %s: %w", k, err)
		}
		totalOps := int64(clients) * int64(opsPerClient)
		out = append(out, ThroughputResult{
			Kind: k, Ops: totalOps, Elapsed: elapsed,
			OpsSec: float64(totalOps) / elapsed.Seconds(),
		})
	}
	return out, nil
}

// ExportCSV writes the dataset as CSV files (nodes.csv, links.csv) into
// dir, timing the "Export From DB" phase of Table 3. Returns total bytes.
func (d *Dataset) ExportCSV(dir string) (int64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	var total int64
	nodePath := filepath.Join(dir, "nodes.csv")
	nf, err := os.Create(nodePath)
	if err != nil {
		return 0, err
	}
	nw := bufio.NewWriter(nf)
	rng := rand.New(rand.NewSource(d.Cfg.Seed + 1))
	for id := int64(1); id <= int64(d.Cfg.Vertices); id++ {
		line := d.vertexCSV(id, rng)
		n, err := fmt.Fprintln(nw, line)
		if err != nil {
			nf.Close()
			return 0, err
		}
		total += int64(n)
	}
	if err := nw.Flush(); err != nil {
		nf.Close()
		return 0, err
	}
	if err := nf.Close(); err != nil {
		return 0, err
	}

	linkPath := filepath.Join(dir, "links.csv")
	lf, err := os.Create(linkPath)
	if err != nil {
		return 0, err
	}
	lw := bufio.NewWriter(lf)
	for _, e := range d.Edges {
		n, err := fmt.Fprintln(lw, e.csv())
		if err != nil {
			lf.Close()
			return 0, err
		}
		total += int64(n)
	}
	if err := lw.Flush(); err != nil {
		lf.Close()
		return 0, err
	}
	return total, lf.Close()
}
