package graph

import (
	"context"
	"sync"
	"sync/atomic"
)

// Stats is a point-in-time statistical summary of one backend's graph:
// vertex and edge totals and per-label cardinalities. The cost model
// (internal/gremlin) reads it to annotate plans with row estimates for
// explain(); no execution choice depends on it.
type Stats struct {
	// DataVersion is the backend's DataVersion observed before the scan
	// started; stats are stale once the backend's current version differs.
	DataVersion uint64 `json:"data_version"`

	VertexCount int64 `json:"vertex_count"`
	EdgeCount   int64 `json:"edge_count"`

	// VertexLabels / EdgeLabels count vertices / edges per label.
	VertexLabels map[string]int64 `json:"vertex_labels,omitempty"`
	EdgeLabels   map[string]int64 `json:"edge_labels,omitempty"`
}

// VertexLabelCount returns the vertex cardinality of one label, falling back
// to the total when the label is unknown (conservative over-estimate).
func (s *Stats) VertexLabelCount(label string) int64 {
	if s == nil {
		return 0
	}
	if n, ok := s.VertexLabels[label]; ok {
		return n
	}
	return s.VertexCount
}

// EdgeLabelCount returns the edge cardinality of one label, falling back to
// the total when the label is unknown.
func (s *Stats) EdgeLabelCount(label string) int64 {
	if s == nil {
		return 0
	}
	if n, ok := s.EdgeLabels[label]; ok {
		return n
	}
	return s.EdgeCount
}

// CollectStats scans b through the public Backend contract: two
// projection-free full scans (V and E), counted per label. It works on every
// backend and is what StatsProvider.Analyze runs.
func CollectStats(ctx context.Context, b Backend) (*Stats, error) {
	// Tag with the version observed *before* reading, mirroring the cache
	// layers: if a mutation lands mid-scan the recorded version is already
	// stale, never falsely fresh.
	st := &Stats{
		DataVersion:  DataVersionOf(b),
		VertexLabels: map[string]int64{},
		EdgeLabels:   map[string]int64{},
	}
	noProps := &Query{Projection: []string{}}
	verts, err := b.V(ctx, noProps)
	if err != nil {
		return nil, err
	}
	st.VertexCount = int64(len(verts))
	for _, v := range verts {
		st.VertexLabels[v.Label]++
	}
	edges, err := b.E(ctx, noProps)
	if err != nil {
		return nil, err
	}
	st.EdgeCount = int64(len(edges))
	for _, e := range edges {
		st.EdgeLabels[e.Label]++
	}
	return st, nil
}

// StatsProvider owns the current statistics of one backend: ANALYZE refreshes
// them, queries read them lock-free-ish, and the plan cache keys on the epoch
// so plans costed against superseded statistics are never reused. Safe for
// concurrent use.
type StatsProvider struct {
	backend Backend
	epoch   atomic.Uint64 // bumps on every successful Analyze

	mu    sync.RWMutex
	stats *Stats
}

// NewStatsProvider creates a provider for b with no statistics yet (Current
// returns nil until the first Analyze).
func NewStatsProvider(b Backend) *StatsProvider {
	return &StatsProvider{backend: b}
}

// Analyze recomputes statistics from the backend and installs them.
func (p *StatsProvider) Analyze(ctx context.Context) (*Stats, error) {
	st, err := CollectStats(ctx, p.backend)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.stats = st
	p.mu.Unlock()
	p.epoch.Add(1)
	return st, nil
}

// Current returns the installed statistics (nil before the first Analyze).
func (p *StatsProvider) Current() *Stats {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.stats
}

// Epoch returns the statistics generation; it changes exactly when Analyze
// installs a new snapshot.
func (p *StatsProvider) Epoch() uint64 { return p.epoch.Load() }

// Fresh reports whether the installed statistics still match the backend's
// current data version. Stale statistics remain usable (they only feed
// explain() estimates) but explain() flags them.
func (p *StatsProvider) Fresh() bool {
	p.mu.RLock()
	st := p.stats
	p.mu.RUnlock()
	return st != nil && st.DataVersion == DataVersionOf(p.backend)
}
