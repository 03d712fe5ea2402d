package gremlin

import (
	"container/list"
	"slices"
	"sync"
	"sync/atomic"

	"db2graph/internal/graph"
	"db2graph/internal/sql/types"
)

// DefaultPlanCacheEntries bounds a PlanCache built with capacity <= 0. Plans
// are small (a few step structs per script), so the bound exists to cap
// pathological workloads that generate unbounded distinct script texts, not
// to manage memory precisely.
const DefaultPlanCacheEntries = 256

// PlanCache is an LRU cache of compiled traversal plans, keyed by the
// *normalized shape* of the script (literals at value positions rendered as
// "?" — see prepared.go) plus the backend's configuration version, the
// statistics epoch the plan was costed under, and whether strategy rewriting
// was disabled. A hit skips the strategy rewrite and cost model: the cached
// plan is the post-strategy, post-cost step list, rebound to the call's
// literal values and executed.
//
// Historical note (documented in DESIGN.md §11): before the cost-based
// planner PR the key was the *exact script text*, so a literal-varying
// workload — g.V('p1').out(), g.V('p2').out(), ... — missed on every request
// and recompiled from scratch. Shape keying lets all literal variants of one
// script share a single compiled template.
//
// Cacheability (decided by RunScriptCtx): a script compiles to a reusable
// plan only when it is a single statement, binds no variable, references
// none — variable references splice caller-provided values into the plan, so
// those scripts recompile every run — and has no string literal containing
// the parameter marker (shapeSafe). Keying by ConfigVersion means plans
// compiled against an older overlay configuration are never reused after a
// DDL-driven remap (backends without a config version key everything at 0);
// keying by stats epoch retires plans costed under stale statistics the same
// way after an ANALYZE.
//
// Cached step lists are shared by concurrent executions; the engine treats
// plans as read-only after the strategy rewrite (see Traversal.planned), and
// parameter rebinding operates on a private clone (bindParams).
type PlanCache struct {
	cap int

	mu      sync.Mutex
	entries map[planKey]*list.Element
	lru     list.List // front = most recently used
	// byTokens indexes the plans by masked token stream for hits that skip
	// the parse (prepared.go): at most maxTokenVariants per stream, and at
	// most cap streams before the index starts over.
	byTokens map[string][]*tokenPlan

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	// invalidations counts explicit flushes (version-mismatched entries age
	// out of the LRU instead, counted as evictions).
	invalidations atomic.Int64
}

// planKey identifies one compiled plan.
type planKey struct {
	// shape is the normalized script: tokens space-joined with parameterized
	// literals rendered as "?" (renderShape).
	shape   string
	config  uint64
	nostrat bool
	// stats is the statistics epoch the plan was costed under (0 = no
	// statistics; plan is the static strategy output).
	stats uint64
}

// cachedPlan is the compiled form of a cacheable script: the post-strategy,
// post-cost step list (with parameter markers in value slots), the number of
// parameters the shape binds, and the terminal method that closed the chain.
type cachedPlan struct {
	key     planKey
	steps   []Step
	nparams int
	term    terminalKind
}

// NewPlanCache creates a plan cache bounded to capacity entries (<=0 uses
// DefaultPlanCacheEntries).
func NewPlanCache(capacity int) *PlanCache {
	if capacity <= 0 {
		capacity = DefaultPlanCacheEntries
	}
	return &PlanCache{cap: capacity, entries: make(map[planKey]*list.Element), byTokens: make(map[string][]*tokenPlan)}
}

// maxTokenVariants bounds the plans one masked token stream indexes: the
// structural variants of one script shape (one per label, say).
const maxTokenVariants = 16

// getTokens finds the plan a script with the masked token stream masked and
// tokens toks compiles to under k's configuration, and binds its
// parameters from the tokens. Only a plan the shape-keyed LRU still holds
// answers, and a hit promotes it there. A miss is not counted: the caller
// goes on to the shape-keyed get.
func (c *PlanCache) getTokens(masked []byte, toks []gtok, k planKey) (*cachedPlan, []types.Value, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, tp := range c.byTokens[string(masked)] {
		if tp.key.config != k.config || tp.key.nostrat != k.nostrat || tp.key.stats != k.stats {
			continue
		}
		params, ok := tp.bind(toks)
		if !ok {
			continue
		}
		el, ok := c.entries[tp.plan.key]
		if !ok || el.Value != tp.plan {
			return nil, nil, false
		}
		c.lru.MoveToFront(el)
		c.hits.Add(1)
		return tp.plan, params, true
	}
	return nil, nil, false
}

// putTokens indexes tp under its script's masked token stream, replacing a
// variant that answers the same scripts and dropping the oldest beyond
// maxTokenVariants.
func (c *PlanCache) putTokens(masked []byte, tp *tokenPlan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	old, ok := c.byTokens[string(masked)]
	if !ok && len(c.byTokens) >= c.cap {
		c.byTokens = make(map[string][]*tokenPlan)
	}
	variants := slices.DeleteFunc(old, tp.sameScript)
	if len(variants) >= maxTokenVariants {
		variants = slices.Delete(variants, 0, 1)
	}
	c.byTokens[string(masked)] = append(variants, tp)
}

// get returns the cached plan for k, promoting it to most recently used.
func (c *PlanCache) get(k planKey) (*cachedPlan, bool) {
	c.mu.Lock()
	var p *cachedPlan
	el, ok := c.entries[k]
	if ok {
		c.lru.MoveToFront(el)
		p = el.Value.(*cachedPlan) // put may replace it once unlocked
	}
	c.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return p, true
}

// put inserts a compiled plan, evicting the least recently used entry at
// capacity.
func (c *PlanCache) put(p *cachedPlan) {
	c.mu.Lock()
	if el, ok := c.entries[p.key]; ok {
		el.Value = p
		c.lru.MoveToFront(el)
		c.mu.Unlock()
		return
	}
	if c.lru.Len() >= c.cap {
		if back := c.lru.Back(); back != nil {
			delete(c.entries, back.Value.(*cachedPlan).key)
			c.lru.Remove(back)
			c.evictions.Add(1)
		}
	}
	c.entries[p.key] = c.lru.PushFront(p)
	c.mu.Unlock()
}

// Flush drops every cached plan (the gserver !flushcaches control request).
func (c *PlanCache) Flush() {
	c.mu.Lock()
	n := c.lru.Len()
	c.entries = make(map[planKey]*list.Element)
	c.byTokens = make(map[string][]*tokenPlan)
	c.lru.Init()
	c.mu.Unlock()
	c.invalidations.Add(int64(n))
}

// Stats snapshots the cache counters.
func (c *PlanCache) Stats() graph.CacheStats {
	c.mu.Lock()
	n := c.lru.Len()
	c.mu.Unlock()
	return graph.CacheStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Evictions:     c.evictions.Load(),
		Invalidations: c.invalidations.Load(),
		Entries:       int64(n),
	}
}
