// Traverser allocation (see DESIGN.md §15): every traverser the engine
// materializes comes from a bump allocator over GC-owned slabs instead of an
// individual heap allocation.
//
// Each query owns its allocator: ExecuteCtx makes one, and the query's
// single goroutine mints every traverser from it, so no slot is ever
// contended. Slots are handed out in order and never recycled — a slab is garbage once nothing points into it — so a result the
// caller retains can never alias memory a later query reuses.
package gremlin

// Slab sizing. A fresh allocator starts with a small slab so a point read
// that mints a handful of traversers doesn't pin a large one, and doubles up
// to travSlabMax.
const (
	travSlabMin = 4
	travSlabMax = 512
)

// PoolStats reports (0, 0). The engine no longer pools traversers; the stub
// remains only because the perfbench harness still calls it to derive its
// gremlin.pool_hit_ratio metric, and goes with that harness's next change.
func PoolStats() (hits, misses int64) { return 0, 0 }

// travAlloc is a query-private bump allocator over traverser slabs. Not
// safe for concurrent use.
type travAlloc struct {
	// cur is the active slab, len = slots handed out so far.
	cur  []Traverser
	next int // next slab size (doubling growth)
}

// reserve makes room for n more slots, so a step that knows how many
// traversers it mints takes them from one slab of exactly that size instead
// of a run of doubling ones. Counts above travSlabMax keep the doubling
// slabs, so one survivor never pins a huge slab.
func (a *travAlloc) reserve(n int) {
	if n <= travSlabMax && cap(a.cur)-len(a.cur) < n {
		a.cur = make([]Traverser, 0, n)
	}
}

// get hands out one zeroed traverser slot.
func (a *travAlloc) get() *Traverser {
	if len(a.cur) == cap(a.cur) {
		a.cur = make([]Traverser, 0, a.next)
		if a.next < travSlabMax {
			a.next *= 2
		}
	}
	n := len(a.cur)
	a.cur = a.cur[:n+1]
	return &a.cur[n]
}
