// Traverser allocation (see DESIGN.md §15): every traverser the engine
// materializes comes from a bump allocator over GC-owned slabs instead of an
// individual heap allocation.
//
// Each goroutine that mints traversers owns its allocator: ExecuteCtx makes
// one for the query, and every parallel chunk (parallel.go runChunks) makes
// its own, so chunk goroutines never contend per traverser and never hand
// the same slot to two chunks. Slots are handed out in order and never
// recycled — a slab is garbage once nothing points into it — so a result the
// caller retains can never alias memory a later query reuses.
package gremlin

// Slab sizing. A fresh allocator starts with a small slab so the thousands
// of tiny chunks a batched query can spawn don't each pin a large one, and
// doubles up to travSlabMax.
const (
	travSlabMin = 32
	travSlabMax = 512
)

// PoolStats reports (0, 0). The engine no longer pools traversers; the stub
// remains only because the perfbench harness still calls it to derive its
// gremlin.pool_hit_ratio metric, and goes with that harness's next change.
func PoolStats() (hits, misses int64) { return 0, 0 }

// travAlloc is a goroutine-private bump allocator over traverser slabs. Not
// safe for concurrent use.
type travAlloc struct {
	// cur is the active slab, len = slots handed out so far.
	cur  []Traverser
	next int // next slab size (doubling growth)
}

func newTravAlloc() *travAlloc { return &travAlloc{next: travSlabMin} }

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
