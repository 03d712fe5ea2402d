package gremlin

import (
	"encoding/json"
	"os"
	"testing"

	"db2graph/internal/graph"
)

// allocBaseline is the committed allocation budget for the hot expansion
// path (testdata/alloc_baseline.json). The gate fails when measured
// allocs/op regresses more than allocGateTolerance over the baseline;
// improvements are reported so the baseline can be ratcheted down.
type allocBaseline struct {
	// BatchedExpandNativePar1 is allocs/op of BenchmarkBatchedExpand
	// native/par=1 (the two-hop frontier expansion over the native batch
	// backend, serial engine).
	BatchedExpandNativePar1 int64 `json:"batched_expand_native_par1"`
}

const allocGateTolerance = 1.10

// TestBatchedExpandAllocBaseline is the allocation-regression gate wired to
// `make bench-alloc` (set BENCH_ALLOC_GATE=1 to run): it measures the
// benchmark body under testing.Benchmark and compares allocs/op against the
// committed baseline. Allocation counts are deterministic enough for a 10%
// tolerance — an allocation regression (a traverser allocated one at a time
// instead of from a slab) shows up as a multiple, not a percentage.
func TestBatchedExpandAllocBaseline(t *testing.T) {
	if os.Getenv("BENCH_ALLOC_GATE") == "" {
		t.Skip("allocation gate skipped; set BENCH_ALLOC_GATE=1 (make bench-alloc) to run")
	}
	raw, err := os.ReadFile("testdata/alloc_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var base allocBaseline
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatal(err)
	}

	var m *graph.MemBackend
	res := testing.Benchmark(func(b *testing.B) {
		if m == nil {
			m = benchBackend(b, 2000)
		}
		src := NewSource(m).WithParallelism(1)
		trav := func() *Traversal { return batchedExpand(src) }
		if _, err := trav().ToList(); err != nil { // warm caches
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := trav().ToList(); err != nil {
				b.Fatal(err)
			}
		}
	})
	got := res.AllocsPerOp()
	limit := int64(float64(base.BatchedExpandNativePar1) * allocGateTolerance)
	t.Logf("BatchedExpand native/par=1: %d allocs/op (baseline %d, limit %d)",
		got, base.BatchedExpandNativePar1, limit)
	if got > limit {
		t.Fatalf("allocation regression: %d allocs/op exceeds baseline %d by more than %.0f%%",
			got, base.BatchedExpandNativePar1, (allocGateTolerance-1)*100)
	}
	if got < base.BatchedExpandNativePar1*9/10 {
		t.Logf("note: measured allocs/op is >10%% below baseline; consider ratcheting testdata/alloc_baseline.json down to %d", got)
	}
}
