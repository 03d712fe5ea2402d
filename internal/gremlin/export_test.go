package gremlin

// Test-only exports for the external gremlin_test package, whose allocation
// gate also drives the SQL-backed overlay (internal/core imports this
// package, so those tests cannot live in it).
var (
	BatchedExpand = batchedExpand
	BenchBackend  = benchBackend
)
