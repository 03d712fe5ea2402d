package wal

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"
)

// medianCommitLatency appends and awaits n records one at a time (a lone
// committer: each commit is durable before the next starts) and returns the
// median per-commit latency.
func medianCommitLatency(t *testing.T, policy SyncPolicy, n int) time.Duration {
	t.Helper()
	mem := NewMemVFS()
	// MemVFS fsyncs are instant; make them cost something real so the
	// measurement compares policy overhead, not noise.
	mem.SyncDelay = 200 * time.Microsecond
	l, err := CreateLog(mem, "d/w.log", policy)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	lat := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		off, err := l.Append([]byte(fmt.Sprintf("r%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.WaitDurable(off); err != nil {
			t.Fatal(err)
		}
		lat = append(lat, time.Since(start))
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return lat[len(lat)/2]
}

// TestGroupCommitLoneCommitterLatency is the regression test for the
// group-commit anomaly: a lone committer under sync=group used to sit out
// the flusher's full MaxDelay window on every commit (~MaxDelay per op;
// one measurement gave 362 ops/s against 2056 for sync=always). With the
// lone-waiter fast path it must fsync immediately, so its median latency
// stays within ~2x of sync=always.
func TestGroupCommitLoneCommitterLatency(t *testing.T) {
	// A delay window far larger than an fsync makes the pre-fix failure
	// mode unmissable (median would be >= 20ms) while keeping the 2x
	// comparison insensitive to scheduler noise.
	const window = 20 * time.Millisecond
	const ops = 31
	always := medianCommitLatency(t, EveryCommit(), ops)
	group := medianCommitLatency(t, GroupCommit(window), ops)
	// 2x plus a small absolute slack so sub-millisecond medians don't turn
	// scheduling jitter into a failure.
	limit := 2*always + 2*time.Millisecond
	if group > limit {
		t.Fatalf("lone committer: group median %v exceeds limit %v (always median %v)",
			group, limit, always)
	}
	if group >= window {
		t.Fatalf("lone committer: group median %v still pays the %v delay window", group, window)
	}
}

// TestGroupCommitStillBatchesConcurrent proves the fast path did not break
// batching: concurrent committers under sync=group must share fsyncs (fewer
// fsyncs than commits) and all become durable.
func TestGroupCommitStillBatchesConcurrent(t *testing.T) {
	mem := NewMemVFS()
	mem.SyncDelay = 200 * time.Microsecond
	l, err := CreateLog(mem, "d/w.log", GroupCommit(2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	mem.SyncDir("d")
	const n = 64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			off, err := l.Append([]byte(fmt.Sprintf("c%d", i)))
			if err != nil {
				t.Error(err)
				return
			}
			if err := l.WaitDurable(off); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if syncs := mem.SyncCount(); syncs >= n {
		t.Fatalf("concurrent group commit did not batch: %d fsyncs for %d commits", syncs, n)
	}
	mem.Crash(CrashDropUnsynced)
	_, cnt, _, err := ReplayFile(mem, "d/w.log", nil)
	if err != nil || cnt != n {
		t.Fatalf("after crash: %d records, err=%v", cnt, err)
	}
}
