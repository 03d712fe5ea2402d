package janus

import (
	"bytes"
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"db2graph/internal/graph"
)

// queuedWriters counts the goroutines parked acquiring a kvstore write lock.
func queuedWriters() int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	count := 0
	for _, g := range bytes.Split(buf[:n], []byte("\n\n")) {
		if bytes.Contains(g, []byte("[sync.RWMutex.Lock")) && bytes.Contains(g, []byte("kvstore.(*Store).Apply")) {
			count++
		}
	}
	return count
}

// waitForQueuedWriter blocks until more than before goroutines are parked
// on a kvstore write lock, so the caller knows its writer sits between the
// scan's read lock and any later one.
func waitForQueuedWriter(t *testing.T, before int) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); runtime.Gosched() {
		if queuedWriters() > before {
			return
		}
	}
	t.Error("writer never queued on the store lock")
}

// TestScanWithQueuedWriter is the regression test for the nested read-lock
// deadlock: V-by-label and the E scans used to resolve each scanned key
// (getVertex, getAdj → Store.Get) inside ScanPrefix's callback, taking a
// second read lock while the scan held the first. A writer queued between
// the two blocks the second RLock, and the scan, the writer and every later
// reader wedge forever. The hook parks a writer on the store lock in the
// middle of the scan; each read must still finish, and so must the write.
func TestScanWithQueuedWriter(t *testing.T) {
	reads := map[string]func(g *Graph) ([]*graph.Element, error){
		"V-by-label": func(g *Graph) ([]*graph.Element, error) {
			return g.V(context.Background(), &graph.Query{Labels: []string{"node"}})
		},
		"E-by-label": func(g *Graph) ([]*graph.Element, error) {
			return g.E(context.Background(), &graph.Query{Labels: []string{"link"}})
		},
		"E-scan": func(g *Graph) ([]*graph.Element, error) {
			return g.E(context.Background(), &graph.Query{})
		},
	}
	for name, read := range reads {
		t.Run(name, func(t *testing.T) {
			// A fresh graph per read: its decode caches are cold, so
			// resolving a key must reach the store.
			g := New()
			for _, id := range []string{"a", "b", "c"} {
				if err := g.AddVertex(&graph.Element{ID: id, Label: "node"}); err != nil {
					t.Fatal(err)
				}
			}
			for _, e := range [][3]string{{"e1", "a", "b"}, {"e2", "b", "c"}} {
				if err := g.AddEdge(&graph.Element{ID: e[0], Label: "link", IsEdge: true, OutV: e[1], InV: e[2]}); err != nil {
					t.Fatal(err)
				}
			}
			wrote := make(chan error, 1)
			var once sync.Once
			testHookScanned = func() {
				once.Do(func() {
					before := queuedWriters()
					go func() { wrote <- g.AddVertex(&graph.Element{ID: "w", Label: "other"}) }()
					waitForQueuedWriter(t, before)
				})
			}
			t.Cleanup(func() { testHookScanned = nil })

			done := make(chan error, 1)
			var got []*graph.Element
			go func() {
				var err error
				got, err = read(g)
				done <- err
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(3 * time.Second):
				t.Fatal("scan deadlocked against a queued writer")
			}
			if len(got) < 2 {
				t.Fatalf("read returned %d elements, want at least 2", len(got))
			}
			select {
			case err := <-wrote:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("queued writer never finished")
			}
		})
	}
}

// TestScanUnlockedChunks: scans longer than one chunk visit every key once,
// in order, and a limit stops them early.
func TestScanUnlockedChunks(t *testing.T) {
	g := New()
	const n = 2*scanChunk + 7
	for i := 0; i < n; i++ {
		id := string(rune('a'+i%26)) + string(rune('a'+i/26%26)) + string(rune('a'+i/676))
		if err := g.AddVertex(&graph.Element{ID: id, Label: "node"}); err != nil {
			t.Fatal(err)
		}
	}
	all, err := g.V(context.Background(), &graph.Query{Labels: []string{"node"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != n {
		t.Fatalf("label scan returned %d vertices, want %d", len(all), n)
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].ID >= all[i].ID {
			t.Fatalf("label scan out of order at %d: %s then %s", i, all[i-1].ID, all[i].ID)
		}
	}
	lim, err := g.V(context.Background(), &graph.Query{Labels: []string{"node"}, Limit: scanChunk + 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(lim) != scanChunk+1 || lim[scanChunk].ID != all[scanChunk].ID {
		t.Fatalf("limited scan returned %d vertices", len(lim))
	}
}
