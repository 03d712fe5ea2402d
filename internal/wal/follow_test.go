package wal

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// followHarness collects streamed payloads and the resume cursors they came
// with.
type followHarness struct {
	payloads []string
	cursors  []Cursor
}

func (h *followHarness) fn(payload []byte, next Cursor) error {
	h.payloads = append(h.payloads, string(payload))
	h.cursors = append(h.cursors, next)
	return nil
}

func TestStreamFromDeliversAndResumes(t *testing.T) {
	fsys := NewMemVFS()
	dir := "d"
	log, err := CreateLog(fsys, Join(dir, WALName(1)), EveryCommit())
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	for _, p := range []string{"a", "bb", "ccc"} {
		if _, err := log.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}

	var h followHarness
	cur, err := StreamFrom(fsys, dir, Cursor{}, h.fn)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(h.payloads); got != "[a bb ccc]" {
		t.Fatalf("streamed %s", got)
	}
	if cur != h.cursors[len(h.cursors)-1] {
		t.Fatalf("returned cursor %v != last resume cursor %v", cur, h.cursors[2])
	}

	// Resuming from the returned cursor sees only what was appended after.
	if _, err := log.Append([]byte("dddd")); err != nil {
		t.Fatal(err)
	}
	var h2 followHarness
	if _, err := StreamFrom(fsys, dir, cur, h2.fn); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(h2.payloads); got != "[dddd]" {
		t.Fatalf("resumed stream %s", got)
	}
	// And resuming from each intermediate cursor replays the exact suffix.
	var h3 followHarness
	if _, err := StreamFrom(fsys, dir, h.cursors[0], h3.fn); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(h3.payloads); got != "[bb ccc dddd]" {
		t.Fatalf("suffix stream %s", got)
	}
}

func TestStreamFromEmptyAndMissing(t *testing.T) {
	fsys := NewMemVFS()
	cur, err := StreamFrom(fsys, "d", Cursor{}, nil)
	if err != nil || cur != (Cursor{}) {
		t.Fatalf("empty dir: cur=%v err=%v", cur, err)
	}
	// A cursor pointing at a generation not yet created waits, not errors.
	cur, err = StreamFrom(fsys, "d", Cursor{Gen: 3}, nil)
	if err != nil || cur != (Cursor{Gen: 3}) {
		t.Fatalf("future gen: cur=%v err=%v", cur, err)
	}
}

func TestStreamFromStopsAtTornTail(t *testing.T) {
	fsys := NewMemVFS()
	dir := "d"
	log, err := CreateLog(fsys, Join(dir, WALName(1)), EveryCommit())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append([]byte("whole")); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	// Half a record at the active tail: a concurrent append in flight.
	rec := AppendRecord(nil, []byte("torn-tail-record"))
	f, err := fsys.OpenAppend(Join(dir, WALName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(rec[:len(rec)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var h followHarness
	cur, err := StreamFrom(fsys, dir, Cursor{}, h.fn)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(h.payloads); got != "[whole]" {
		t.Fatalf("streamed %s", got)
	}

	// Completing the record makes the next poll deliver it.
	f, err = fsys.OpenAppend(Join(dir, WALName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(rec[len(rec)/2:]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	var h2 followHarness
	if _, err := StreamFrom(fsys, dir, cur, h2.fn); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(h2.payloads); got != "[torn-tail-record]" {
		t.Fatalf("after completion streamed %s", got)
	}
}

// TestStreamFromFollowsRotation drives the checkpoint protocol by hand (new
// generation created before the old one seals, matching kvstore.Checkpoint)
// and checks the cursor crosses generations, skipping a sealed torn tail.
func TestStreamFromFollowsRotation(t *testing.T) {
	fsys := NewMemVFS()
	dir := "d"
	g1, err := CreateLog(fsys, Join(dir, WALName(1)), EveryCommit())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g1.Append([]byte("one")); err != nil {
		t.Fatal(err)
	}

	var h followHarness
	cur, err := StreamFrom(fsys, dir, Cursor{}, h.fn)
	if err != nil {
		t.Fatal(err)
	}

	// Rotate: gen 2 exists before gen 1 stops accepting appends; then a torn
	// suffix lands on the sealed gen 1 (an unsynced tail a crash discarded).
	if _, err := g1.Append([]byte("two")); err != nil {
		t.Fatal(err)
	}
	g2, err := CreateLog(fsys, Join(dir, WALName(2)), EveryCommit())
	if err != nil {
		t.Fatal(err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	if err := g1.Close(); err != nil {
		t.Fatal(err)
	}
	rec := AppendRecord(nil, []byte("discarded"))
	f, err := fsys.OpenAppend(Join(dir, WALName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(rec[:len(rec)-3]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := g2.Append([]byte("three")); err != nil {
		t.Fatal(err)
	}
	defer g2.Close()

	cur, err = StreamFrom(fsys, dir, cur, h.fn)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(h.payloads); got != "[one two three]" {
		t.Fatalf("streamed across rotation: %s", got)
	}
	if cur.Gen != 2 {
		t.Fatalf("cursor gen = %d, want 2", cur.Gen)
	}
}

func TestStreamFromCursorGone(t *testing.T) {
	fsys := NewMemVFS()
	dir := "d"
	g1, err := CreateLog(fsys, Join(dir, WALName(1)), EveryCommit())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g1.Append([]byte("one")); err != nil {
		t.Fatal(err)
	}
	cur, err := StreamFrom(fsys, dir, Cursor{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	g1.Close()

	// Retention deletes gen 1 after gens 2 and 3 exist: the cursor's records
	// are gone and the follower must re-bootstrap.
	for g := uint64(2); g <= 3; g++ {
		l, err := CreateLog(fsys, Join(dir, WALName(g)), EveryCommit())
		if err != nil {
			t.Fatal(err)
		}
		l.Close()
	}
	RemoveGenerations(fsys, dir, 2)
	if _, err := StreamFrom(fsys, dir, cur, nil); !errors.Is(err, ErrCursorGone) {
		t.Fatalf("after retention: err=%v, want ErrCursorGone", err)
	}

	// A zero cursor is also unusable once history is snapshot-based.
	w, err := NewSnapshotWriter(fsys, dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := StreamFrom(fsys, "d", Cursor{}, nil); !errors.Is(err, ErrCursorGone) {
		t.Fatalf("zero cursor with snapshot: err=%v, want ErrCursorGone", err)
	}
}

func TestStreamFromTruncatedBelowCursor(t *testing.T) {
	fsys := NewMemVFS()
	dir := "d"
	log, err := CreateLog(fsys, Join(dir, WALName(1)), EveryCommit())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append([]byte("unsynced-then-lost")); err != nil {
		t.Fatal(err)
	}
	cur, err := StreamFrom(fsys, dir, Cursor{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	log.Close()
	// The primary crashed and recovery truncated below our cursor: the
	// follower consumed acknowledged-but-not-durable history.
	f, err := fsys.OpenAppend(Join(dir, WALName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(cur.Off - 1); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := StreamFrom(fsys, dir, cur, nil); !errors.Is(err, ErrCursorGone) {
		t.Fatalf("after truncation: err=%v, want ErrCursorGone", err)
	}
}

func TestStreamFromStopsBeforeCorruptRecord(t *testing.T) {
	fsys := NewMemVFS()
	dir := "d"
	log, err := CreateLog(fsys, Join(dir, WALName(1)), EveryCommit())
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if _, err := log.Append([]byte("good")); err != nil {
		t.Fatal(err)
	}
	off, err := log.Append([]byte("rotted"))
	if err != nil {
		t.Fatal(err)
	}
	if !fsys.Corrupt(Join(dir, WALName(1)), int(off)-2) {
		t.Fatal("corrupt offset out of range")
	}
	var h followHarness
	if _, err := StreamFrom(fsys, dir, Cursor{}, h.fn); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(h.payloads); got != "[good]" {
		t.Fatalf("streamed %s, want to stop before the corrupt record", got)
	}
}

// TestFollowTailsConcurrentAppender races a committer against a reader
// that polls StreamFrom, resuming from the returned cursor each time, and
// checks exactly-once, in-order delivery across a rotation.
func TestFollowTailsConcurrentAppender(t *testing.T) {
	fsys := NewMemVFS()
	dir := "d"
	const n = 200
	errc := make(chan error, 1)
	go func() {
		log, err := CreateLog(fsys, Join(dir, WALName(1)), EveryCommit())
		if err != nil {
			errc <- err
			return
		}
		for i := 0; i < n; i++ {
			if i == n/2 {
				// Mid-stream rotation, checkpoint-style.
				nl, err := CreateLog(fsys, Join(dir, WALName(2)), EveryCommit())
				if err != nil {
					errc <- err
					return
				}
				fsys.SyncDir(dir)
				log.Close()
				log = nl
			}
			if _, err := log.Append([]byte(fmt.Sprintf("r%04d", i))); err != nil {
				errc <- err
				return
			}
		}
		errc <- log.Close()
	}()

	deadline := time.Now().Add(30 * time.Second)
	var got []string
	var cur Cursor
	for len(got) < n {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d/%d records before the deadline", len(got), n)
		}
		next, err := StreamFrom(fsys, dir, cur, func(p []byte, _ Cursor) error {
			got = append(got, string(p))
			return nil
		})
		if err != nil {
			t.Fatalf("stream from %v: %v (delivered %d/%d)", cur, err, len(got), n)
		}
		cur = next
		time.Sleep(time.Millisecond)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	for i, p := range got {
		if want := fmt.Sprintf("r%04d", i); p != want {
			t.Fatalf("record %d = %q, want %q", i, p, want)
		}
	}
}
