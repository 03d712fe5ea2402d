package wal

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
)

// ErrCursorGone reports that the records a cursor points at no longer exist:
// retention (RemoveGenerations) deleted the cursor's generation, or the
// primary crash-truncated the log below the cursor's offset. The follower's
// incremental position is unrecoverable; it must re-bootstrap from the
// newest snapshot and resume from there.
var ErrCursorGone = errors.New("wal: cursor generation removed or truncated; re-bootstrap from snapshot")

// Cursor is a replication position in a generational WAL directory: byte
// offset Off into generation Gen's log file. The zero Cursor means "from the
// oldest retained generation", which is only valid while no checkpoint has
// been taken yet (afterwards the oldest WAL's base state lives in a snapshot
// and a fresh follower must bootstrap instead).
type Cursor struct {
	Gen uint64
	Off int64
}

// Less orders cursors by generation, then offset.
func (c Cursor) Less(o Cursor) bool {
	if c.Gen != o.Gen {
		return c.Gen < o.Gen
	}
	return c.Off < o.Off
}

func (c Cursor) String() string { return fmt.Sprintf("%d:%d", c.Gen, c.Off) }

// StreamFrom reads every committed record at or after cur, calling fn with
// the payload and the cursor just past it (the resume point a follower
// persists), and returns the advanced cursor. It follows generation
// rotations: when a higher WAL generation exists, the current one is sealed
// — the checkpoint protocol creates the next generation's file under the
// store's write lock, so its existence proves no further appends can land in
// this one — and the cursor advances to (nextGen, 0) after the sealed tail
// is consumed.
//
// A torn record at the tail of the ACTIVE generation is a record still being
// written (or an unsynced suffix): StreamFrom stops in front of it and the
// next call re-reads it. In a SEALED generation a torn or corrupt tail is
// the crash-discarded suffix recovery also ignores, so it is skipped on
// rotation. An error from fn aborts the stream; the returned cursor points
// just past the last record fn accepted.
func StreamFrom(fsys VFS, dir string, cur Cursor, fn func(payload []byte, next Cursor) error) (Cursor, error) {
	for {
		snaps, wals, err := ListGenerations(fsys, dir)
		if err != nil {
			return cur, err
		}
		if cur.Gen == 0 {
			// "From the beginning": only meaningful while the full history is
			// still one unbroken WAL chain from the empty state.
			if len(snaps) > 0 {
				return cur, ErrCursorGone
			}
			if len(wals) == 0 {
				return cur, nil // nothing written yet
			}
			cur = Cursor{Gen: wals[0]}
		}
		present := false
		var next uint64
		for _, g := range wals {
			if g == cur.Gen {
				present = true
			}
			if g > cur.Gen && (next == 0 || g < next) {
				next = g
			}
		}
		if !present {
			if len(wals) > 0 && cur.Gen < wals[len(wals)-1] {
				return cur, ErrCursorGone // retention passed the cursor
			}
			return cur, nil // generation not created yet; wait
		}
		sealed := next != 0

		data, err := fsys.ReadFile(Join(dir, WALName(cur.Gen)))
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				// Raced with retention between the listing and the read.
				return cur, ErrCursorGone
			}
			return cur, fmt.Errorf("%w: read %s: %w", ErrIO, WALName(cur.Gen), err)
		}
		if cur.Off > int64(len(data)) {
			// The log shrank below the cursor: the primary restarted and
			// truncated an unsynced suffix this follower already consumed.
			// The follower is ahead of the primary's history — divergence —
			// and must rebuild from a snapshot.
			return cur, ErrCursorGone
		}
		rest := data[cur.Off:]
		for {
			payload, r2, rerr := ReadRecord(rest)
			if rerr != nil {
				if errors.Is(rerr, io.EOF) || errors.Is(rerr, ErrTorn) || errors.Is(rerr, ErrCorrupt) {
					break
				}
				return cur, rerr
			}
			nextCur := Cursor{Gen: cur.Gen, Off: cur.Off + int64(len(rest)-len(r2))}
			if fn != nil {
				if err := fn(payload, nextCur); err != nil {
					return cur, err
				}
			}
			cur = nextCur
			rest = r2
		}
		if !sealed {
			// Active generation: stop in front of the (possibly torn) tail.
			// A rotation that happened after the listing above is caught by
			// the caller's next poll.
			return cur, nil
		}
		cur = Cursor{Gen: next}
	}
}
