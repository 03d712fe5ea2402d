package wal

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"strings"
	"sync"
	"time"
)

var (
	// ErrIO wraps every disk failure surfaced by the log and snapshot
	// writers, so callers can classify storage faults with one errors.Is.
	ErrIO = errors.New("wal: i/o error")
	// ErrClosed is returned by operations on a closed log.
	ErrClosed = errors.New("wal: log closed")
	// ErrReadOnly is the typed error a degraded durable store returns for
	// writes after a persistent disk failure. It lives here so every layer
	// (kvstore, janus, gserver) agrees on the sentinel.
	ErrReadOnly = errors.New("wal: store is read-only after disk failure")
)

// SyncMode selects when commits are fsynced.
type SyncMode int

const (
	// SyncAlways fsyncs before every commit acknowledgment — the paper's
	// host-RDBMS durability contract: an acked write survives any crash.
	SyncAlways SyncMode = iota
	// SyncGrouped batches commits and fsyncs at most MaxDelay after the
	// first unsynced append; each commit blocks until its batch's fsync.
	SyncGrouped
	// SyncNever acknowledges immediately and never fsyncs (except on
	// clean Close); a crash may lose any suffix of acked commits, but
	// recovery still yields a checksum-clean prefix.
	SyncNever
)

// SyncPolicy is the pluggable durability knob of the log.
type SyncPolicy struct {
	Mode SyncMode
	// MaxDelay bounds group-commit latency (SyncGrouped only);
	// zero selects 2ms.
	MaxDelay time.Duration
}

// EveryCommit returns the fsync-per-commit policy.
func EveryCommit() SyncPolicy { return SyncPolicy{Mode: SyncAlways} }

// GroupCommit returns a group-commit policy with the given max delay.
func GroupCommit(maxDelay time.Duration) SyncPolicy {
	if maxDelay <= 0 {
		maxDelay = 2 * time.Millisecond
	}
	return SyncPolicy{Mode: SyncGrouped, MaxDelay: maxDelay}
}

// NoSync returns the never-fsync policy.
func NoSync() SyncPolicy { return SyncPolicy{Mode: SyncNever} }

// ParsePolicy parses the command-line spelling of a policy: "always",
// "group", "group=<duration>", or "none".
func ParsePolicy(s string) (SyncPolicy, error) {
	switch {
	case s == "always":
		return EveryCommit(), nil
	case s == "none":
		return NoSync(), nil
	case s == "group":
		return GroupCommit(0), nil
	case strings.HasPrefix(s, "group="):
		d, err := time.ParseDuration(strings.TrimPrefix(s, "group="))
		if err != nil {
			return SyncPolicy{}, fmt.Errorf("wal: bad group delay %q: %v", s, err)
		}
		return GroupCommit(d), nil
	default:
		return SyncPolicy{}, fmt.Errorf("wal: unknown sync policy %q (want always, group[=delay], none)", s)
	}
}

// String renders the policy in its ParsePolicy spelling.
func (p SyncPolicy) String() string {
	switch p.Mode {
	case SyncGrouped:
		if p.MaxDelay > 0 {
			return "group=" + p.MaxDelay.String()
		}
		return "group"
	case SyncNever:
		return "none"
	default:
		return "always"
	}
}

// Log is one append-only record file. Appends are framed and checksummed;
// durability follows the SyncPolicy. A Log whose disk errors becomes sticky
// read-only: the first failure is remembered and every later operation
// fails fast with it, so a store above can degrade gracefully instead of
// journaling into the void.
type Log struct {
	fs     VFS
	name   string
	policy SyncPolicy

	mu         sync.Mutex
	cond       *sync.Cond
	f          File
	appended   int64 // bytes written (buffered or not)
	synced     int64 // bytes known durable
	records    int64
	dirtySince time.Time
	waiters    int   // committers blocked in WaitDurable under SyncGrouped
	err        error // sticky first failure
	closed     bool

	flusherDone chan struct{} // non-nil iff a group-commit flusher runs
	closing     chan struct{} // closed by Close; cuts the flusher's batching delay short
	buf         []byte        // append scratch
}

// CreateLog creates a fresh (truncated) log file. The caller must SyncDir
// afterwards to make the new name durable.
func CreateLog(fsys VFS, name string, policy SyncPolicy) (*Log, error) {
	f, err := fsys.Create(name)
	if err != nil {
		return nil, fmt.Errorf("%w: create %s: %w", ErrIO, name, err)
	}
	return newLog(fsys, name, f, 0, policy), nil
}

// OpenLogAt opens an existing log for appending after recovery decided its
// valid prefix length; the torn/corrupt tail beyond validLen is truncated
// away so new records follow the last good one.
func OpenLogAt(fsys VFS, name string, validLen int64, policy SyncPolicy) (*Log, error) {
	f, err := fsys.OpenAppend(name)
	if err != nil {
		return nil, fmt.Errorf("%w: open %s: %w", ErrIO, name, err)
	}
	if err := f.Truncate(validLen); err != nil {
		f.Close()
		return nil, fmt.Errorf("%w: truncate %s: %w", ErrIO, name, err)
	}
	return newLog(fsys, name, f, validLen, policy), nil
}

func newLog(fsys VFS, name string, f File, size int64, policy SyncPolicy) *Log {
	l := &Log{fs: fsys, name: name, policy: policy, f: f, appended: size, synced: size}
	l.cond = sync.NewCond(&l.mu)
	if policy.Mode == SyncGrouped {
		if l.policy.MaxDelay <= 0 {
			l.policy.MaxDelay = 2 * time.Millisecond
		}
		l.flusherDone = make(chan struct{})
		l.closing = make(chan struct{})
		go l.flusher()
	}
	return l
}

// Append frames payload as one record and writes it, returning the offset a
// commit must be durable to. It does not wait for durability; pair it with
// WaitDurable. The write itself happens under the log's lock, so record
// order is the commit order.
func (l *Log) Append(payload []byte) (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.err != nil {
		return 0, l.err
	}
	l.buf = AppendRecord(l.buf[:0], payload)
	if _, err := l.f.Write(l.buf); err != nil {
		l.failLocked(fmt.Errorf("%w: append %s: %w", ErrIO, l.name, err))
		return 0, l.err
	}
	if l.appended == l.synced {
		l.dirtySince = time.Now()
	}
	l.appended += int64(len(l.buf))
	l.records++
	if l.policy.Mode == SyncGrouped {
		l.cond.Broadcast() // wake the flusher
	}
	return l.appended, nil
}

// WaitDurable blocks until everything up to off is durable under the
// policy: immediately fsyncing (or joining another committer's fsync) for
// SyncAlways, waiting for the group flusher for SyncGrouped (unless this is
// the only pending commit, which fsyncs immediately — a lone committer
// gains nothing from the delay window), and returning at once for SyncNever.
func (l *Log) WaitDurable(off int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch l.policy.Mode {
	case SyncNever:
		return l.err
	case SyncAlways:
		return l.syncLocked(off)
	default: // SyncGrouped
		if l.synced >= off {
			return l.err
		}
		l.waiters++
		// Lone committer at the head of the queue: no other commit is
		// appended or waiting, so nothing can join this batch while we sit
		// out the flusher's delay window — fsync now instead. Concurrent
		// committers arriving during the fsync block on l.mu and piggyback
		// on it (syncLocked syncs to l.appended), so bursts still group.
		if l.waiters == 1 && l.appended == off {
			err := l.syncLocked(off)
			l.waiters--
			l.cond.Broadcast()
			return err
		}
		for l.synced < off && l.err == nil && !l.closed {
			l.cond.Wait()
		}
		l.waiters--
		if l.err != nil {
			return l.err
		}
		if l.synced < off {
			return ErrClosed
		}
		return nil
	}
}

// Sync forces everything appended so far durable regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked(l.appended)
}

// syncLocked fsyncs if off is not yet durable. Callers hold l.mu; a
// concurrent committer blocked on the mutex re-checks synced afterwards and
// piggybacks on this fsync.
func (l *Log) syncLocked(off int64) error {
	if l.err != nil {
		return l.err
	}
	if l.synced >= off {
		return nil
	}
	target := l.appended
	if err := l.f.Sync(); err != nil {
		l.failLocked(fmt.Errorf("%w: fsync %s: %w", ErrIO, l.name, err))
		return l.err
	}
	l.synced = target
	return nil
}

func (l *Log) failLocked(err error) {
	if l.err == nil {
		l.err = err
	}
	l.cond.Broadcast()
}

// flusher is the group-commit loop: it waits for dirt, sleeps until the
// oldest unsynced append is MaxDelay old, fsyncs once for the whole batch,
// and releases every waiting committer.
func (l *Log) flusher() {
	defer close(l.flusherDone)
	for {
		l.mu.Lock()
		for !l.closed && l.err == nil && l.synced >= l.appended {
			l.cond.Wait()
		}
		if l.closed || l.err != nil {
			l.mu.Unlock()
			return
		}
		deadline := l.dirtySince.Add(l.policy.MaxDelay)
		l.mu.Unlock()
		if d := time.Until(deadline); d > 0 {
			// Close syncs everything itself and then waits for this
			// goroutine, so it must not sit out a long MaxDelay.
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-l.closing:
				t.Stop()
			}
		}
		l.mu.Lock()
		l.syncLocked(l.appended)
		l.cond.Broadcast()
		l.mu.Unlock()
	}
}

// Size reports the appended length in bytes.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appended
}

// Records reports how many records this Log value appended.
func (l *Log) Records() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.records
}

// Err returns the sticky failure, if any.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Close makes the log durable (even under SyncNever — a clean shutdown
// must persist) and closes the file.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	serr := l.syncLocked(l.appended)
	l.closed = true
	l.cond.Broadcast()
	done := l.flusherDone
	if l.closing != nil {
		close(l.closing)
	}
	l.mu.Unlock()
	if done != nil {
		<-done
	}
	cerr := l.f.Close()
	if serr != nil {
		return serr
	}
	if cerr != nil {
		return fmt.Errorf("%w: close %s: %w", ErrIO, l.name, cerr)
	}
	return nil
}

// ReplayFile reads name and calls fn for every checksum-valid record in
// order, stopping at the first torn or corrupt record (the crash-truncation
// contract). It returns the byte length of the valid prefix, the record
// count, and whether a damaged tail was truncated. A missing file returns
// fs.ErrNotExist. An error from fn aborts the replay and is returned
// verbatim.
func ReplayFile(fsys VFS, name string, fn func(payload []byte) error) (validLen int64, n int, truncated bool, err error) {
	data, err := fsys.ReadFile(name)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return 0, 0, false, err
		}
		return 0, 0, false, fmt.Errorf("%w: read %s: %w", ErrIO, name, err)
	}
	rest := data
	for {
		payload, r2, rerr := ReadRecord(rest)
		switch {
		case rerr == nil:
		case errors.Is(rerr, io.EOF):
			return validLen, n, false, nil
		case errors.Is(rerr, ErrTorn) || errors.Is(rerr, ErrCorrupt):
			return validLen, n, true, nil
		default:
			return validLen, n, false, rerr
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return validLen, n, false, err
			}
		}
		validLen += int64(len(rest) - len(r2))
		n++
		rest = r2
	}
}
