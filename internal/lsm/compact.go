package lsm

import (
	"fmt"
	"sort"

	"db2graph/internal/graph"
	"db2graph/internal/wal"
)

// Flush freezes the active memtable (if non-empty) and synchronously
// flushes every frozen memtable to level-0 runs, installing a manifest.
// This is the LSM equivalent of a checkpoint: after Flush returns, the
// WAL generations covering the flushed data are prunable.
func (db *DB) Flush() error {
	db.writeMu.Lock()
	if db.closed {
		db.writeMu.Unlock()
		return wal.ErrClosed
	}
	if db.readonly {
		err := db.firstErr
		db.writeMu.Unlock()
		return fmt.Errorf("%w: first failure: %v", ErrReadOnly, err)
	}
	db.verMu.Lock()
	needs := db.cur.mem.entries.Load() > 0
	db.verMu.Unlock()
	var rerr error
	if needs {
		if rerr = db.rotateLocked(); rerr != nil {
			db.degradeLocked(rerr)
		}
	}
	db.writeMu.Unlock()
	if rerr != nil {
		return fmt.Errorf("lsm flush rotate: %w", rerr)
	}
	db.workMu.Lock()
	defer db.workMu.Unlock()
	for {
		did, err := db.flushOne()
		if err != nil {
			return err
		}
		if !did {
			db.refreshGauges()
			return nil
		}
	}
}

// flushOne writes the oldest frozen memtable to a level-0 run, installs a
// manifest referencing it, and swaps in the new version. Caller holds
// workMu. Crash ordering: run content is fsynced by the run writer, and the
// manifest install's rename + directory sync atomically publishes both the
// manifest and the run's name — a crash before that point leaves the old
// manifest and an orphan file that recovery sweeps.
func (db *DB) flushOne() (bool, error) {
	db.verMu.Lock()
	if len(db.cur.imm) == 0 {
		db.verMu.Unlock()
		return false, nil
	}
	mt := db.cur.imm[0]
	runID := db.nextRun
	db.nextRun++
	db.verMu.Unlock()

	var newRun *run
	if mt.entries.Load() > 0 {
		w, err := newRunWriter(db.fsys, db.dir, runID, db.opts.BlockBytes, db.opts.BloomBitsPerKey)
		if err != nil {
			return false, fmt.Errorf("lsm flush: %w", err)
		}
		for it := mt.iter(); it.valid(); it.advance() {
			if err := w.add(it.entry()); err != nil {
				w.abort()
				return false, fmt.Errorf("lsm flush: %w", err)
			}
		}
		if _, err := w.finish(); err != nil {
			w.abort()
			return false, fmt.Errorf("lsm flush: %w", err)
		}
		newRun, err = openRun(db.fsys, db.dir, runID)
		if err != nil {
			return false, fmt.Errorf("lsm flush: reopen: %w", err)
		}
	}

	// Build the manifest from the post-flush state. minWAL is the oldest
	// WAL generation still holding unflushed data; concurrent rotations
	// only append newer generations, so the value stays a safe lower
	// bound between here and install.
	db.verMu.Lock()
	cur := db.cur
	lastSeq := db.flushedSeq
	if mt.maxSeq > lastSeq {
		lastSeq = mt.maxSeq
	}
	minWAL := cur.mem.walGen
	if len(cur.imm) > 1 {
		minWAL = cur.imm[1].walGen
	}
	m := &manifest{
		id:      db.manifestID + 1,
		lastSeq: lastSeq,
		minWAL:  minWAL,
		nextRun: db.nextRun,
	}
	newLevels := make([][]*run, len(cur.levels))
	copy(newLevels, cur.levels)
	if newRun != nil {
		if len(newLevels) == 0 {
			newLevels = append(newLevels, nil)
		}
		l0 := make([]*run, 0, len(newLevels[0])+1)
		l0 = append(l0, newRun)
		l0 = append(l0, newLevels[0]...)
		newLevels[0] = l0
	}
	m.levels = levelIDs(newLevels)
	prevMinWAL := db.curMinWAL
	db.verMu.Unlock()

	if err := writeManifest(db.fsys, db.dir, m); err != nil {
		if newRun != nil {
			newRun.obsolete.Store(true)
			newRun.ra.Close()
			db.fsys.Remove(newRun.path)
		}
		return false, fmt.Errorf("lsm flush manifest: %w", err)
	}

	db.installVersion(func(cur *version) *version {
		return &version{mem: cur.mem, imm: cur.imm[1:], levels: newLevels}
	}, m)
	db.flushes.Add(1)
	db.gcFiles(m, prevMinWAL)
	return true, nil
}

// installVersion swaps in the version built by mk (called with the freshest
// current version, under verMu, to pick up concurrent rotations), records
// manifest bookkeeping, and releases the predecessor.
func (db *DB) installVersion(mk func(cur *version) *version, m *manifest) {
	db.verMu.Lock()
	prev := db.cur
	next := mk(prev)
	next.refs.Store(1)
	next.retainRuns()
	db.cur = next
	db.manifestID = m.id
	db.flushedSeq = m.lastSeq
	db.prevMinWAL = db.curMinWAL
	db.curMinWAL = m.minWAL
	db.stallCond.Broadcast()
	db.verMu.Unlock()
	prev.release()
}

// gcFiles prunes WAL generations and manifests superseded by manifest m,
// keeping the predecessor manifest (and the WAL window it would need) as a
// bit-rot fallback. Best effort.
func (db *DB) gcFiles(m *manifest, prevMinWAL uint64) {
	keepWAL := m.minWAL
	if prevMinWAL > 0 && prevMinWAL < keepWAL {
		keepWAL = prevMinWAL
	}
	_, wals, err := wal.ListGenerations(db.fsys, db.dir)
	if err == nil {
		for _, g := range wals {
			if g < keepWAL {
				db.fsys.Remove(wal.Join(db.dir, wal.WALName(g)))
			}
		}
	}
	if m.id >= 2 {
		db.fsys.Remove(wal.Join(db.dir, manifestName(m.id-2)))
	}
	db.fsys.SyncDir(db.dir)
}

func levelIDs(levels [][]*run) [][]uint64 {
	out := make([][]uint64, len(levels))
	for i, lvl := range levels {
		out[i] = make([]uint64, len(lvl))
		for j, r := range lvl {
			out[i][j] = r.id
		}
	}
	return out
}

// compactTask names the inputs and destination of one compaction.
type compactTask struct {
	runs   []*run          // input runs, newest-first across levels
	inputs map[uint64]bool // ids of the inputs
	out    int             // destination level
	bottom bool            // no level below out overlaps the key range
}

func levelTarget(opts Options, level int) int64 {
	t := opts.LevelBaseBytes
	for i := 1; i < level; i++ {
		t *= int64(opts.LevelGrowth)
	}
	return t
}

func levelBytes(lvl []*run) int64 {
	var total int64
	for _, r := range lvl {
		total += r.meta.logicalBytes
	}
	return total
}

// pickCompact selects the next compaction, or nil when the tree is in
// shape. L0 compacts by run count (its runs overlap), deeper levels by
// size target.
func (db *DB) pickCompact() *compactTask {
	db.verMu.Lock()
	defer db.verMu.Unlock()
	v := db.cur
	if len(v.levels) > 0 && len(v.levels[0]) >= db.opts.L0CompactTrigger {
		return db.taskLocked(v, 0, v.levels[0])
	}
	for i := 1; i < len(v.levels) && i < maxLevels-1; i++ {
		if levelBytes(v.levels[i]) > levelTarget(db.opts, i) && len(v.levels[i]) > 0 {
			return db.taskLocked(v, i, v.levels[i][:1])
		}
	}
	return nil
}

// taskLocked builds the task compacting seed runs from level `from` plus
// every overlapping run one level down.
func (db *DB) taskLocked(v *version, from int, seed []*run) *compactTask {
	t := &compactTask{out: from + 1, inputs: map[uint64]bool{}}
	minKey, maxKey := seed[0].meta.minKey, seed[0].meta.maxKey
	for _, r := range seed {
		if r.meta.minKey < minKey {
			minKey = r.meta.minKey
		}
		if r.meta.maxKey > maxKey {
			maxKey = r.meta.maxKey
		}
		t.runs = append(t.runs, r)
		t.inputs[r.id] = true
	}
	if t.out < len(v.levels) {
		for _, r := range v.levels[t.out] {
			if r.meta.minKey <= maxKey && r.meta.maxKey >= minKey {
				t.runs = append(t.runs, r)
				t.inputs[r.id] = true
				if r.meta.minKey < minKey {
					minKey = r.meta.minKey
				}
				if r.meta.maxKey > maxKey {
					maxKey = r.meta.maxKey
				}
			}
		}
	}
	t.bottom = true
	for li := t.out + 1; li < len(v.levels); li++ {
		for _, r := range v.levels[li] {
			if r.meta.minKey <= maxKey && r.meta.maxKey >= minKey {
				t.bottom = false
			}
		}
	}
	return t
}

// snapBounds returns the live snapshot sequences, sorted ascending. These
// partition sequence history into buckets; compaction keeps the newest
// version of each key per bucket (every snapshot in a bucket observes that
// version), and everything newer than the last boundary collapses to the
// single newest version.
func (db *DB) snapBounds() []uint64 {
	db.verMu.Lock()
	bounds := make([]uint64, 0, len(db.snaps))
	for s := range db.snaps {
		bounds = append(bounds, s)
	}
	db.verMu.Unlock()
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	return bounds
}

// bucketOf maps seq to its retention bucket: the index of the first
// boundary >= seq, with len(bounds) acting as the unbounded newest bucket.
func bucketOf(bounds []uint64, seq uint64) int {
	lo, hi := 0, len(bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if bounds[mid] < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// compactOut splits retained entries into output runs, cutting only at user
// key boundaries so one key's version chain never spans two runs (point
// lookups probe a single run per level).
type compactOut struct {
	db      *DB
	w       *runWriter
	wBytes  int64
	ids     []uint64
	lastKey string
}

func (o *compactOut) add(e entry) error {
	if o.w != nil && o.wBytes >= o.db.opts.RunBytes && e.key != o.lastKey {
		if err := o.closeRun(); err != nil {
			return err
		}
	}
	if o.w == nil {
		o.db.verMu.Lock()
		id := o.db.nextRun
		o.db.nextRun++
		o.db.verMu.Unlock()
		w, err := newRunWriter(o.db.fsys, o.db.dir, id, o.db.opts.BlockBytes, o.db.opts.BloomBitsPerKey)
		if err != nil {
			return err
		}
		o.w = w
		o.wBytes = 0
		o.ids = append(o.ids, id)
	}
	o.lastKey = e.key
	o.wBytes += int64(len(e.key) + len(e.value))
	return o.w.add(e)
}

func (o *compactOut) closeRun() error {
	if o.w == nil {
		return nil
	}
	_, err := o.w.finish()
	if err != nil {
		o.w.abort()
		return err
	}
	o.w = nil
	return nil
}

func (o *compactOut) abort() {
	if o.w != nil {
		o.w.abort()
		o.w = nil
	}
	for _, id := range o.ids {
		o.db.fsys.Remove(wal.Join(o.db.dir, runName(id)))
	}
}

// doCompact merges the task's input runs, garbage-collects shadowed
// versions and dead tombstones, writes the surviving entries to runs at the
// destination level, and installs the new manifest + version. Caller holds
// workMu.
func (db *DB) doCompact(t *compactTask) error {
	bounds := db.snapBounds()
	srcs := make([]iterator, len(t.runs))
	for i, r := range t.runs {
		srcs[i] = r.iter(db.cache)
	}
	merged := newMergeIter(srcs)
	out := &compactOut{db: db}

	// Retention: buffer one key's surviving versions (newest first), then
	// emit. A version is dropped when a newer version of the same key
	// already serves its bucket. At the bottom of the tree a trailing
	// tombstone suffix is dead weight — nothing older exists anywhere —
	// and is dropped entirely.
	var kept []entry
	lastBucket := -1
	curKey := ""
	haveKey := false
	emitKey := func() error {
		if t.bottom {
			for len(kept) > 0 && kept[len(kept)-1].kind == kindDelete {
				kept = kept[:len(kept)-1]
			}
		}
		for _, e := range kept {
			if err := out.add(e); err != nil {
				return err
			}
		}
		kept = kept[:0]
		return nil
	}
	for merged.valid() {
		e := merged.entry()
		if !haveKey || e.key != curKey {
			if err := emitKey(); err != nil {
				out.abort()
				return fmt.Errorf("lsm compact: %w", err)
			}
			curKey, haveKey = e.key, true
			lastBucket = -1
		}
		b := bucketOf(bounds, e.seq)
		if b != lastBucket {
			kept = append(kept, e)
			lastBucket = b
		}
		if err := merged.advance(); err != nil {
			out.abort()
			return fmt.Errorf("lsm compact: %w", err)
		}
	}
	if merged.err != nil {
		out.abort()
		return fmt.Errorf("lsm compact: %w", merged.err)
	}
	if err := emitKey(); err != nil {
		out.abort()
		return fmt.Errorf("lsm compact: %w", err)
	}
	if err := out.closeRun(); err != nil {
		out.abort()
		return fmt.Errorf("lsm compact: %w", err)
	}

	newRuns := make([]*run, 0, len(out.ids))
	for _, id := range out.ids {
		r, err := openRun(db.fsys, db.dir, id)
		if err != nil {
			for _, nr := range newRuns {
				nr.ra.Close()
			}
			out.abort()
			return fmt.Errorf("lsm compact reopen: %w", err)
		}
		newRuns = append(newRuns, r)
	}

	// Assemble the post-compaction level layout and manifest.
	db.verMu.Lock()
	cur := db.cur
	nLevels := len(cur.levels)
	if t.out >= nLevels {
		nLevels = t.out + 1
	}
	newLevels := make([][]*run, nLevels)
	for li := range newLevels {
		var src []*run
		if li < len(cur.levels) {
			src = cur.levels[li]
		}
		for _, r := range src {
			if !t.inputs[r.id] {
				newLevels[li] = append(newLevels[li], r)
			}
		}
	}
	newLevels[t.out] = append(newLevels[t.out], newRuns...)
	sort.Slice(newLevels[t.out], func(i, j int) bool {
		return newLevels[t.out][i].meta.minKey < newLevels[t.out][j].meta.minKey
	})
	for len(newLevels) > 1 && len(newLevels[len(newLevels)-1]) == 0 {
		newLevels = newLevels[:len(newLevels)-1]
	}
	m := &manifest{
		id:      db.manifestID + 1,
		lastSeq: db.flushedSeq,
		minWAL:  db.curMinWAL,
		nextRun: db.nextRun,
		levels:  levelIDs(newLevels),
	}
	if m.minWAL == 0 {
		m.minWAL = 1
	}
	prevMinWAL := db.curMinWAL
	db.verMu.Unlock()

	if err := writeManifest(db.fsys, db.dir, m); err != nil {
		for _, nr := range newRuns {
			nr.ra.Close()
			db.fsys.Remove(nr.path)
		}
		return fmt.Errorf("lsm compact manifest: %w", err)
	}

	// Mark the inputs obsolete BEFORE installing the successor: the install
	// drops the previous version's run references, and unref only deletes a
	// file when the refcount hits zero with obsolete already set. The runs
	// cannot vanish early — the current version (pinned by the DB until the
	// install's release) still holds a reference to each of them.
	for _, r := range t.runs {
		r.obsolete.Store(true)
	}
	db.installVersion(func(cur *version) *version {
		return &version{mem: cur.mem, imm: cur.imm, levels: newLevels}
	}, m)
	db.compactions.Add(1)
	db.gcFiles(m, prevMinWAL)
	return nil
}

// CompactAll flushes everything and merges the entire run set into the
// bottom-most level — full tombstone garbage collection. Primarily a test
// and maintenance hook.
func (db *DB) CompactAll() error {
	if err := db.Flush(); err != nil {
		return err
	}
	db.workMu.Lock()
	defer db.workMu.Unlock()
	db.verMu.Lock()
	v := db.cur
	var runs []*run
	deepest := 0
	for li, lvl := range v.levels {
		for _, r := range lvl {
			runs = append(runs, r)
		}
		if len(lvl) > 0 && li > deepest {
			deepest = li
		}
	}
	db.verMu.Unlock()
	if len(runs) == 0 {
		return nil
	}
	out := deepest
	if out == 0 {
		out = 1
	}
	t := &compactTask{runs: runs, out: out, bottom: true, inputs: map[uint64]bool{}}
	for _, r := range runs {
		t.inputs[r.id] = true
	}
	if err := db.doCompact(t); err != nil {
		return err
	}
	db.refreshGauges()
	return nil
}

// background is the flush/compaction worker: woken by rotations and
// installs, it drains all pending work, then sleeps. A failed flush or
// compaction is retried on the next wake-up; the error is surfaced via
// Stats and stalled writers are released (the engine keeps accepting
// writes — the WAL still makes them durable — at the cost of memory
// growth until the disk recovers).
func (db *DB) background() {
	defer db.bgDone.Done()
	for {
		select {
		case <-db.stop:
			return
		case <-db.wake:
		}
		for {
			select {
			case <-db.stop:
				return
			default:
			}
			db.workMu.Lock()
			did, err := db.bgStep()
			db.workMu.Unlock()
			if err != nil {
				db.bgErr.Store(bgErrBox{err})
				db.verMu.Lock()
				db.stallCond.Broadcast()
				db.verMu.Unlock()
				break
			}
			if !did {
				db.bgErr.Store(bgErrBox{})
				break
			}
		}
		db.refreshGauges()
	}
}

func (db *DB) bgStep() (bool, error) {
	did, err := db.flushOne()
	if did || err != nil {
		return did, err
	}
	t := db.pickCompact()
	if t == nil {
		return false, nil
	}
	return true, db.doCompact(t)
}

// LevelStats describes one level of the tree.
type LevelStats struct {
	Runs    int   `json:"runs"`
	Bytes   int64 `json:"bytes"`
	Entries int64 `json:"entries"`
}

// Stats is a point-in-time snapshot of engine internals, cheap enough to
// poll: it takes only the version lock, never the write lock.
type Stats struct {
	Seq                uint64           `json:"seq"`
	FlushedSeq         uint64           `json:"flushed_seq"`
	MemtableBytes      int64            `json:"memtable_bytes"`
	MemtableEntries    int64            `json:"memtable_entries"`
	ImmutableMemtables int              `json:"immutable_memtables"`
	Levels             []LevelStats     `json:"levels"`
	CompactionBacklog  int              `json:"compaction_backlog"`
	Flushes            int64            `json:"flushes"`
	Compactions        int64            `json:"compactions"`
	BloomChecks        int64            `json:"bloom_checks"`
	BloomNegatives     int64            `json:"bloom_negatives"`
	BloomHitRate       float64          `json:"bloom_hit_rate"` // fraction of probes that skipped a block read
	ReadErrors         int64            `json:"read_errors"`    // reads/scans that hit I/O or corruption errors
	BlockCache         graph.CacheStats `json:"block_cache"`
	LiveSnapshots      int              `json:"live_snapshots"`
	WALGeneration      uint64           `json:"wal_generation"`
	ManifestID         uint64           `json:"manifest_id"`
	ReadOnly           bool             `json:"read_only"`
	BackgroundError    string           `json:"background_error,omitempty"`
}

// Stats reports engine internals and refreshes the lsm_* gauges.
func (db *DB) Stats() Stats {
	db.verMu.Lock()
	v := db.cur
	v.refs.Add(1)
	st := Stats{
		Seq:                db.seq.Load(),
		FlushedSeq:         db.flushedSeq,
		ImmutableMemtables: len(v.imm),
		LiveSnapshots:      len(db.snaps),
		ManifestID:         db.manifestID,
	}
	db.verMu.Unlock()
	defer v.release()

	st.MemtableBytes = v.mem.bytes.Load()
	st.MemtableEntries = v.mem.entries.Load()
	for _, m := range v.imm {
		st.MemtableBytes += m.bytes.Load()
		st.MemtableEntries += m.entries.Load()
	}
	st.Levels = make([]LevelStats, len(v.levels))
	for i, lvl := range v.levels {
		st.Levels[i].Runs = len(lvl)
		for _, r := range lvl {
			st.Levels[i].Bytes += r.meta.logicalBytes
			st.Levels[i].Entries += r.meta.numEntries
		}
	}
	st.CompactionBacklog = db.backlog(v)
	st.Flushes = db.flushes.Load()
	st.Compactions = db.compactions.Load()
	st.BloomChecks = db.rstats.bloomChecks.Load()
	st.BloomNegatives = db.rstats.bloomNegatives.Load()
	if st.BloomChecks > 0 {
		st.BloomHitRate = float64(st.BloomNegatives) / float64(st.BloomChecks)
	}
	st.ReadErrors = db.rstats.readErrs.Load()
	st.BlockCache = db.cache.Stats()
	st.WALGeneration = db.walGenSnapshot()
	st.ReadOnly = db.roFlag.Load()
	if box, _ := db.bgErr.Load().(bgErrBox); box.err != nil {
		st.BackgroundError = box.err.Error()
	}
	db.publishGauges(st)
	return st
}

// bgErrBox wraps the last background error so atomic.Value always stores a
// consistent concrete type (including "no error").
type bgErrBox struct{ err error }

func (db *DB) walGenSnapshot() uint64 {
	db.verMu.Lock()
	defer db.verMu.Unlock()
	// The active memtable's creation generation equals the active WAL
	// generation, and is safe to read under verMu.
	return db.cur.mem.walGen
}

func (db *DB) backlog(v *version) int {
	b := len(v.imm)
	if len(v.levels) > 0 && len(v.levels[0]) >= db.opts.L0CompactTrigger {
		b += len(v.levels[0]) - db.opts.L0CompactTrigger + 1
	}
	for i := 1; i < len(v.levels) && i < maxLevels-1; i++ {
		if levelBytes(v.levels[i]) > levelTarget(db.opts, i) {
			b++
		}
	}
	return b
}

func (db *DB) refreshGauges() { db.publishGauges(db.statsLight()) }

func (db *DB) statsLight() Stats {
	db.verMu.Lock()
	v := db.cur
	v.refs.Add(1)
	st := Stats{
		Seq:                db.seq.Load(),
		ImmutableMemtables: len(v.imm),
		LiveSnapshots:      len(db.snaps),
		ManifestID:         db.manifestID,
	}
	db.verMu.Unlock()
	defer v.release()
	st.MemtableBytes = v.mem.bytes.Load()
	st.Levels = make([]LevelStats, len(v.levels))
	for i, lvl := range v.levels {
		st.Levels[i].Runs = len(lvl)
		for _, r := range lvl {
			st.Levels[i].Bytes += r.meta.logicalBytes
		}
	}
	st.CompactionBacklog = db.backlog(v)
	st.Flushes = db.flushes.Load()
	st.Compactions = db.compactions.Load()
	st.BloomChecks = db.rstats.bloomChecks.Load()
	st.BloomNegatives = db.rstats.bloomNegatives.Load()
	st.ReadErrors = db.rstats.readErrs.Load()
	st.WALGeneration = db.walGenSnapshot()
	st.ReadOnly = db.roFlag.Load()
	return st
}

func (db *DB) publishGauges(st Stats) {
	g := &db.gauges
	g.memBytes.Set(st.MemtableBytes)
	g.immCount.Set(int64(st.ImmutableMemtables))
	g.seq.Set(int64(st.Seq))
	g.backlog.Set(int64(st.CompactionBacklog))
	g.snapshots.Set(int64(st.LiveSnapshots))
	g.flushes.Set(st.Flushes)
	g.compacts.Set(st.Compactions)
	g.bloomChk.Set(st.BloomChecks)
	g.bloomNeg.Set(st.BloomNegatives)
	g.readErrs.Set(st.ReadErrors)
	g.walGen.Set(int64(st.WALGeneration))
	g.manifest.Set(int64(st.ManifestID))
	if st.ReadOnly {
		g.readonly.Set(1)
	} else {
		g.readonly.Set(0)
	}
	for i := 0; i < maxLevels; i++ {
		if i < len(st.Levels) {
			g.runs[i].Set(int64(st.Levels[i].Runs))
			g.runBytes[i].Set(st.Levels[i].Bytes)
		} else {
			g.runs[i].Set(0)
			g.runBytes[i].Set(0)
		}
	}
}
