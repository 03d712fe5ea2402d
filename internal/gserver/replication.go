// Primary→follower replication: the gserver wire surface for shard HA.
//
// A replicated shard is a pair of gservers over identically-seeded backends.
// The primary serializes every accepted mutation into an oplog — a
// wal-format record log of seq-stamped graph ops — and streams it to the
// follower over a long-lived "!replicate" subscription (the oplog is tailed
// with wal.StreamFrom). The follower applies each op through the backend's
// normal mutation path (idempotently: ops at or below its last applied seq
// are skipped), appends it to its own oplog so it can serve as a
// replication source after promotion, and acknowledges the applied seq back
// on the same connection.
//
// Replication is synchronous while a follower is subscribed: a mutation is
// acknowledged to the client only after the follower acked its seq, so every
// acknowledged write survives promotion. If no follower is subscribed the
// primary degrades to async (single-node operation); writes that time out
// waiting for a follower ack fail with CodeReplicaTimeout and are
// indeterminate — applied locally, possibly replicated — exactly the
// bounded, typed lost-ack window the failover suite asserts.
//
// Fencing: every server carries a replication epoch. Coordinator writes
// carry the epoch they believe current; a server rejects mutations whose
// epoch differs from its own with CodeFenced, and "!fence <epoch>" marks a
// deposed primary so even epoch-less direct writes are refused. "!promote
// <epoch>" seals a follower's subscription and flips it read-write at the
// new epoch.
package gserver

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"db2graph/internal/graph"
	"db2graph/internal/telemetry"
	"db2graph/internal/wal"
)

// Replication roles.
const (
	RolePrimary  = "primary"
	RoleFollower = "follower"
)

// ReplicationConfig configures a server as a replicated-shard member.
type ReplicationConfig struct {
	// Role is RolePrimary or RoleFollower (default RolePrimary).
	Role string
	// Epoch is the starting replication epoch (default 1).
	Epoch uint64
	// PrimaryAddr is the primary this follower subscribes to (followers
	// only).
	PrimaryAddr string
	// VFS/Dir locate the oplog. Nil uses a private in-memory VFS — the
	// oplog's job is streaming, not durability; a follower re-seeds from its
	// primary, not from its own oplog.
	VFS wal.VFS
	Dir string
	// AckTimeout bounds how long a primary write waits for the follower's
	// ack before failing with CodeReplicaTimeout (default 2s; negative
	// disables the wait — fully async).
	AckTimeout time.Duration
	// Poll is the oplog tail poll interval for the outbound stream (default
	// 2ms).
	Poll time.Duration
}

// repOp is one replicated mutation, the oplog record payload (JSON).
type repOp struct {
	Seq    uint64       `json:"seq"`
	Method string       `json:"method"` // OpAddVertex or OpAddEdge
	El     *WireElement `json:"el"`
	// OutV/InV carry full endpoint elements for AddEdge so the applier can
	// upsert ghost endpoints on shards that do not own them.
	OutV *WireElement `json:"outv,omitempty"`
	InV  *WireElement `json:"inv,omitempty"`
}

// repFrame is one line of the "!replicate" stream, primary → follower.
type repFrame struct {
	// Type is "op" (Op set), "hb" (heartbeat), or "err" (Code/Error set;
	// terminal).
	Type string `json:"type"`
	Op   *repOp `json:"op,omitempty"`
	// Off is the oplog cursor offset just past Op — echoed back in acks so
	// the primary can report byte lag.
	Off int64 `json:"off,omitempty"`
	// EndSeq/EndOff describe the primary's oplog end at send time; the
	// follower derives its replication lag from them.
	EndSeq uint64 `json:"end_seq"`
	EndOff int64  `json:"end_off"`
	Code   string `json:"code,omitempty"`
	Error  string `json:"error,omitempty"`
}

// repAck is one line of the "!replicate" stream, follower → primary.
type repAck struct {
	AckSeq uint64 `json:"ack_seq"`
	AckOff int64  `json:"ack_off"`
}

// repState is the replication half of a Server.
type repState struct {
	mu   sync.Mutex
	cond *sync.Cond // broadcast on ackedSeq/role/subscriber changes

	role   string
	epoch  uint64
	fenced bool

	// wmu serializes mutations so oplog seq order is apply order.
	wmu sync.Mutex
	mut graph.Mutable

	fsys wal.VFS
	dir  string
	log  *wal.Log

	seq      uint64 // last seq appended to the oplog (mutations + replicated)
	ackedSeq uint64 // highest seq acked by the subscribed follower
	ackedOff int64
	subs     int // live "!replicate" subscriptions

	// Follower-side stream position, for lag reporting.
	primaryEndSeq uint64
	primaryEndOff int64
	lastOff       int64

	ackTimeout time.Duration
	poll       time.Duration

	replicaCancel context.CancelFunc // stops the follower loop on promote/close
	replicaDone   chan struct{}

	// Telemetry.
	lagRecords *telemetry.Gauge
	lagBytes   *telemetry.Gauge
	epochG     *telemetry.Gauge
	connects   *telemetry.Counter
	applied    *telemetry.Counter
	timeouts   *telemetry.Counter
}

// initReplication builds the repState for a server, creating the oplog.
func (s *Server) initReplication(rc *ReplicationConfig) error {
	role := rc.Role
	if role == "" {
		role = RolePrimary
	}
	if role != RolePrimary && role != RoleFollower {
		return fmt.Errorf("gserver: unknown replication role %q", rc.Role)
	}
	epoch := rc.Epoch
	if epoch == 0 {
		epoch = 1
	}
	fsys, dir := rc.VFS, rc.Dir
	if fsys == nil {
		fsys, dir = wal.NewMemVFS(), "oplog"
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return fmt.Errorf("gserver: oplog dir: %w", err)
	}
	log, err := wal.CreateLog(fsys, wal.Join(dir, wal.WALName(1)), wal.EveryCommit())
	if err != nil {
		return err
	}
	if err := fsys.SyncDir(dir); err != nil {
		log.Close()
		return err
	}
	rs := &repState{
		role: role, epoch: epoch,
		fsys: fsys, dir: dir, log: log,
		ackTimeout: rc.AckTimeout, poll: rc.Poll,
	}
	rs.cond = sync.NewCond(&rs.mu)
	if rs.ackTimeout == 0 {
		rs.ackTimeout = 2 * time.Second
	}
	if rs.poll <= 0 {
		rs.poll = 2 * time.Millisecond
	}
	rs.mut = s.mutator()
	if rs.mut == nil {
		log.Close()
		return errors.New("gserver: replication requires a mutable backend (Config.Mutator or a backend implementing graph.Mutable)")
	}
	rs.lagRecords = s.reg.Gauge("gserver_replication_lag_records")
	rs.lagBytes = s.reg.Gauge("gserver_replication_lag_bytes")
	rs.epochG = s.reg.Gauge("gserver_replication_epoch")
	rs.connects = s.reg.Counter("gserver_replica_connects_total")
	rs.applied = s.reg.Counter("gserver_replica_applied_total")
	rs.timeouts = s.reg.Counter("gserver_replica_ack_timeouts_total")
	rs.epochG.Set(int64(epoch))
	s.rep = rs
	if role == RoleFollower {
		if rc.PrimaryAddr == "" {
			log.Close()
			return errors.New("gserver: follower role requires PrimaryAddr")
		}
		ctx, cancel := context.WithCancel(context.Background())
		rs.replicaCancel = cancel
		rs.replicaDone = make(chan struct{})
		go s.runReplica(ctx, rc.PrimaryAddr)
	}
	return nil
}

// mutator resolves the server's mutation path: the explicitly configured
// one, or the backend itself (unwrapped through decorators) when it is
// mutable.
func (s *Server) mutator() graph.Mutable {
	if s.cfg.Mutator != nil {
		return s.cfg.Mutator
	}
	b := s.src.Backend
	for {
		if m, ok := b.(graph.Mutable); ok {
			return m
		}
		u, ok := b.(interface{ Unwrap() graph.Backend })
		if !ok {
			return nil
		}
		b = u.Unwrap()
	}
}

// closeReplication stops the follower loop and seals the oplog.
func (s *Server) closeReplication() {
	rs := s.rep
	if rs == nil {
		return
	}
	rs.mu.Lock()
	cancel, done := rs.replicaCancel, rs.replicaDone
	rs.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	if done != nil {
		<-done
	}
	rs.log.Close()
}

// checkWritable decides whether this server may accept a mutation carrying
// epoch (0 means "no epoch check" — direct single-node clients).
func (rs *repState) checkWritable(epoch uint64) *Response {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	switch {
	case rs.fenced:
		return &Response{Code: CodeFenced, Error: fmt.Sprintf("server fenced at epoch %d", rs.epoch)}
	case rs.role != RolePrimary:
		return &Response{Code: CodeNotPrimary, Error: "server is a replication follower; write to the primary"}
	case epoch != 0 && epoch != rs.epoch:
		return &Response{Code: CodeFenced, Error: fmt.Sprintf("write epoch %d does not match server epoch %d", epoch, rs.epoch)}
	}
	return nil
}

// applyMutation executes an AddVertex/AddEdge graph op: role/epoch checks,
// ghost-endpoint upsert, backend apply, oplog append, and — while a
// follower is subscribed — waiting for its ack (synchronous replication).
func (s *Server) applyMutation(ctx context.Context, op *GraphOp) Response {
	mut := s.mutator()
	if mut == nil {
		return Response{Code: CodeBadRequest, Error: "server backend is read-only (no mutation path configured)"}
	}
	rs := s.rep
	if rs == nil {
		// Unreplicated server: plain apply, epoch ignored.
		if err := applyOp(ctx, s.batch, mut, &repOp{Method: op.Method, El: op.Element, OutV: op.OutVElement, InV: op.InVElement}); err != nil {
			return errorResponse(err)
		}
		return Response{Results: []any{"ok"}}
	}
	if resp := rs.checkWritable(op.Epoch); resp != nil {
		return *resp
	}

	rs.wmu.Lock()
	// Re-check under the write lock: a promote/fence racing the admission
	// check must not slip a stale write in.
	if resp := rs.checkWritable(op.Epoch); resp != nil {
		rs.wmu.Unlock()
		return *resp
	}
	rop := &repOp{Method: op.Method, El: op.Element, OutV: op.OutVElement, InV: op.InVElement}
	if err := applyOp(ctx, s.batch, rs.mut, rop); err != nil {
		rs.wmu.Unlock()
		return errorResponse(err)
	}
	rs.mu.Lock()
	rs.seq++
	rop.Seq = rs.seq
	rs.mu.Unlock()
	enc, err := json.Marshal(rop)
	if err == nil {
		_, err = rs.log.Append(enc)
	}
	rs.wmu.Unlock()
	if err != nil {
		return errorResponse(err)
	}
	if resp := rs.waitReplicated(ctx, rop.Seq); resp != nil {
		return *resp
	}
	return Response{Results: []any{"ok"}}
}

// waitReplicated blocks until the subscribed follower acked seq. With no
// subscriber the primary is in single-node (async) operation and the write
// is acknowledged immediately. Returns a non-nil response on timeout.
func (rs *repState) waitReplicated(ctx context.Context, seq uint64) *Response {
	if rs.ackTimeout < 0 {
		return nil
	}
	deadline := time.Now().Add(rs.ackTimeout)
	if dl, ok := ctx.Deadline(); ok && dl.Before(deadline) {
		deadline = dl
	}
	timer := time.AfterFunc(time.Until(deadline), func() {
		rs.mu.Lock()
		rs.cond.Broadcast()
		rs.mu.Unlock()
	})
	defer timer.Stop()
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for rs.subs > 0 && rs.ackedSeq < seq {
		if time.Now().After(deadline) {
			rs.timeouts.Inc()
			return &Response{Code: CodeReplicaTimeout, Error: fmt.Sprintf(
				"write %d applied locally but not acknowledged by the follower within %v (indeterminate)", seq, rs.ackTimeout)}
		}
		rs.cond.Wait()
	}
	return nil
}

// applyOp applies one replicated op through the backend mutation path. For
// AddEdge, endpoints missing on this shard are upserted first from the
// carried wire elements (the dual-homed edge placement contract: a shard
// holds ghost copies of foreign endpoints).
func applyOp(ctx context.Context, b graph.BatchBackend, mut graph.Mutable, op *repOp) error {
	switch op.Method {
	case OpAddVertex:
		if op.El == nil {
			return errors.New("gserver: AddVertex without element")
		}
		return mut.AddVertex(op.El.FromWire())
	case OpAddEdge:
		if op.El == nil {
			return errors.New("gserver: AddEdge without element")
		}
		edge := op.El.FromWire()
		for _, end := range []*WireElement{op.OutV, op.InV} {
			if end == nil {
				continue
			}
			present, err := b.VerticesByIDs(ctx, []string{end.ID}, nil)
			if err != nil {
				return err
			}
			if len(present) == 0 || present[0] == nil {
				if err := mut.AddVertex(end.FromWire()); err != nil {
					return err
				}
			}
		}
		return mut.AddEdge(edge)
	default:
		return fmt.Errorf("gserver: unknown mutation op %q", op.Method)
	}
}

// ---- Control requests -------------------------------------------------

// promote handles "!promote <epoch>": seals the follower's inbound
// subscription and flips it read-write at the new epoch. On a server that is
// already primary it only advances the epoch (idempotent re-delivery).
func (s *Server) promote(arg string) Response {
	rs := s.rep
	if rs == nil {
		return Response{Code: CodeBadRequest, Error: "server is not replication-configured"}
	}
	epoch, err := strconv.ParseUint(strings.TrimSpace(arg), 10, 64)
	if err != nil || epoch == 0 {
		return Response{Code: CodeBadRequest, Error: fmt.Sprintf("bad promote epoch %q", arg)}
	}
	rs.mu.Lock()
	if rs.fenced {
		rs.mu.Unlock()
		return Response{Code: CodeFenced, Error: "cannot promote a fenced server"}
	}
	if epoch < rs.epoch {
		cur := rs.epoch
		rs.mu.Unlock()
		return Response{Code: CodeFenced, Error: fmt.Sprintf("promote epoch %d below server epoch %d", epoch, cur)}
	}
	rs.role = RolePrimary
	rs.epoch = epoch
	rs.epochG.Set(int64(epoch))
	cancel := rs.replicaCancel
	rs.replicaCancel = nil
	seq := rs.seq
	rs.cond.Broadcast()
	rs.mu.Unlock()
	if cancel != nil {
		cancel() // seal the subscription; the loop exits without reconnecting
	}
	return Response{Results: []any{fmt.Sprintf("promoted to primary at epoch %d, last applied seq %d", epoch, seq)}}
}

// fence handles "!fence <epoch>": a deposed primary learns a higher epoch
// exists and must refuse all further writes. Fencing at or below the
// server's own epoch is rejected so a stale fence cannot kill the current
// primary.
func (s *Server) fence(arg string) Response {
	rs := s.rep
	if rs == nil {
		return Response{Code: CodeBadRequest, Error: "server is not replication-configured"}
	}
	epoch, err := strconv.ParseUint(strings.TrimSpace(arg), 10, 64)
	if err != nil {
		return Response{Code: CodeBadRequest, Error: fmt.Sprintf("bad fence epoch %q", arg)}
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if epoch <= rs.epoch && !rs.fenced {
		return Response{Code: CodeBadRequest, Error: fmt.Sprintf(
			"fence epoch %d not above server epoch %d", epoch, rs.epoch)}
	}
	rs.fenced = true
	rs.cond.Broadcast()
	return Response{Results: []any{fmt.Sprintf("fenced (cluster moved to epoch %d)", epoch)}}
}

// ---- Primary side: the "!replicate" stream ----------------------------

// serveReplication hijacks conn into a replication stream after a
// "!replicate <fromSeq>" request: records stream out, acks stream in, and
// heartbeats flow whenever the log is quiet so the follower can track lag.
// It returns when the connection dies or the server closes.
func (s *Server) serveReplication(conn net.Conn, r *bufio.Reader, w *bufio.Writer, arg string) {
	writeFrame := func(f repFrame) bool {
		data, err := json.Marshal(f)
		if err != nil {
			return false
		}
		// No write deadline: a partitioned follower's connection backs up
		// until the partition heals (or the server closes the conn), exactly
		// like a stalled TCP window — the subscription survives the fault.
		conn.SetWriteDeadline(time.Time{})
		if _, err := w.Write(append(data, '\n')); err != nil {
			return false
		}
		return w.Flush() == nil
	}
	rs := s.rep
	if rs == nil {
		writeFrame(repFrame{Type: "err", Code: CodeBadRequest, Error: "server is not replication-configured"})
		return
	}
	fromSeq, err := strconv.ParseUint(strings.TrimSpace(arg), 10, 64)
	if arg != "" && err != nil {
		writeFrame(repFrame{Type: "err", Code: CodeBadRequest, Error: fmt.Sprintf("bad from_seq %q", arg)})
		return
	}
	rs.mu.Lock()
	if rs.fenced {
		rs.mu.Unlock()
		writeFrame(repFrame{Type: "err", Code: CodeFenced, Error: "fenced server cannot serve replication"})
		return
	}
	if rs.role != RolePrimary {
		rs.mu.Unlock()
		writeFrame(repFrame{Type: "err", Code: CodeNotPrimary, Error: "replication source must be the primary"})
		return
	}
	rs.subs++
	rs.mu.Unlock()
	defer func() {
		rs.mu.Lock()
		rs.subs--
		rs.cond.Broadcast() // waiters degrade to async when the follower is gone
		rs.mu.Unlock()
	}()

	// Ack reader: every follower ack releases synchronous committers.
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	go func() {
		defer cancel()
		// The request loop's reader: it may already hold buffered acks.
		dec := json.NewDecoder(r)
		for {
			var ack repAck
			conn.SetReadDeadline(time.Time{})
			if err := dec.Decode(&ack); err != nil {
				return
			}
			rs.mu.Lock()
			if ack.AckSeq > rs.ackedSeq {
				rs.ackedSeq = ack.AckSeq
				rs.ackedOff = ack.AckOff
				rs.cond.Broadcast()
			}
			rs.mu.Unlock()
		}
	}()

	cur := wal.Cursor{}
	ticker := time.NewTicker(rs.poll)
	defer ticker.Stop()
	hbEvery := 50 // heartbeat roughly every 50 polls of a quiet log
	quiet := 0
	for {
		sent := 0
		next, serr := wal.StreamFrom(rs.fsys, rs.dir, cur, func(payload []byte, nc wal.Cursor) error {
			var op repOp
			if err := json.Unmarshal(payload, &op); err != nil {
				return err
			}
			if op.Seq <= fromSeq {
				return nil
			}
			rs.mu.Lock()
			endSeq := rs.seq
			rs.mu.Unlock()
			sent++
			if !writeFrame(repFrame{Type: "op", Op: &op, Off: nc.Off, EndSeq: endSeq, EndOff: rs.log.Size()}) {
				return errStreamClosed
			}
			return nil
		})
		cur = next
		if serr != nil {
			if !errors.Is(serr, errStreamClosed) {
				writeFrame(repFrame{Type: "err", Code: CodeInternal, Error: serr.Error()})
			}
			return
		}
		if sent == 0 {
			quiet++
			if quiet >= hbEvery {
				quiet = 0
				rs.mu.Lock()
				endSeq := rs.seq
				rs.mu.Unlock()
				if !writeFrame(repFrame{Type: "hb", EndSeq: endSeq, EndOff: rs.log.Size()}) {
					return
				}
			}
		} else {
			quiet = 0
		}
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
	}
}

var errStreamClosed = errors.New("gserver: replication stream closed")

// ---- Follower side ----------------------------------------------------

// runReplica is the follower loop: subscribe to the primary, apply each
// streamed op through the local mutation path, ack it, and track lag. A
// broken connection is redialed with backoff; promotion or server close
// cancels ctx and ends the loop.
func (s *Server) runReplica(ctx context.Context, primaryAddr string) {
	rs := s.rep
	defer close(rs.replicaDone)
	attempt := 0
	for ctx.Err() == nil {
		if attempt > 0 {
			if err := sleepCtx(ctx, retryDelay(attempt, 50*time.Millisecond, 2*time.Second)); err != nil {
				return
			}
		}
		attempt++
		d := net.Dialer{}
		conn, err := d.DialContext(ctx, "tcp", primaryAddr)
		if err != nil {
			continue
		}
		rs.connects.Inc()
		// Unblock the stream read when ctx ends (promotion or shutdown).
		stop := context.AfterFunc(ctx, func() { conn.Close() })
		ok := s.streamFromPrimary(ctx, conn)
		stop()
		conn.Close()
		if ok {
			attempt = 1 // healthy session; restart backoff from the bottom
		}
	}
}

// streamFromPrimary runs one subscription session. It returns true when the
// session made progress (connected and received at least one frame).
func (s *Server) streamFromPrimary(ctx context.Context, conn net.Conn) bool {
	rs := s.rep
	rs.mu.Lock()
	fromSeq := rs.seq
	rs.mu.Unlock()
	w := bufio.NewWriter(conn)
	req, _ := json.Marshal(Request{Query: fmt.Sprintf("!replicate %d", fromSeq)})
	if _, err := w.Write(append(req, '\n')); err != nil {
		return false
	}
	if err := w.Flush(); err != nil {
		return false
	}
	dec := json.NewDecoder(bufio.NewReader(conn))
	progressed := false
	for {
		var f repFrame
		// No read deadline: a partition parks the subscription; when it
		// heals, the stream resumes on this same connection.
		conn.SetReadDeadline(time.Time{})
		if err := dec.Decode(&f); err != nil {
			return progressed
		}
		progressed = true
		switch f.Type {
		case "op":
			if f.Op == nil {
				return progressed
			}
			rs.mu.Lock()
			gap := f.Op.Seq > rs.seq+1
			rs.mu.Unlock()
			if gap {
				// A frame was lost in transit (a blackholed stream drops
				// bytes without erroring). Never apply past a hole: drop the
				// session and resubscribe from the last applied seq so the
				// primary restreams the gap.
				return progressed
			}
			applied, err := s.applyReplicated(ctx, f.Op)
			if err != nil {
				// A failed apply must not be acked: stop the session and
				// resubscribe from the last good seq.
				return progressed
			}
			if applied {
				rs.applied.Inc()
			}
			ack, _ := json.Marshal(repAck{AckSeq: f.Op.Seq, AckOff: f.Off})
			if _, err := w.Write(append(ack, '\n')); err != nil {
				return progressed
			}
			if err := w.Flush(); err != nil {
				return progressed
			}
		case "hb":
			// Lag bookkeeping only.
		case "err":
			return progressed
		}
		rs.mu.Lock()
		rs.primaryEndSeq = f.EndSeq
		rs.primaryEndOff = f.EndOff
		if f.Off > rs.lastOff {
			rs.lastOff = f.Off
		}
		lagR := int64(0)
		if f.EndSeq > rs.seq {
			lagR = int64(f.EndSeq - rs.seq)
		}
		lagB := f.EndOff - rs.lastOff
		if lagB < 0 {
			lagB = 0
		}
		rs.mu.Unlock()
		rs.lagRecords.Set(lagR)
		rs.lagBytes.Set(lagB)
	}
}

// applyReplicated applies one streamed op on the follower: idempotent above
// the last applied seq, recorded in the follower's own oplog so it can act
// as a replication source after promotion. It reports whether the op was
// applied (false: duplicate delivery, skipped).
func (s *Server) applyReplicated(ctx context.Context, op *repOp) (bool, error) {
	rs := s.rep
	rs.wmu.Lock()
	defer rs.wmu.Unlock()
	rs.mu.Lock()
	if op.Seq <= rs.seq {
		rs.mu.Unlock()
		return false, nil
	}
	rs.mu.Unlock()
	if err := applyOp(ctx, s.batch, rs.mut, op); err != nil {
		return false, err
	}
	enc, err := json.Marshal(op)
	if err != nil {
		return false, err
	}
	if _, err := rs.log.Append(enc); err != nil {
		return false, err
	}
	rs.mu.Lock()
	rs.seq = op.Seq
	rs.mu.Unlock()
	return true, nil
}

// replicationHealth fills the replication fields of a health snapshot.
func (rs *repState) health(h *HealthInfo) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	h.Role = rs.role
	h.Epoch = rs.epoch
	h.Fenced = rs.fenced
	h.LastSeq = rs.seq
	switch rs.role {
	case RolePrimary:
		h.ReplicaAttached = rs.subs > 0
		if rs.subs > 0 {
			if rs.seq > rs.ackedSeq {
				h.ReplicationLagRecords = int64(rs.seq - rs.ackedSeq)
			}
			if sz := rs.log.Size(); sz > rs.ackedOff {
				h.ReplicationLagBytes = sz - rs.ackedOff
			}
		}
	default:
		if rs.primaryEndSeq > rs.seq {
			h.ReplicationLagRecords = int64(rs.primaryEndSeq - rs.seq)
		}
		if rs.primaryEndOff > rs.lastOff {
			h.ReplicationLagBytes = rs.primaryEndOff - rs.lastOff
		}
	}
}
