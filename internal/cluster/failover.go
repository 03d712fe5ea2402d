// Per-shard failover: promotion of a replication follower when the primary
// is confirmed dead, epoch fencing of the deposed primary, coordinator
// mutations with typed indeterminate-write semantics, and stale-bounded
// replica reads while a shard is down.
//
// The trigger is deliberately two-signal: the circuit breaker must already
// be open (the query path has repeatedly failed) AND FailoverThreshold
// consecutive background health probes must have failed. A transient blip
// trips one signal but not both. Confirmation then requires the follower
// itself to answer a health probe — promoting into a dead replica would
// turn one outage into two.
//
// Every mutation carries the epoch the coordinator believes current, and
// promotion bumps it. A deposed primary still serving its old epoch rejects
// nothing by itself — it is the receiving server's epoch check plus the
// explicit "!fence" that guarantee a zombie can never acknowledge a write
// accepted under an epoch the cluster has moved past.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"time"

	"db2graph/internal/graph"
	"db2graph/internal/gserver"
)

// ErrIndeterminateWrite is the typed lost-ack failure: the write reached
// (or may have reached) a server but the acknowledgement was lost — to a
// transport fault, a replica ack timeout, or a failover racing the write.
// The mutation may or may not be durable on the surviving primary. Callers
// must treat it as "unknown", never as "failed": blind retries can
// duplicate, blind forgetting can lose.
var ErrIndeterminateWrite = errors.New("cluster: write outcome indeterminate (ack lost)")

// WriteError carries the shard identity and determinacy of a failed
// mutation. errors.Is(err, ErrIndeterminateWrite) matches the indeterminate
// ones; determinate rejections (fenced, not-primary after reroute, bad
// request) and never-sent failures (breaker open) unwrap to their cause.
type WriteError struct {
	Shard         int
	Addr          string
	Indeterminate bool
	Err           error
}

func (e *WriteError) Error() string {
	kind := "rejected"
	if e.Indeterminate {
		kind = "indeterminate"
	}
	return fmt.Sprintf("cluster: write to shard %d (%s) %s: %v", e.Shard, e.Addr, kind, e.Err)
}

func (e *WriteError) Unwrap() error { return e.Err }

// Is matches ErrIndeterminateWrite exactly when the outcome is unknown.
func (e *WriteError) Is(target error) bool {
	return target == ErrIndeterminateWrite && e.Indeterminate
}

// ---------------------------------------------------------------------------
// Failover state machine

// confirmDead records one failed health probe and runs the failover
// decision: breaker open + threshold consecutive probe failures + a healthy
// follower ⇒ promote, reroute, fence.
func (s *shard) confirmDead() {
	s.rmu.Lock()
	s.probeFails++
	ready := !s.failedOver && s.replicaAddr != "" &&
		s.probeFails >= s.cfg.FailoverThreshold &&
		s.breaker.State() == BreakerOpen
	rcl := s.replicaCl
	replicaAddr := s.replicaAddr
	oldAddr := s.active
	s.rmu.Unlock()
	if !ready {
		return
	}

	// Confirm the follower is alive and still a follower (an operator may
	// have promoted it out-of-band; that is fine — promotion is idempotent
	// at or above its epoch).
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.HealthTimeout)
	defer cancel()
	cl, err := rcl.get()
	if err != nil {
		return
	}
	h, err := cl.HealthCtx(ctx)
	if err != nil || h.Fenced {
		rcl.close() // fresh dial next round
		return
	}

	// The new epoch must exceed both the coordinator's view and whatever
	// the follower already carries.
	newEpoch := s.epoch.Load() + 1
	if h.Epoch >= newEpoch {
		newEpoch = h.Epoch + 1
	}
	pctx, pcancel := context.WithTimeout(context.Background(), s.cfg.RequestTimeout)
	defer pcancel()
	if _, err := cl.SubmitCtx(pctx, fmt.Sprintf("!promote %d", newEpoch)); err != nil {
		// Promotion did not confirm. It may still have applied — the next
		// probe round retries with a fresh epoch strictly above whatever
		// the follower then reports, which the server accepts idempotently.
		rcl.close()
		return
	}

	// Reroute: all traffic slots now dial the promoted follower.
	s.conn.setAddr(replicaAddr)
	s.health.setAddr(replicaAddr)
	s.epoch.Store(newEpoch)
	s.epochGauge.Set(int64(newEpoch))
	s.failovers.Inc()
	s.rmu.Lock()
	s.active = replicaAddr
	s.deposed = oldAddr
	s.replicaAddr = "" // consumed; no second failover target
	s.failedOver = true
	s.probeFails = 0
	s.rmu.Unlock()
	// The promoted endpoint just answered; open the gate immediately
	// instead of waiting out a breaker cooloff against the dead address.
	s.breaker.Success()
	s.up.Set(1)

	// Fence the deposed primary in the background until it acknowledges
	// (it may be dead or partitioned right now — the fence must land
	// whenever it heals, before any client could reach it again).
	s.wg.Add(1)
	go s.fenceLoop(oldAddr, newEpoch)
}

// fenceLoop delivers "!fence <epoch>" to a deposed primary, retrying with
// backoff until it acknowledges or the shard closes. An already-fenced
// server acknowledges idempotently.
func (s *shard) fenceLoop(addr string, epoch uint64) {
	defer s.wg.Done()
	delay := s.cfg.RetryBase
	for {
		cl, err := gserver.DialOptions(addr, gserver.Options{Timeout: s.cfg.HealthTimeout, DialRetries: -1})
		if err == nil {
			ctx, cancel := context.WithTimeout(context.Background(), s.cfg.HealthTimeout)
			_, serr := cl.SubmitCtx(ctx, fmt.Sprintf("!fence %d", epoch))
			cancel()
			cl.Close()
			if serr == nil {
				return
			}
		}
		delay *= 2
		if delay > s.cfg.HealthBackoffMax {
			delay = s.cfg.HealthBackoffMax
		}
		select {
		case <-s.stop:
			return
		case <-time.After(delay):
		}
	}
}

// tryReplicaRead serves one read from the shard's follower while the
// primary is unreachable, bounded by the follower's reported replication
// lag. Returns false when replica reads are off, no follower exists (or it
// was consumed by failover), the follower is unhealthy, or it is too stale.
func (s *shard) tryReplicaRead(ctx context.Context, op gserver.GraphOp) (reply, bool) {
	if !s.cfg.ReplicaReads {
		return reply{}, false
	}
	s.rmu.Lock()
	rcl := s.replicaCl
	ok := !s.failedOver && s.replicaAddr != ""
	s.rmu.Unlock()
	if !ok || rcl == nil {
		return reply{}, false
	}
	cl, err := rcl.get()
	if err != nil {
		return reply{}, false
	}
	hctx, cancel := context.WithTimeout(ctx, s.cfg.HealthTimeout)
	h, err := cl.HealthCtx(hctx)
	cancel()
	if err != nil {
		rcl.close()
		return reply{}, false
	}
	if h.Role != gserver.RoleFollower || h.ReplicationLagRecords > s.cfg.MaxReplicaLag {
		return reply{}, false
	}
	resp, err := cl.GraphOpCtx(ctx, op)
	if err != nil {
		rcl.close()
		return reply{}, false
	}
	rep, err := s.decode(resp)
	if err != nil {
		return reply{}, false
	}
	s.replReads.Inc()
	return rep, true
}

// ---------------------------------------------------------------------------
// Coordinator mutations

// doWrite performs one mutation against the shard's active endpoint. No
// retries: mutations are not idempotent, so an availability failure after
// send is an INDETERMINATE outcome, surfaced as a typed *WriteError rather
// than masked by a blind replay. The only replayed case
// is a determinate FENCED/NOT_PRIMARY rejection — the server proved it did
// not apply the write — which is re-routed once after refreshing the
// failover state (the write raced a promotion).
func (s *shard) doWrite(ctx context.Context, op gserver.GraphOp) error {
	s.requests.Inc()
	for attempt := 0; ; attempt++ {
		if s.breaker.State() == BreakerOpen {
			// Never sent: a determinate failure (and, via the ShardError
			// cause, one that matches ErrShardUnavailable).
			s.failures.Inc()
			return &WriteError{Shard: s.idx, Addr: s.activeAddr(),
				Err: &ShardError{Shard: s.idx, Addr: s.activeAddr(), Err: errBreakerOpen}}
		}
		op.Epoch = s.epoch.Load()
		cl, err := s.conn.get()
		if err != nil {
			// Dial failed: nothing was sent, determinately.
			s.failures.Inc()
			s.breaker.Failure()
			return &WriteError{Shard: s.idx, Addr: s.activeAddr(),
				Err: &ShardError{Shard: s.idx, Addr: s.activeAddr(), Err: err}}
		}
		_, err = cl.GraphOpCtx(ctx, op)
		switch {
		case err == nil:
			s.breaker.Success()
			return nil
		case errors.Is(err, gserver.ErrFenced) || errors.Is(err, gserver.ErrNotPrimary):
			// Determinate rejection: the server did not apply the write.
			// If a failover just moved the shard, one reroute under the
			// fresh epoch is safe; otherwise surface the rejection.
			if attempt == 0 {
				continue
			}
			s.failures.Inc()
			return &WriteError{Shard: s.idx, Addr: s.activeAddr(), Err: err}
		case errors.Is(err, gserver.ErrReplicaTimeout):
			// Applied on the primary, unacknowledged by the follower: the
			// canonical bounded lost-ack window.
			s.indetermin.Inc()
			s.failures.Inc()
			return &WriteError{Shard: s.idx, Addr: s.activeAddr(), Indeterminate: true, Err: err}
		case availabilityFailure(err) && !errors.Is(err, gserver.ErrOverloaded):
			// Transport failure after send: the request may have been
			// applied before the connection died. Unknown, typed as such.
			s.breaker.Failure()
			s.indetermin.Inc()
			s.failures.Inc()
			return &WriteError{Shard: s.idx, Addr: s.activeAddr(), Indeterminate: true, Err: err}
		case callerContextErr(err):
			// The caller gave up mid-exchange; the server may still apply.
			s.indetermin.Inc()
			return &WriteError{Shard: s.idx, Addr: s.activeAddr(), Indeterminate: true, Err: err}
		default:
			// Typed execution rejection (overloaded, bad request, storage):
			// the server answered without applying.
			s.failures.Inc()
			return &WriteError{Shard: s.idx, Addr: s.activeAddr(), Err: err}
		}
	}
}

func (s *shard) activeAddr() string {
	s.rmu.Lock()
	defer s.rmu.Unlock()
	return s.active
}

// AddVertex implements graph.Mutable: the vertex is routed to its owning
// shard's primary, epoch-checked and synchronously replicated there.
func (c *Coordinator) AddVertex(el *graph.Element) error {
	return c.AddVertexCtx(context.Background(), el)
}

// AddVertexCtx is AddVertex under a caller context.
func (c *Coordinator) AddVertexCtx(ctx context.Context, el *graph.Element) error {
	if el == nil || el.ID == "" {
		return errors.New("cluster: AddVertex requires an element with an id")
	}
	sh := c.shards[c.m.Shard(el.ID)]
	return sh.doWrite(ctx, gserver.GraphOp{Method: gserver.OpAddVertex, Element: gserver.ToWire(el)})
}

// AddEdge implements graph.Mutable. The edge is written to the owning shard
// of each endpoint (deduplicated when both live together) in ascending
// shard order, carrying minimal ghost endpoints so a shard that owns only
// one side can satisfy edge-endpoint integrity. A failure on the first leg
// aborts determinately; a failure after any leg succeeded is reported as
// ErrIndeterminateWrite (the edge is dual-homed on one side only until an
// operator reconciles — scans still return it exactly once either way).
func (c *Coordinator) AddEdge(el *graph.Element) error {
	return c.AddEdgeCtx(context.Background(), el, nil, nil)
}

// AddEdgeCtx writes one edge, optionally carrying the full endpoint
// elements (outV/inV may be nil: ghosts are then created as bare ids when a
// shard is missing an endpoint).
func (c *Coordinator) AddEdgeCtx(ctx context.Context, el *graph.Element, outV, inV *graph.Element) error {
	if el == nil || el.ID == "" || el.OutV == "" || el.InV == "" {
		return errors.New("cluster: AddEdge requires an edge element with id and both endpoints")
	}
	if outV == nil {
		outV = &graph.Element{ID: el.OutV}
	}
	if inV == nil {
		inV = &graph.Element{ID: el.InV}
	}
	op := gserver.GraphOp{
		Method:      gserver.OpAddEdge,
		Element:     gserver.ToWire(el),
		OutVElement: gserver.ToWire(outV),
		InVElement:  gserver.ToWire(inV),
	}
	so, si := c.m.Shard(el.OutV), c.m.Shard(el.InV)
	legs := []int{so}
	if si != so {
		if si < so {
			legs = []int{si, so}
		} else {
			legs = append(legs, si)
		}
	}
	for i, sidx := range legs {
		if err := c.shards[sidx].doWrite(ctx, op); err != nil {
			if i > 0 {
				// A previous leg already applied: the edge exists on one
				// shard. Promote the failure to indeterminate regardless of
				// this leg's own determinacy.
				var we *WriteError
				if errors.As(err, &we) {
					we.Indeterminate = true
					return we
				}
				return &WriteError{Shard: sidx, Addr: c.shards[sidx].activeAddr(), Indeterminate: true, Err: err}
			}
			return err
		}
	}
	return nil
}

var _ graph.Mutable = (*Coordinator)(nil)
