// Package gserver implements a Gremlin Server equivalent: a TCP service
// that accepts Gremlin scripts over a line-delimited JSON protocol and
// executes them against a graph backend, plus the matching client. The
// paper runs all three systems in server mode answering localhost clients;
// this package provides that deployment shape.
//
// The server enforces a query lifecycle: every query runs under a
// context.Context carrying a deadline (server default, optionally shortened
// per request), inside its own goroutine with panic isolation, behind a
// concurrency semaphore with queue-full fast-fail, and against a request
// size cap. Failures come back as structured responses with a stable Code
// that the client maps to typed Go errors.
package gserver

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"db2graph/internal/graph"
	"db2graph/internal/gremlin"
	"db2graph/internal/kvstore"
	"db2graph/internal/sql/types"
	"db2graph/internal/telemetry"
	"db2graph/internal/wal"
)

// Stable error codes carried in Response.Code. Clients switch on these (or
// on the sentinel errors below) rather than parsing message text.
const (
	// CodeTimeout: the query exceeded its deadline.
	CodeTimeout = "TIMEOUT"
	// CodeBudget: the query exceeded a resource budget (graph.Limits).
	CodeBudget = "BUDGET"
	// CodePanic: the query panicked; the panic was isolated to the query.
	CodePanic = "PANIC"
	// CodeParse: the script failed to parse.
	CodeParse = "PARSE"
	// CodeOverloaded: the server's concurrency limit was reached; retry.
	CodeOverloaded = "OVERLOADED"
	// CodeCanceled: the query was canceled (typically server shutdown).
	CodeCanceled = "CANCELED"
	// CodeBadRequest: the request frame itself was unacceptable (too large).
	CodeBadRequest = "BAD_REQUEST"
	// CodeReadOnly: the durable store degraded to read-only after a
	// persistent disk failure; reads still serve, writes are refused.
	CodeReadOnly = "READONLY"
	// CodeStorage: a disk-level failure (I/O error, full disk, checksum
	// mismatch) surfaced through the storage engine.
	CodeStorage = "STORAGE"
	// CodeNotPrimary: a mutation was sent to a replication follower; the
	// caller must route it to the shard's primary.
	CodeNotPrimary = "NOT_PRIMARY"
	// CodeFenced: the server is a deposed primary (or the write carried a
	// stale replication epoch); the mutation was refused so a zombie
	// primary can never acknowledge writes after failover.
	CodeFenced = "FENCED"
	// CodeReplicaTimeout: the mutation was applied locally but the
	// follower's acknowledgement did not arrive in time. The write is
	// INDETERMINATE — it may or may not survive a failover — and must be
	// reported as a typed lost-ack, never retried blindly.
	CodeReplicaTimeout = "REPLICA_TIMEOUT"
	// CodeInternal: any other execution failure.
	CodeInternal = "INTERNAL"
)

// Typed sentinels the client wraps into returned errors, matched with
// errors.Is.
var (
	ErrTimeout    = errors.New("gserver: query timed out")
	ErrBudget     = errors.New("gserver: query exceeded budget")
	ErrPanic      = errors.New("gserver: query panicked on server")
	ErrParse      = errors.New("gserver: parse error")
	ErrOverloaded = errors.New("gserver: server overloaded")
	ErrReadOnly   = errors.New("gserver: store is read-only after disk failure")
	ErrStorage    = errors.New("gserver: storage failure")
	ErrBadRequest = errors.New("gserver: bad request")
	ErrNotPrimary = errors.New("gserver: server is a replication follower")
	ErrFenced     = errors.New("gserver: server fenced after failover")
	// ErrReplicaTimeout marks an INDETERMINATE write: applied on the
	// primary, not acknowledged by the follower in time.
	ErrReplicaTimeout = errors.New("gserver: write not acknowledged by replica (indeterminate)")
)

// sentinelByCode maps a wire code to its client-side sentinel.
var sentinelByCode = map[string]error{
	CodeTimeout:    ErrTimeout,
	CodeBudget:     ErrBudget,
	CodePanic:      ErrPanic,
	CodeParse:      ErrParse,
	CodeOverloaded: ErrOverloaded,
	CodeReadOnly:       ErrReadOnly,
	CodeStorage:        ErrStorage,
	CodeBadRequest:     ErrBadRequest,
	CodeNotPrimary:     ErrNotPrimary,
	CodeFenced:         ErrFenced,
	CodeReplicaTimeout: ErrReplicaTimeout,
}

// Request is one client message. Queries starting with '!' are control
// requests served by the server itself instead of the Gremlin engine:
// "!metrics" returns the metrics registry in Prometheus text format as the
// single result string, "!checkpoint" forces a durable-store checkpoint,
// and "!flushcaches" drops the compiled-plan cache and every backend
// topology/adjacency cache (a correctness no-op — only refill cost).
type Request struct {
	// Query is a Gremlin script (possibly multi-statement).
	Query string `json:"query"`
	// GraphOp, when set, executes one raw backend read (see graphop.go)
	// instead of a Gremlin script; Query is ignored. Graph operations run
	// under the same lifecycle as queries (admission, deadline, panic
	// isolation).
	GraphOp *GraphOp `json:"graph_op,omitempty"`
	// TimeoutMillis optionally shortens the server's default query
	// deadline for this request. It can never extend past the server's
	// configured maximum.
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
	// Profile asks the server to trace the query and attach per-step and
	// per-operation timings to the response.
	Profile bool `json:"profile,omitempty"`
}

// describe names the request for error messages and the slow-query log.
func (r Request) describe() string {
	if r.GraphOp != nil {
		return "graphop:" + r.GraphOp.Method
	}
	return shorten(r.Query)
}

// Response is the server's reply.
type Response struct {
	Results []any  `json:"results,omitempty"`
	Error   string `json:"error,omitempty"`
	// Code classifies Error with one of the Code* constants. Empty on
	// success.
	Code string `json:"code,omitempty"`
	// Profile carries the query trace when Request.Profile was set: a map
	// with "statements" (per-statement step profiles) and "ops"
	// (backend/SQL operation totals).
	Profile any `json:"profile,omitempty"`
	// Columns answers every GraphOp read (V, E, VerticesByIDs,
	// EdgesForVertices) with one binary element batch
	// (graphenc.ColumnBatch bytes, base64 in JSON): property keys shared
	// across the batch are named once instead of once per element, and
	// float properties travel as raw bits, so NaN and ±Inf survive. Decode
	// with Response.ElementBatch. Gremlin script Results stay JSON and so
	// cannot carry a NaN or ±Inf value.
	Columns []byte `json:"columns,omitempty"`
	// reply is a read op's result until writeResponse encodes it into
	// Columns: element serialization belongs to the frame encoding, which
	// runs after the request's timed execution.
	reply *elementReply
	// Health answers the "!health" control request.
	Health *HealthInfo `json:"health,omitempty"`
	// Storage answers the "!storage" control request.
	Storage *kvstore.StorageStats `json:"storage,omitempty"`
}

// Config bounds server resource usage. Zero fields select defaults;
// negative durations/counts disable the corresponding bound.
type Config struct {
	// QueryTimeout is the default per-query deadline (default 30s).
	QueryTimeout time.Duration
	// MaxRequestBytes caps one request line (default 1 MiB).
	MaxRequestBytes int
	// MaxConcurrent caps queries executing simultaneously; excess requests
	// fast-fail with CodeOverloaded (default 64).
	MaxConcurrent int
	// DrainTimeout is how long Close waits for in-flight queries before
	// canceling them (default 5s).
	DrainTimeout time.Duration
	// ReadTimeout is the per-connection idle limit between requests
	// (default 5m).
	ReadTimeout time.Duration
	// WriteTimeout bounds writing one response (default 10s).
	WriteTimeout time.Duration
	// Registry receives the server's metrics (request counts by code,
	// in-flight/active gauges, latency histogram). Nil uses
	// telemetry.Default(); tests pass their own for isolation.
	Registry *telemetry.Registry
	// SlowQueryThreshold enables the slow-query log: queries taking at
	// least this long are logged to SlowQueryLog and counted. Zero or
	// negative disables it.
	SlowQueryThreshold time.Duration
	// SlowQueryLog is the slow-query destination (default os.Stderr).
	SlowQueryLog io.Writer
	// Checkpointer, when non-nil, serves the "!checkpoint" control request
	// (typically the durable janus graph). Nil rejects the request.
	Checkpointer interface{ Checkpoint() error }
	// Mutator, when non-nil, is the write path for AddVertex/AddEdge graph
	// ops (and replicated apply). Nil falls back to the backend itself when
	// it implements graph.Mutable (decorators are unwrapped).
	Mutator graph.Mutable
	// Replication, when non-nil, makes this server a replicated-shard
	// member (primary or follower). Servers with replication configured
	// must be constructed with NewReplicated, which surfaces setup errors.
	Replication *ReplicationConfig
}

const (
	defaultQueryTimeout    = 30 * time.Second
	defaultMaxRequestBytes = 1 << 20
	defaultMaxConcurrent   = 64
	defaultDrainTimeout    = 5 * time.Second
	defaultReadTimeout     = 5 * time.Minute
	defaultWriteTimeout    = 10 * time.Second
)

// withDefaults resolves zero fields; negative values mean "no bound".
func (c Config) withDefaults() Config {
	dur := func(v, def time.Duration) time.Duration {
		if v == 0 {
			return def
		}
		if v < 0 {
			return 0
		}
		return v
	}
	if c.MaxRequestBytes == 0 {
		c.MaxRequestBytes = defaultMaxRequestBytes
	}
	if c.MaxConcurrent == 0 {
		c.MaxConcurrent = defaultMaxConcurrent
	}
	c.QueryTimeout = dur(c.QueryTimeout, defaultQueryTimeout)
	c.DrainTimeout = dur(c.DrainTimeout, defaultDrainTimeout)
	c.ReadTimeout = dur(c.ReadTimeout, defaultReadTimeout)
	c.WriteTimeout = dur(c.WriteTimeout, defaultWriteTimeout)
	return c
}

// Server serves Gremlin queries over TCP.
type Server struct {
	src   *gremlin.Source
	cfg   Config
	sem   chan struct{}      // nil when MaxConcurrent < 0 (unbounded)
	batch graph.BatchBackend // batched view of src.Backend for GraphOp requests
	start time.Time          // construction time, reported by !health

	baseCtx context.Context
	cancel  context.CancelFunc

	rep *repState // nil on unreplicated servers

	// Telemetry, resolved once at construction.
	reg        *telemetry.Registry
	inflight   *telemetry.Gauge // requests between decode and response flush
	active     *telemetry.Gauge // queries holding a semaphore slot
	latency    *telemetry.Histogram
	slowCount  *telemetry.Counter
	slowLogger *log.Logger // nil when the slow-query log is disabled

	mu        sync.Mutex
	listener  net.Listener   // first listener (primary address for tests)
	listeners []net.Listener // every listener Serve was handed
	conns     map[net.Conn]bool
	closed    bool
	wg        sync.WaitGroup // accept loop + connection handlers
	inflightN int            // requests between decode and response flush
}

// New creates a server over the given traversal source with default limits.
func New(src *gremlin.Source) *Server { return NewWithConfig(src, Config{}) }

// NewWithConfig creates a server with explicit lifecycle limits.
func NewWithConfig(src *gremlin.Source, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{src: src, cfg: cfg, conns: make(map[net.Conn]bool), start: time.Now()}
	if cfg.MaxConcurrent > 0 {
		s.sem = make(chan struct{}, cfg.MaxConcurrent)
	}
	s.reg = cfg.Registry
	if s.reg == nil {
		s.reg = telemetry.Default()
	}
	s.inflight = s.reg.Gauge("gserver_inflight_requests")
	s.active = s.reg.Gauge("gserver_active_queries")
	s.latency = s.reg.Histogram("gserver_request_seconds")
	s.slowCount = s.reg.Counter("gserver_slow_queries_total")
	// Parallel-execution telemetry: clone the source so wiring the worker
	// gauge does not mutate the caller's Source, then expose the number of
	// borrowed step-level workers across all in-flight queries plus the
	// configured per-query parallelism level.
	wsrc := *src
	wsrc.WorkerGauge = s.reg.Gauge("gremlin_parallel_workers")
	// Cached, vectorized read path: the server owns a compiled-plan cache
	// unless the caller already supplied one, and wires the batch-size
	// histogram so expansion batch sizes surface through !metrics.
	if wsrc.PlanCache == nil {
		wsrc.PlanCache = gremlin.NewPlanCache(0)
	}
	if wsrc.BatchHist == nil {
		wsrc.BatchHist = s.reg.IntHistogram("gremlin_batch_size")
	}
	s.src = &wsrc
	s.batch = graph.Batched(wsrc.Backend)
	par := wsrc.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	s.reg.Gauge("gremlin_parallelism").Set(int64(par))
	if cfg.SlowQueryThreshold > 0 {
		w := cfg.SlowQueryLog
		if w == nil {
			w = os.Stderr
		}
		// log.Logger serializes concurrent writes internally.
		s.slowLogger = log.New(w, "", log.LstdFlags|log.Lmicroseconds)
	}
	s.baseCtx, s.cancel = context.WithCancel(context.Background())
	if cfg.Replication != nil {
		if err := s.initReplication(cfg.Replication); err != nil {
			// Construction-time misconfiguration; NewReplicated surfaces it
			// as an error instead.
			panic(err)
		}
	}
	return s
}

// NewReplicated creates a replicated-shard server (Config.Replication set),
// returning replication setup failures as errors.
func NewReplicated(src *gremlin.Source, cfg Config) (s *Server, err error) {
	rc := cfg.Replication
	cfg.Replication = nil
	s = NewWithConfig(src, cfg)
	if rc != nil {
		if err := s.initReplication(rc); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// Listen binds to addr (e.g. "127.0.0.1:0") and starts serving in the
// background. It returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	return s.Serve(ln), nil
}

// Serve starts serving on an already-bound listener in the background and
// returns its address. It exists so tests can interpose fault-injecting
// listener wrappers (see internal/cluster's chaos layer); Close still owns
// the listener's shutdown.
func (s *Server) Serve(ln net.Listener) string {
	s.mu.Lock()
	if s.listener == nil {
		s.listener = ln
	}
	s.listeners = append(s.listeners, ln)
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String()
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	writer := bufio.NewWriter(conn)
	scanner := bufio.NewScanner(conn)
	// +1 so a line of exactly MaxRequestBytes still fits its delimiter.
	scanner.Buffer(make([]byte, 4096), s.cfg.MaxRequestBytes+1)
	for {
		if s.cfg.ReadTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
		}
		if !scanner.Scan() {
			if errors.Is(scanner.Err(), bufio.ErrTooLong) {
				// Oversized frame: answer with a structured error, then
				// drop the connection (the stream position is lost).
				s.writeResponse(conn, writer, Response{
					Code:  CodeBadRequest,
					Error: fmt.Sprintf("request exceeds %d bytes", s.cfg.MaxRequestBytes),
				})
			}
			return
		}
		line := scanner.Bytes()
		if len(line) == 0 {
			continue
		}
		s.mu.Lock()
		s.inflightN++
		s.mu.Unlock()
		s.inflight.Inc()
		var resp Response
		var req Request
		if err := json.Unmarshal(line, &req); err != nil {
			resp = Response{Code: CodeBadRequest, Error: "malformed request: " + err.Error()}
		} else if req.GraphOp == nil && strings.HasPrefix(req.Query, "!replicate") {
			// Replication subscription: the connection is hijacked into a
			// long-lived record/ack stream and never returns to the
			// request/response loop.
			s.mu.Lock()
			s.inflightN--
			s.mu.Unlock()
			s.inflight.Dec()
			s.serveReplication(conn, writer, strings.TrimPrefix(req.Query, "!replicate"))
			return
		} else if req.GraphOp == nil && strings.HasPrefix(req.Query, "!") {
			resp = s.control(req)
		} else {
			resp = s.execute(req)
		}
		ok := s.writeResponse(conn, writer, resp)
		s.mu.Lock()
		s.inflightN--
		s.mu.Unlock()
		s.inflight.Dec()
		if !ok {
			return
		}
	}
}

// encBufPool holds the per-frame JSON encode buffers for both wire
// directions (server responses, client requests). json.Marshal allocates a
// fresh byte slice per frame; encoding into a pooled bytes.Buffer instead
// makes steady-state frame encoding allocation-free up to the retained-size
// cap (DESIGN.md §15).
var encBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// blobPool holds the element-batch encode buffers of read replies.
var blobPool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledFrame caps the capacity of a buffer returned to encBufPool or
// blobPool so one giant result frame does not pin its memory forever.
const maxPooledFrame = 1 << 20

// marshalFrame encodes v as one newline-terminated JSON frame into a pooled
// buffer. The caller must pass the buffer to putFrame once the bytes have
// been written out.
func marshalFrame(v any) (*bytes.Buffer, error) {
	buf := encBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		putFrame(buf)
		return nil, err
	}
	return buf, nil
}

// putFrame returns an encode buffer to the pool.
func putFrame(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledFrame {
		encBufPool.Put(buf)
	}
}

// writeResponse marshals and flushes one response frame. A marshal failure
// degrades to a structured INTERNAL error frame instead of being dropped.
func (s *Server) writeResponse(conn net.Conn, writer *bufio.Writer, resp Response) bool {
	if resp.reply != nil {
		// The frame encoder copies the batch (as base64), so its buffer
		// goes back to the pool once the frame is encoded.
		blob := blobPool.Get().(*[]byte)
		resp.Columns = resp.reply.appendTo((*blob)[:0])
		defer func() {
			if cap(resp.Columns) <= maxPooledFrame {
				*blob = resp.Columns
				blobPool.Put(blob)
			}
		}()
	}
	buf, err := marshalFrame(resp)
	if err != nil {
		// Strings-only payload; cannot fail again.
		buf, _ = marshalFrame(Response{
			Code:  CodeInternal,
			Error: "response marshal failed: " + err.Error(),
		})
	}
	defer putFrame(buf)
	if s.cfg.WriteTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	}
	if _, err := writer.Write(buf.Bytes()); err != nil {
		return false
	}
	return writer.Flush() == nil
}

// queryDeadline resolves the effective deadline for one request: the server
// default, shortened (never extended) by the request's override.
func (s *Server) queryDeadline(req Request) time.Duration {
	d := s.cfg.QueryTimeout
	if req.TimeoutMillis > 0 {
		rd := time.Duration(req.TimeoutMillis) * time.Millisecond
		if d <= 0 || rd < d {
			d = rd
		}
	}
	return d
}

// control serves '!'-prefixed requests on the calling goroutine — they
// bypass admission control, deadlines, and the Gremlin engine entirely.
// "!health" reports liveness/readiness (uptime, read-only state, data
// version, in-flight load) and stays cheap enough for tight probe loops.
func (s *Server) control(req Request) Response {
	q := strings.TrimSpace(req.Query)
	if script, ok := strings.CutPrefix(q, "!explain "); ok {
		// Unlike the other control requests, an explain executes the query
		// for real (the report compares estimated vs actual rows), so it is
		// rewritten to the explain() terminal step and routed through the
		// full execution lifecycle — admission, deadline, panic isolation.
		req.Query = strings.TrimSpace(script) + ".explain()"
		return s.execute(req)
	}
	switch q {
	case "!metrics":
		s.publishCacheMetrics()
		var sb strings.Builder
		if err := s.reg.WritePrometheus(&sb); err != nil {
			return Response{Code: CodeInternal, Error: err.Error()}
		}
		return Response{Results: []any{sb.String()}}
	case "!flushcaches":
		s.src.PlanCache.Flush()
		if f, ok := s.src.Backend.(graph.CacheFlusher); ok {
			f.FlushCaches()
		}
		s.publishCacheMetrics()
		return Response{Results: []any{"caches flushed"}}
	case "!checkpoint":
		if s.cfg.Checkpointer == nil {
			return Response{Code: CodeBadRequest, Error: "no durable store to checkpoint"}
		}
		if err := s.cfg.Checkpointer.Checkpoint(); err != nil {
			return errorResponse(err)
		}
		return Response{Results: []any{"checkpoint complete"}}
	case "!analyze":
		if s.src.Stats == nil {
			return Response{Code: CodeBadRequest, Error: "no statistics provider configured"}
		}
		st, err := s.src.Stats.Analyze(s.baseCtx)
		if err != nil {
			return errorResponse(err)
		}
		return Response{Results: []any{fmt.Sprintf(
			"analyzed: %d vertices, %d edges, %d vertex labels, %d edge labels (epoch %d)",
			st.VertexCount, st.EdgeCount, len(st.VertexLabels), len(st.EdgeLabels), s.src.Stats.Epoch())}}
	case "!health":
		return Response{Health: s.healthInfo()}
	default:
	}
	if arg, ok := strings.CutPrefix(q, "!promote"); ok {
		return s.promote(arg)
	}
	if arg, ok := strings.CutPrefix(q, "!fence"); ok {
		return s.fence(arg)
	}
	switch q {
	case "!storage":
		st := s.storageInfo()
		if st == nil {
			return Response{Code: CodeBadRequest, Error: "backend exposes no storage engine"}
		}
		return Response{Storage: st}
	default:
		return Response{Code: CodeBadRequest, Error: fmt.Sprintf("unknown control request %q", req.Query)}
	}
}

// publishCacheMetrics copies live cache counters into registry gauges so
// !metrics reports current hit/miss/eviction totals for the compiled-plan
// cache and every backend-internal cache. Gauges (re-settable) fit these
// externally-owned cumulative counters better than registry Counters.
func (s *Server) publishCacheMetrics() {
	set := func(cache string, st graph.CacheStats) {
		for suffix, v := range map[string]int64{
			"hits":          st.Hits,
			"misses":        st.Misses,
			"evictions":     st.Evictions,
			"invalidations": st.Invalidations,
			"entries":       st.Entries,
		} {
			s.reg.Gauge(`cache_` + suffix + `{cache="` + cache + `"}`).Set(v)
		}
	}
	set("plan", s.src.PlanCache.Stats())
	if p, ok := s.src.Backend.(graph.CacheStatsProvider); ok {
		for name, st := range p.CacheMetrics() {
			set(name, st)
		}
	}
	// Cumulative arena-decoded bytes of a janus backend (DESIGN.md §15).
	if a, ok := s.src.Backend.(graph.ArenaBytesProvider); ok {
		s.reg.Gauge("janus_arena_bytes").Set(a.ArenaBytes())
	}
}

// execute runs one query and records its telemetry: per-code request
// counters, the request latency histogram, and the slow-query log.
func (s *Server) execute(req Request) Response {
	start := time.Now()
	resp := s.executeQuery(req)
	d := time.Since(start)
	code := resp.Code
	if code == "" {
		code = "OK"
	}
	s.reg.Counter(`gserver_requests_total{code="` + code + `"}`).Inc()
	s.latency.Observe(d)
	if thr := s.cfg.SlowQueryThreshold; thr > 0 && d >= thr {
		s.slowCount.Inc()
		if s.slowLogger != nil {
			s.slowLogger.Printf("slow query: %v (threshold %v) code=%s query=%q", d, thr, code, req.describe())
		}
	}
	return resp
}

// executeQuery runs one query under the full lifecycle: semaphore admission,
// deadline, dedicated goroutine with panic isolation.
func (s *Server) executeQuery(req Request) Response {
	// Admission control: fast-fail instead of queueing unboundedly.
	if s.sem != nil {
		select {
		case s.sem <- struct{}{}:
			s.active.Inc()
		default:
			return Response{
				Code:  CodeOverloaded,
				Error: fmt.Sprintf("server at max concurrency (%d)", s.cfg.MaxConcurrent),
			}
		}
	}

	qctx := s.baseCtx
	cancel := context.CancelFunc(func() {})
	if d := s.queryDeadline(req); d > 0 {
		qctx, cancel = context.WithTimeout(s.baseCtx, d)
	}
	var span *telemetry.Span
	if req.Profile {
		span = telemetry.NewSpan()
		qctx = telemetry.WithSpan(qctx, span)
	}

	done := make(chan Response, 1)
	go func() {
		defer func() {
			if s.sem != nil {
				<-s.sem
				s.active.Dec()
			}
			cancel()
			// Engine-level recovery converts step panics to errors; this
			// recover is the server's own backstop (e.g. a panic in result
			// encoding) so one query can never kill the listener.
			if r := recover(); r != nil {
				done <- Response{Code: CodePanic, Error: fmt.Sprintf("query panicked: %v", r)}
			}
		}()
		if req.GraphOp != nil {
			done <- s.graphOpResponse(qctx, req.GraphOp)
			return
		}
		results, err := gremlin.RunScriptCtx(qctx, s.src, req.Query, nil)
		if err != nil {
			done <- errorResponse(err)
			return
		}
		out := make([]any, len(results))
		for i, r := range results {
			out[i] = Encode(r)
		}
		resp := Response{Results: out}
		if span != nil {
			resp.Profile = encodeSpan(span)
		}
		done <- resp
	}()

	select {
	case resp := <-done:
		return resp
	case <-qctx.Done():
		// The engine checks its context cooperatively, so give it a grace
		// period to surface the deadline itself; if it lags (e.g. wedged in
		// a backend call), answer anyway and abandon the goroutine. The
		// abandoned query keeps holding its semaphore slot until it
		// actually returns, which keeps the concurrency accounting honest.
		select {
		case resp := <-done:
			return resp
		case <-time.After(100 * time.Millisecond):
			return errorResponse(fmt.Errorf("gserver: %w", qctx.Err()))
		}
	}
}

// errorResponse classifies an execution error into a coded response.
func errorResponse(err error) Response {
	resp := Response{Error: err.Error(), Code: CodeInternal}
	var pe *gremlin.PanicError
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		resp.Code = CodeTimeout
	case errors.Is(err, context.Canceled):
		resp.Code = CodeCanceled
	case errors.Is(err, graph.ErrBudgetExceeded):
		resp.Code = CodeBudget
	case errors.As(err, &pe):
		resp.Code = CodePanic
	case errors.Is(err, gremlin.ErrParse):
		resp.Code = CodeParse
	case errors.Is(err, wal.ErrReadOnly):
		resp.Code = CodeReadOnly
	case errors.Is(err, wal.ErrIO), errors.Is(err, wal.ErrCorrupt),
		errors.Is(err, wal.ErrTorn), errors.Is(err, syscall.ENOSPC),
		errors.Is(err, syscall.EIO):
		resp.Code = CodeStorage
	}
	return resp
}

// Close drains in-flight queries up to DrainTimeout, then cancels whatever
// remains, closes all connections, and waits for handlers to exit.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	var err error
	for _, ln := range s.listeners {
		if cerr := ln.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	s.mu.Unlock()

	// Graceful phase: let running queries finish and their responses flush.
	if s.cfg.DrainTimeout > 0 {
		s.waitDrained(s.cfg.DrainTimeout)
	}
	// Forceful phase: cancel stragglers, give them a moment to respond.
	s.cancel()
	s.waitDrained(time.Second)

	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	s.closeReplication()
	return err
}

// waitDrained polls until no request is between decode and response flush,
// up to d; reports whether the server drained in time.
func (s *Server) waitDrained(d time.Duration) bool {
	deadline := time.Now().Add(d)
	for {
		s.mu.Lock()
		n := s.inflightN
		s.mu.Unlock()
		if n == 0 {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Encode converts a traversal result object into a JSON-friendly shape.
func Encode(obj any) any {
	switch x := obj.(type) {
	case *graph.Element:
		props := make(map[string]any, len(x.Props))
		for k, v := range x.Props {
			props[k] = v.Go()
		}
		m := map[string]any{"id": x.ID, "label": x.Label, "properties": props}
		if x.IsEdge {
			m["type"] = "edge"
			m["outV"] = x.OutV
			m["inV"] = x.InV
		} else {
			m["type"] = "vertex"
		}
		return m
	case types.Value:
		return x.Go()
	case map[string]types.Value:
		m := make(map[string]any, len(x))
		for k, v := range x {
			m[k] = v.Go()
		}
		return m
	case map[string]int64:
		m := make(map[string]any, len(x))
		for k, v := range x {
			m[k] = v
		}
		return m
	case map[string]any:
		m := make(map[string]any, len(x))
		for k, v := range x {
			m[k] = Encode(v)
		}
		return m
	case []any:
		out := make([]any, len(x))
		for i, o := range x {
			out[i] = Encode(o)
		}
		return out
	case *gremlin.ExplainReport:
		// Both shapes travel: the rendered table for console display and
		// the structured report (json-tagged) for programmatic inspection.
		return map[string]any{"text": x.String(), "report": x}
	case *telemetry.Profile:
		steps := make([]any, len(x.Steps))
		for i, st := range x.Steps {
			steps[i] = map[string]any{
				"step":  st.Name,
				"depth": st.Depth,
				"in":    st.In,
				"out":   st.Out,
				"calls": st.Calls,
				"us":    st.Dur.Microseconds(),
			}
		}
		return map[string]any{
			"query":    x.Query,
			"total_us": x.Total.Microseconds(),
			"steps":    steps,
			"ops":      encodeOps(x.Ops),
		}
	default:
		return fmt.Sprint(obj)
	}
}

// encodeOps renders operation stats for the wire.
func encodeOps(ops []telemetry.OpStat) []any {
	out := make([]any, len(ops))
	for i, op := range ops {
		out[i] = map[string]any{
			"op":    op.Name,
			"calls": op.Calls,
			"items": op.Items,
			"us":    op.Total.Microseconds(),
		}
	}
	return out
}

// encodeSpan renders a query trace as the Response.Profile payload.
func encodeSpan(span *telemetry.Span) any {
	profiles := span.Profiles()
	stmts := make([]any, len(profiles))
	for i, p := range profiles {
		stmts[i] = Encode(p)
	}
	return map[string]any{"statements": stmts, "ops": encodeOps(span.Ops())}
}

// Options tunes client behavior. Zero fields select defaults; negative
// values disable the corresponding feature.
type Options struct {
	// Timeout is the default per-Submit deadline covering the full round
	// trip (default 30s; negative for none). SubmitCtx deadlines take
	// precedence.
	Timeout time.Duration
	// DialRetries is how many times transient dial/transport failures are
	// retried with capped exponential backoff (default 3; negative for 0).
	DialRetries int
	// RetryBase is the first backoff delay (default 50ms).
	RetryBase time.Duration
	// RetryMax caps the backoff delay (default 1s).
	RetryMax time.Duration
}

func (o Options) withDefaults() Options {
	if o.Timeout == 0 {
		o.Timeout = 30 * time.Second
	}
	if o.Timeout < 0 {
		o.Timeout = 0
	}
	if o.DialRetries == 0 {
		o.DialRetries = 3
	}
	if o.DialRetries < 0 {
		o.DialRetries = 0
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 50 * time.Millisecond
	}
	if o.RetryMax <= 0 {
		o.RetryMax = time.Second
	}
	return o
}

// Client is a connection to a Server. Safe for concurrent use; Submits are
// serialized over the single connection.
type Client struct {
	addr string
	opts Options

	mu   sync.Mutex
	conn net.Conn
	dec  *json.Decoder
	w    *bufio.Writer

	// liveMu guards live, a duplicate of conn that Abort can reach without
	// taking mu (which an in-flight exchange holds for its full duration).
	liveMu sync.Mutex
	live   net.Conn
}

// setLive records the current connection for Abort. Callers hold c.mu.
func (c *Client) setLive(conn net.Conn) {
	c.liveMu.Lock()
	c.live = conn
	c.liveMu.Unlock()
}

// Abort closes the client's current connection without waiting for an
// in-flight exchange to finish (Close would serialize behind it, blocking
// until the exchange drains against its socket deadline). The blocked
// exchange fails immediately with a transport error and the next call
// redials. Intended for callers abandoning an exchange whose result they
// will discard — a canceled scatter or a request past its deadline.
func (c *Client) Abort() {
	c.liveMu.Lock()
	conn := c.live
	c.liveMu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

// Dial connects to a server with default options.
func Dial(addr string) (*Client, error) { return DialOptions(addr, Options{}) }

// DialOptions connects with explicit timeout/retry behavior.
func DialOptions(addr string, opts Options) (*Client, error) {
	c := &Client{addr: addr, opts: opts.withDefaults()}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.redialLocked(context.Background()); err != nil {
		return nil, err
	}
	return c, nil
}

// redialLocked (re)establishes the connection with backoff. Callers hold
// c.mu.
func (c *Client) redialLocked(ctx context.Context) error {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
		c.setLive(nil)
	}
	var lastErr error
	for attempt := 0; attempt <= c.opts.DialRetries; attempt++ {
		if attempt > 0 {
			d := retryDelay(attempt, c.opts.RetryBase, c.opts.RetryMax)
			if deadlineTooClose(ctx, d) {
				return fmt.Errorf("%w (deadline before next retry)", lastErr)
			}
			if err := sleepCtx(ctx, d); err != nil {
				return err
			}
		}
		d := net.Dialer{}
		conn, err := d.DialContext(ctx, "tcp", c.addr)
		if err == nil {
			c.conn = conn
			c.dec = json.NewDecoder(bufio.NewReader(conn))
			c.w = bufio.NewWriter(conn)
			c.setLive(conn)
			return nil
		}
		lastErr = err
	}
	return fmt.Errorf("gserver: dial %s: %w", c.addr, lastErr)
}

// Submit sends a Gremlin script and returns the decoded results, applying
// the client's default timeout.
func (c *Client) Submit(query string) ([]any, error) {
	return c.SubmitCtx(context.Background(), query)
}

// SubmitCtx sends a Gremlin script under ctx. The effective deadline (ctx's
// if set, else the client default) is enforced on the socket so a dead
// server cannot block the call forever, and is also sent to the server so
// it stops executing the query at the same moment. Transient transport
// failures are redialed and retried with capped exponential backoff; errors
// identify the query and server address, and server-side failures carry
// their typed sentinel (ErrTimeout, ErrBudget, ErrPanic, ErrParse,
// ErrOverloaded) for errors.Is.
func (c *Client) SubmitCtx(ctx context.Context, query string) ([]any, error) {
	resp, err := c.do(ctx, Request{Query: query})
	if err != nil {
		return nil, err
	}
	return resp.Results, nil
}

// SubmitProfile is SubmitProfileCtx without a caller context.
func (c *Client) SubmitProfile(query string) ([]any, any, error) {
	return c.SubmitProfileCtx(context.Background(), query)
}

// SubmitProfileCtx submits the query with server-side tracing enabled and
// returns the results plus the decoded Response.Profile payload (a map with
// "statements" and "ops"; see Request.Profile).
func (c *Client) SubmitProfileCtx(ctx context.Context, query string) ([]any, any, error) {
	resp, err := c.do(ctx, Request{Query: query, Profile: true})
	if err != nil {
		return nil, nil, err
	}
	return resp.Results, resp.Profile, nil
}

// Metrics is MetricsCtx without a caller context.
func (c *Client) Metrics() (map[string]float64, error) {
	return c.MetricsCtx(context.Background())
}

// MetricsCtx fetches the server's metrics registry via the "!metrics"
// control request and parses the Prometheus text exposition into a
// name -> value map (histograms appear as quantile/_count/_sum series).
func (c *Client) MetricsCtx(ctx context.Context) (map[string]float64, error) {
	resp, err := c.do(ctx, Request{Query: "!metrics"})
	if err != nil {
		return nil, err
	}
	if len(resp.Results) != 1 {
		return nil, fmt.Errorf("gserver: !metrics returned %d results, want 1", len(resp.Results))
	}
	text, ok := resp.Results[0].(string)
	if !ok {
		return nil, fmt.Errorf("gserver: !metrics returned %T, want string", resp.Results[0])
	}
	return telemetry.ParseMetrics(text), nil
}

// Explain is ExplainCtx without a caller context.
func (c *Client) Explain(query string) (string, error) {
	return c.ExplainCtx(context.Background(), query)
}

// ExplainCtx submits the query via the "!explain <script>" control request:
// the server runs it instrumented and returns the planner's report — the
// chosen plan tree with estimated vs actual rows per step and the planner's
// decisions — rendered as an aligned text table.
func (c *Client) ExplainCtx(ctx context.Context, query string) (string, error) {
	resp, err := c.do(ctx, Request{Query: "!explain " + query})
	if err != nil {
		return "", err
	}
	if len(resp.Results) != 1 {
		return "", fmt.Errorf("gserver: !explain returned %d results, want 1", len(resp.Results))
	}
	m, ok := resp.Results[0].(map[string]any)
	if !ok {
		return "", fmt.Errorf("gserver: !explain returned %T, want map", resp.Results[0])
	}
	text, ok := m["text"].(string)
	if !ok {
		return "", fmt.Errorf("gserver: !explain report carries no text rendering")
	}
	return text, nil
}

// Analyze is AnalyzeCtx without a caller context.
func (c *Client) Analyze() (string, error) {
	return c.AnalyzeCtx(context.Background())
}

// AnalyzeCtx asks the server to recollect catalog statistics via the
// "!analyze" control request and returns the one-line collection summary.
// Fails with CodeBadRequest when the server was built without a statistics
// provider.
func (c *Client) AnalyzeCtx(ctx context.Context) (string, error) {
	resp, err := c.do(ctx, Request{Query: "!analyze"})
	if err != nil {
		return "", err
	}
	if len(resp.Results) != 1 {
		return "", fmt.Errorf("gserver: !analyze returned %d results, want 1", len(resp.Results))
	}
	text, ok := resp.Results[0].(string)
	if !ok {
		return "", fmt.Errorf("gserver: !analyze returned %T, want string", resp.Results[0])
	}
	return text, nil
}

// FlushCaches is FlushCachesCtx without a caller context.
func (c *Client) FlushCaches() error {
	return c.FlushCachesCtx(context.Background())
}

// FlushCachesCtx asks the server to drop its compiled-plan cache and any
// backend-internal caches via the "!flushcaches" control request. Useful
// before cold-cache measurements; never affects correctness.
func (c *Client) FlushCachesCtx(ctx context.Context) error {
	_, err := c.do(ctx, Request{Query: "!flushcaches"})
	return err
}

// do performs one request with the client's full deadline/retry policy.
func (c *Client) do(ctx context.Context, req Request) (Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()

	// Remember the caller's own context: when IT ends mid-exchange the
	// failure is reported as the context error (the caller gave up), while
	// a deadline we add below stays a transport-class timeout (the server
	// went silent).
	callerCtx := ctx
	if _, ok := ctx.Deadline(); !ok && c.opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.opts.Timeout)
		defer cancel()
	}

	wrap := func(err error) error {
		return fmt.Errorf("gserver: query %q on %s: %w", req.describe(), c.addr, err)
	}

	var lastErr error
	for attempt := 0; attempt <= c.opts.DialRetries; attempt++ {
		if attempt > 0 {
			// Don't schedule a retry the caller can never see: if the
			// remaining deadline cannot cover the backoff sleep itself,
			// surface the last transport error now.
			d := retryDelay(attempt, c.opts.RetryBase, c.opts.RetryMax)
			if deadlineTooClose(ctx, d) {
				return Response{}, wrap(lastErr)
			}
			if err := sleepCtx(ctx, d); err != nil {
				return Response{}, wrap(lastErr)
			}
			if err := c.redialLocked(ctx); err != nil {
				lastErr = err
				continue
			}
		}
		if c.conn == nil {
			if err := c.redialLocked(ctx); err != nil {
				lastErr = err
				continue
			}
		}
		resp, err := c.roundTripLocked(ctx, req)
		if err != nil {
			// Any transport failure poisons the framing; drop the
			// connection so the next attempt starts clean.
			c.conn.Close()
			c.conn = nil
			c.setLive(nil)
			if cerr := callerCtx.Err(); cerr != nil {
				return Response{}, wrap(cerr)
			}
			lastErr = err
			continue
		}
		if resp.Code != "" || resp.Error != "" {
			if sentinel, ok := sentinelByCode[resp.Code]; ok {
				return Response{}, fmt.Errorf("gserver: query %q on %s: %w: %s",
					req.describe(), c.addr, sentinel, resp.Error)
			}
			return Response{}, fmt.Errorf("gserver: query %q on %s: %s", req.describe(), c.addr, resp.Error)
		}
		return resp, nil
	}
	return Response{}, wrap(lastErr)
}

// roundTripLocked performs one request/response exchange on the live
// connection. Callers hold c.mu.
func (c *Client) roundTripLocked(ctx context.Context, req Request) (Response, error) {
	if dl, ok := ctx.Deadline(); ok {
		remaining := time.Until(dl)
		if remaining <= 0 {
			return Response{}, context.DeadlineExceeded
		}
		req.TimeoutMillis = remaining.Milliseconds()
		// Socket deadline slightly past the query deadline so the server's
		// own TIMEOUT response wins the race when it can.
		c.conn.SetDeadline(dl.Add(2 * time.Second))
	} else {
		c.conn.SetDeadline(time.Time{})
	}
	// A canceled context must unblock the socket read immediately — a
	// blackholed connection (partition) would otherwise hold the read until
	// the padded deadline above. Forcing the deadline on cancel turns the
	// stall into a prompt transport-class timeout the breaker can see.
	conn := c.conn
	stopCancel := context.AfterFunc(ctx, func() { conn.SetDeadline(time.Now()) })
	defer stopCancel()
	buf, err := marshalFrame(req)
	if err != nil {
		return Response{}, err
	}
	_, err = c.w.Write(buf.Bytes())
	putFrame(buf)
	if err != nil {
		return Response{}, err
	}
	if err := c.w.Flush(); err != nil {
		return Response{}, err
	}
	var resp Response
	if err := c.dec.Decode(&resp); err != nil {
		return Response{}, err
	}
	return resp, nil
}

// Close closes the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	c.setLive(nil)
	return err
}

// retryDelay computes the capped-exponential backoff before retry number
// attempt (1-based), with equal jitter: half the nominal delay is fixed and
// half is uniformly random, so synchronized clients hammering a recovering
// server spread out instead of retrying in lockstep.
func retryDelay(attempt int, base, max time.Duration) time.Duration {
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(half)+1))
}

// deadlineTooClose reports whether ctx's deadline cannot cover a sleep of d
// (plus a minimal margin for the attempt itself).
func deadlineTooClose(ctx context.Context, d time.Duration) bool {
	dl, ok := ctx.Deadline()
	if !ok {
		return false
	}
	return time.Until(dl) <= d
}

// sleepCtx sleeps d or returns early with ctx's error.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// shorten truncates a query for error messages.
func shorten(q string) string {
	const max = 80
	if len(q) <= max {
		return q
	}
	return q[:max] + "…"
}
