package gserver

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"testing"
	"time"

	"db2graph/internal/graph"
	"db2graph/internal/graphenc"
	"db2graph/internal/gremlin"
	"db2graph/internal/sql/types"
	"db2graph/internal/telemetry"
)

// frameBytes wraps body as one binary frame.
func frameBytes(body []byte) []byte {
	var b bytes.Buffer
	w := bufio.NewWriter(&b)
	if err := writeBinaryFrame(w, body); err != nil {
		panic(err)
	}
	w.Flush()
	return b.Bytes()
}

// TestRequestFrameRoundTrip: a read request survives the binary request
// frame exactly: method, dir, epoch, timeout, ids, a nil query as distinct
// from an empty one, a nil Projection as distinct from an empty one,
// OpWithin values, and predicate floats bit for bit (a NaN payload, ±Inf,
// −0.0, none of which JSON can carry).
func TestRequestFrameRoundTrip(t *testing.T) {
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	floats := []float64{nan, math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1.5}
	var within []types.Value
	for _, f := range floats {
		within = append(within, types.NewFloat(f))
	}
	within = append(within, types.NewString("x"), types.NewInt(-7), types.Null, types.NewBool(true))
	reqs := []Request{
		{GraphOp: &GraphOp{Method: OpV}},
		{GraphOp: &GraphOp{Method: OpE, Query: &graph.Query{}}, TimeoutMillis: 250},
		{GraphOp: &GraphOp{Method: OpV, Query: &graph.Query{Projection: []string{}}}},
		{GraphOp: &GraphOp{Method: OpV, Query: &graph.Query{Projection: []string{"name", "age"}}}},
		{GraphOp: &GraphOp{Method: OpVerticesByIDs, IDs: []string{"a", "", "a", "ü"}, Epoch: 1<<63 + 5}},
		{GraphOp: &GraphOp{Method: OpEdgesForVertices, IDs: []string{"p1"}, Dir: graph.DirIn,
			Query: &graph.Query{IDs: []string{"e1"}, Labels: []string{"knows", "likes"}}}},
		{GraphOp: &GraphOp{Method: OpCountVertexEdges, IDs: []string{"p1", "p2"}, Dir: graph.DirBoth, Epoch: 3,
			Query: &graph.Query{Preds: []graph.Pred{
				{Key: "w", Op: graph.OpWithin, Values: within},
				{Key: "f", Op: graph.OpLt, Value: types.NewFloat(nan)},
				{Key: "g", Op: graph.OpGte, Value: types.NewFloat(math.Copysign(0, -1))},
				{Key: graph.KeyLabel, Op: graph.OpEq, Value: types.NewString("patient")},
			}}}},
		{GraphOp: &GraphOp{Method: OpCountVertexEdges, Dir: -1}, TimeoutMillis: -3},
		{GraphOp: &GraphOp{Method: OpCountVertexEdges, Dir: 1 << 40}},
	}
	for i, req := range reqs {
		body := appendRequest(nil, req)
		fr := &frameReader{r: bufio.NewReader(bytes.NewReader(frameBytes(body)))}
		got, bin, err := fr.next()
		if err != nil || !bin || !bytes.Equal(got, body) {
			t.Fatalf("req %d: frame read %q, %v, %v", i, got, bin, err)
		}
		dec, err := decodeRequest(got)
		if err != nil {
			t.Fatalf("req %d: decode: %v", i, err)
		}
		want, op := req.GraphOp, dec.GraphOp
		if op.Method != want.Method || op.Dir != want.Dir || op.Epoch != want.Epoch ||
			dec.TimeoutMillis != req.TimeoutMillis || fmt.Sprint(op.IDs) != fmt.Sprint(want.IDs) {
			t.Fatalf("req %d: header %+v (timeout %d), want %+v (timeout %d)", i, op, dec.TimeoutMillis, want, req.TimeoutMillis)
		}
		if (op.Query == nil) != (want.Query == nil) {
			t.Fatalf("req %d: query nil = %v, want %v", i, op.Query == nil, want.Query == nil)
		}
		if q, wq := op.Query, want.Query; q != nil {
			if (q.Projection == nil) != (wq.Projection == nil) || fmt.Sprint(q.Projection) != fmt.Sprint(wq.Projection) {
				t.Fatalf("req %d: projection %#v, want %#v", i, q.Projection, wq.Projection)
			}
			if fmt.Sprint(q.IDs, q.Labels) != fmt.Sprint(wq.IDs, wq.Labels) || len(q.Preds) != len(wq.Preds) {
				t.Fatalf("req %d: query %+v, want %+v", i, q, wq)
			}
			for j, p := range q.Preds {
				wp := wq.Preds[j]
				if p.Key != wp.Key || p.Op != wp.Op || !sameBits(p.Value, wp.Value) || len(p.Values) != len(wp.Values) {
					t.Fatalf("req %d pred %d: %+v, want %+v", i, j, p, wp)
				}
				for k := range p.Values {
					if !sameBits(p.Values[k], wp.Values[k]) {
						t.Fatalf("req %d pred %d value %d: %+v, want %+v", i, j, k, p.Values[k], wp.Values[k])
					}
				}
			}
		}
		if again := appendRequest(nil, dec); !bytes.Equal(again, body) {
			t.Fatalf("req %d: re-encoded to different bytes", i)
		}
	}
}

// sameBits compares two values exactly, floats by their bits.
func sameBits(a, b types.Value) bool {
	if a.Kind == types.KindFloat && b.Kind == types.KindFloat {
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	}
	return a == b
}

// TestReplyFrameRoundTrip: count 0 stays a count (not a missing one), a
// negative count reaches the client's check, errors keep code and text,
// and an element batch keeps nil and empty groups apart.
func TestReplyFrameRoundTrip(t *testing.T) {
	zero, neg := int64(0), int64(-4)
	e := &graph.Element{ID: "e1", Label: "knows", IsEdge: true, OutV: "a", InV: "b"}
	for name, r := range map[string]Response{
		"zero":     {Count: &zero},
		"negative": {Count: &neg},
		"error":    {Code: CodeBadRequest, Error: "no"},
		"groups":   {reply: &elementReply{groups: [][]*graph.Element{nil, {}, {e}, nil}, grouped: true}},
		"flat":     {reply: &elementReply{els: []*graph.Element{nil, e}}},
		"empty":    {reply: &elementReply{grouped: true}},
	} {
		fr := &frameReader{r: bufio.NewReader(bytes.NewReader(frameBytes(appendReply(nil, &r)))), fresh: true}
		body, bin, err := fr.next()
		if err != nil || !bin {
			t.Fatalf("%s: frame read %v, %v", name, bin, err)
		}
		got, err := decodeReply(body)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if got.Code != r.Code || got.Error != r.Error || (got.Count == nil) != (r.Count == nil) ||
			r.Count != nil && *got.Count != *r.Count || (got.Columns == nil) != (r.reply == nil) {
			t.Fatalf("%s: decoded %+v, want %+v", name, got, r)
		}
		if r.reply == nil {
			continue
		}
		els, groups, err := got.ElementBatch()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !r.reply.grouped {
			if groups != nil || fmt.Sprint(els) != fmt.Sprint(r.reply.els) {
				t.Fatalf("%s: %v %v, want %v", name, els, groups, r.reply.els)
			}
			continue
		}
		if len(groups) != len(r.reply.groups) {
			t.Fatalf("%s: %d groups, want %d", name, len(groups), len(r.reply.groups))
		}
		for i, g := range groups {
			if w := r.reply.groups[i]; (g == nil) != (w == nil) || fmt.Sprint(g) != fmt.Sprint(w) {
				t.Fatalf("%s: group %d = %#v, want %#v", name, i, g, w)
			}
		}
	}
	if n, err := (&Response{Count: &zero}).EdgeCount(); err != nil || n != 0 {
		t.Fatalf("count 0 = %d, %v", n, err)
	}
}

// TestReplyOutlivesNextExchange: a reply's Columns stays valid after the
// client has run its next exchange, as the cluster coordinator decodes a
// shard reply after releasing the client.
func TestReplyOutlivesNextExchange(t *testing.T) {
	addr, _ := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	first, err := c.GraphOp(GraphOp{Method: OpV})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := first.ElementBatch()
	if err != nil {
		t.Fatal(err)
	}
	held, err := c.GraphOp(GraphOp{Method: OpV})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.GraphOp(GraphOp{Method: OpE}); err != nil {
		t.Fatal(err)
	}
	got, _, err := held.ElementBatch()
	if err != nil || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("held reply after the next exchange: %v, %v; want %v", got, err, want)
	}
}

// TestOversizedFrameAnnouncement: a frame that announces more than
// MaxRequestBytes is answered with BAD_REQUEST and a dropped connection,
// before anything of the announced size is allocated.
func TestOversizedFrameAnnouncement(t *testing.T) {
	addr, _ := startServer(t)
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	raw.Write(binary.AppendUvarint([]byte{frameBinary}, 1<<40))
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	fr := &frameReader{r: bufio.NewReader(raw), fresh: true}
	body, bin, err := fr.next()
	if err != nil || !bin {
		t.Fatalf("reply to an oversized frame: %v, binary %v", err, bin)
	}
	resp, err := decodeReply(body)
	if err != nil || resp.Code != CodeBadRequest {
		t.Fatalf("reply = %+v, %v; want BAD_REQUEST", resp, err)
	}
	if _, _, err := fr.next(); !errors.Is(err, io.EOF) {
		t.Fatalf("connection still open after an oversized frame: %v", err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
		t.Fatalf("an oversized announcement allocated %d bytes", grew)
	}

	// The server still answers.
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.GraphOp(GraphOp{Method: OpV}); err != nil {
		t.Fatal(err)
	}
}

// TestMalformedFrames: a binary frame whose body does not decode is a
// BAD_REQUEST that keeps the connection (the framing is intact), and a
// GraphOp read sent as a JSON line is refused, since reads have one
// encoding.
func TestMalformedFrames(t *testing.T) {
	addr, _ := startServer(t)
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	raw.SetDeadline(time.Now().Add(5 * time.Second))
	fr := &frameReader{r: bufio.NewReader(raw), fresh: true}
	reply := func() Response {
		t.Helper()
		body, bin, err := fr.next()
		if err != nil {
			t.Fatal(err)
		}
		var resp Response
		if bin {
			resp, err = decodeReply(body)
		} else {
			err = json.Unmarshal(body, &resp)
		}
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	raw.Write(frameBytes([]byte{0x7f, 1, 2}))
	if r := reply(); r.Code != CodeBadRequest {
		t.Fatalf("garbage body: %+v, want BAD_REQUEST", r)
	}
	raw.Write(frameBytes(appendRequest(nil, Request{GraphOp: &GraphOp{Method: OpCountVertexEdges, IDs: []string{"p1"}}})))
	if r := reply(); r.Code != "" || r.Count == nil || *r.Count != 1 {
		t.Fatalf("count after a bad frame: %+v", r)
	}
	raw.Write([]byte(`{"graph_op":{"method":"V"}}` + "\n"))
	if r := reply(); r.Code != CodeBadRequest {
		t.Fatalf("JSON graph read: %+v, want BAD_REQUEST", r)
	}
}

// TestFrameHeaderErrors: a length that overflows 64 bits is a malformed
// header, and a stream that ends inside the header is truncated.
func TestFrameHeaderErrors(t *testing.T) {
	for name, tc := range map[string]struct {
		data []byte
		want error
	}{
		"overflow":  {append([]byte{frameBinary}, bytes.Repeat([]byte{0xff}, 10)...), errBadFrame},
		"no length": {[]byte{frameBinary}, io.ErrUnexpectedEOF},
		"cut":       {[]byte{frameBinary, 0x80}, io.ErrUnexpectedEOF},
	} {
		fr := &frameReader{r: bufio.NewReader(bytes.NewReader(tc.data))}
		if _, _, err := fr.next(); !errors.Is(err, tc.want) {
			t.Fatalf("%s: err = %v, want %v", name, err, tc.want)
		}
	}
}

// FuzzGraphOpRequest: arbitrary bytes through the binary request decoder
// either error or decode, and a decoded request re-encodes to the same
// bytes, framed or not.
func FuzzGraphOpRequest(f *testing.F) {
	nan := math.Float64frombits(0x7ff0_0000_0000_0001)
	for _, req := range []Request{
		{GraphOp: &GraphOp{Method: OpV}},
		{GraphOp: &GraphOp{Method: OpV, Query: &graph.Query{Projection: []string{}}}},
		{GraphOp: &GraphOp{Method: OpVerticesByIDs, IDs: []string{"a", "b"}, Query: &graph.Query{Projection: []string{"k"}}}, TimeoutMillis: 9},
		{GraphOp: &GraphOp{Method: OpCountVertexEdges, IDs: []string{"v"}, Dir: graph.DirIn, Epoch: 2,
			Query: &graph.Query{Labels: []string{"l"}, Preds: []graph.Pred{
				{Key: "w", Op: graph.OpWithin, Values: []types.Value{types.NewFloat(nan), types.NewInt(1)}},
				{Key: "x", Op: graph.OpGt, Value: types.NewFloat(math.Inf(-1))}}}}},
		// A duplicated frontier: the ids repeat, and must round-trip as sent.
		{GraphOp: &GraphOp{Method: OpCountVertexEdges, IDs: []string{"v", "w", "v", "v"}, Dir: graph.DirOut}},
	} {
		f.Add(appendRequest(nil, req))
	}
	f.Add([]byte{})
	f.Add([]byte{9})
	f.Add([]byte{0, 0x80, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeRequest(data)
		if err != nil {
			return
		}
		if !isBinaryRequest(req) {
			t.Fatalf("decoded a request that does not travel binary: %+v", req.GraphOp)
		}
		if again := appendRequest(nil, req); !bytes.Equal(again, data) {
			t.Fatalf("re-encoded %x, want %x", again, data)
		}
		fr := &frameReader{r: bufio.NewReader(bytes.NewReader(frameBytes(data))), max: defaultMaxRequestBytes}
		body, bin, err := fr.next()
		if err != nil || !bin || !bytes.Equal(body, data) {
			t.Fatalf("framed body read back as %x, %v, %v", body, bin, err)
		}
	})
}

// FuzzGraphOpReply: an arbitrary reply stream, read as the client reads it
// (a binary frame or a JSON line), goes through both read-reply decoders.
// Each either errors or yields a well-formed reply, and never both: one
// non-negative count with no element batch, or an element batch (with
// groups that sum to the batch) with no count.
func FuzzGraphOpReply(f *testing.F) {
	e := &graph.Element{ID: "e1", Label: "knows", IsEdge: true, OutV: "a", InV: "b",
		Props: map[string]types.Value{"w": types.NewFloat(1.5)}}
	v := &graph.Element{ID: "a", Label: "user"}
	frame := func(r Response) []byte { return frameBytes(appendReply(nil, &r)) }
	zero, three, neg := int64(0), int64(3), int64(-4)
	f.Add(frame(Response{Count: &zero}))
	f.Add(frame(Response{Count: &three}))
	f.Add(frame(Response{Count: &neg}))
	f.Add(frame(Response{reply: &elementReply{els: []*graph.Element{v, nil, e}}}))
	f.Add(frame(Response{reply: &elementReply{groups: [][]*graph.Element{{e}, nil, {}}, grouped: true}}))
	f.Add(frame(Response{Code: CodeTimeout, Error: "late"}))
	cols := graphenc.AppendColumns(nil, graph.ColumnizeElements([]*graph.Element{v}, nil))
	f.Add(frameBytes(append([]byte{0, 0, replyCount, 6}, cols...))) // count then trailing batch
	f.Add(frameBytes([]byte{0, 0, 9}))
	f.Add(frameBytes(nil))
	f.Add([]byte(`{}` + "\n"))
	f.Add([]byte(`{"count":1,"columns":"AAAA"}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := &frameReader{r: bufio.NewReader(bytes.NewReader(data)), fresh: true}
		body, bin, err := fr.next()
		if err != nil {
			return
		}
		var r Response
		if bin {
			r, err = decodeReply(body)
		} else {
			err = json.Unmarshal(body, &r)
		}
		if err != nil {
			return
		}
		n, cerr := r.EdgeCount()
		els, groups, eerr := r.ElementBatch()
		if cerr == nil && eerr == nil {
			t.Fatalf("reply decoded both as count %d and as %d elements", n, len(els))
		}
		if cerr == nil && (r.Count == nil || n != *r.Count || n < 0 || len(r.Columns) != 0) {
			t.Fatalf("count %d decoded from a malformed count reply", n)
		}
		if eerr == nil {
			if r.Count != nil {
				t.Fatal("element reply carrying a count decoded")
			}
			if groups != nil {
				total := 0
				for _, g := range groups {
					total += len(g)
				}
				if total != len(els) {
					t.Fatalf("groups hold %d edges, batch %d", total, len(els))
				}
			}
		}
	})
}

// BenchmarkGraphOpRoundTrip times one loopback exchange as the cluster
// coordinator makes it, reply decode included: a VerticesByIDs of 256 ids
// and an EdgesForVertices of the same 256 vertices over a 4,096-vertex
// memory graph with four out edges per vertex.
func BenchmarkGraphOpRoundTrip(b *testing.B) {
	m := graph.NewMemBackend()
	const nv = 4096
	for i := 0; i < nv; i++ {
		if err := m.AddVertex(&graph.Element{ID: fmt.Sprintf("v%d", i), Label: "user",
			Props: map[string]types.Value{"name": types.NewString(fmt.Sprintf("user %d", i)), "age": types.NewInt(int64(i % 90))}}); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < nv*4; i++ {
		if err := m.AddEdge(&graph.Element{ID: fmt.Sprintf("e%d", i), Label: "knows", OutV: fmt.Sprintf("v%d", i/4),
			InV: fmt.Sprintf("v%d", (i*7919)%nv), Props: map[string]types.Value{"w": types.NewFloat(float64(i) / 3)}}); err != nil {
			b.Fatal(err)
		}
	}
	srv := NewWithConfig(gremlin.NewSource(m), Config{Registry: telemetry.NewRegistry()})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	ids := make([]string, 256)
	for i := range ids {
		ids[i] = fmt.Sprintf("v%d", (i*13)%nv)
	}
	for _, op := range []GraphOp{
		{Method: OpVerticesByIDs, IDs: ids},
		{Method: OpEdgesForVertices, IDs: ids, Dir: graph.DirOut},
	} {
		b.Run(op.Method, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				resp, err := c.GraphOpCtx(context.Background(), op)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := resp.ElementBatch(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
