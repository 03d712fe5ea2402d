package gserver

// Binary GraphOp frames. Every GraphOp read (V, E, VerticesByIDs,
// EdgesForVertices, CountVertexEdges) travels as one length-prefixed binary
// frame in each direction; scripts, '!' control requests, mutations and the
// replication stream stay newline-terminated JSON. A frame is the byte
// frameBinary, which no JSON line can begin with, then the body length as a
// uvarint, then the body:
//
//	request: method byte, dir varint, epoch uvarint, timeout-ms varint,
//	         ids, then the query: 0 for nil, or 1 followed by ids, labels,
//	         preds (key, op varint, value, within values) and the
//	         projection (0 for nil, else length+1 then the keys)
//	reply:   code, error, then replyNone, replyCount and a varint count, or
//	         replyColumns and the graphenc.ColumnBatch bytes to the end
//
// Lists are a uvarint length and their items; strings and values use the
// graphenc encodings, so float predicate values keep their exact bits.
// Request decoding is strict (minimal varints, no trailing bytes), so every
// request body that decodes re-encodes to the same bytes.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"db2graph/internal/graph"
	"db2graph/internal/graphenc"
	"db2graph/internal/sql/types"
)

// frameBinary is the first byte of a binary frame. A JSON line begins with
// a value or whitespace, never a NUL.
const frameBinary = 0x00

// readOps are the methods that travel as binary frames; a method's index
// is its byte on the wire.
var readOps = [...]string{OpV, OpE, OpVerticesByIDs, OpEdgesForVertices, OpCountVertexEdges}

// readOpCode returns the wire byte of a read method.
func readOpCode(method string) (byte, bool) {
	for i, m := range readOps {
		if m == method {
			return byte(i), true
		}
	}
	return 0, false
}

// isBinaryRequest reports whether req travels as a binary frame.
func isBinaryRequest(req Request) bool {
	if req.GraphOp == nil {
		return false
	}
	_, ok := readOpCode(req.GraphOp.Method)
	return ok
}

// Reply payload tags.
const (
	replyNone    = 0
	replyCount   = 1
	replyColumns = 2
)

var (
	// errFrameTooLarge: a frame announced or ran past the reader's bound.
	errFrameTooLarge = errors.New("gserver: frame too large")
	// errBadFrame: the frame header is malformed; the stream position is
	// lost.
	errBadFrame = errors.New("gserver: malformed frame header")
	// errUvarintOverflow is the error binary.ReadUvarint returns for a
	// length that overflows 64 bits; its other errors come from the reader.
	_, errUvarintOverflow = binary.ReadUvarint(bytes.NewReader(bytes.Repeat([]byte{0xff}, binary.MaxVarintLen64)))
)

// frameReader reads either kind of frame from one connection.
type frameReader struct {
	r *bufio.Reader
	// max bounds one frame's body (a line without its newline); 0 means
	// unbounded. A binary frame announcing more fails before anything of
	// that size is allocated.
	max int
	// fresh makes every binary body a new allocation, for callers that keep
	// the body past the next read (a reply's Columns). Otherwise bodies and
	// lines share one buffer, valid until the next call.
	fresh bool
	buf   []byte
}

// next returns the next frame's body and whether it is a binary frame.
// Blank lines are skipped; a line's trailing "\n" or "\r\n" is dropped.
func (fr *frameReader) next() (body []byte, bin bool, err error) {
	for {
		first, err := fr.r.Peek(1)
		if err != nil {
			return nil, false, err
		}
		if first[0] == frameBinary {
			fr.r.Discard(1)
			body, err := fr.readBody()
			return body, true, err
		}
		line, err := fr.readLine()
		if err != nil || len(line) > 0 {
			return line, false, err
		}
	}
}

// readBody reads a binary frame's length and body. The buffer grows as the
// body arrives, at most doubling what was read so far, so a peer that
// announces a length without sending it cannot make the reader allocate it.
func (fr *frameReader) readBody() ([]byte, error) {
	n, err := binary.ReadUvarint(fr.r)
	switch {
	case err == errUvarintOverflow:
		return nil, errBadFrame
	case err != nil:
		return nil, noEOF(err)
	}
	if fr.max > 0 && n > uint64(fr.max) || n > math.MaxInt {
		return nil, errFrameTooLarge
	}
	var buf []byte
	if !fr.fresh {
		buf = fr.buf[:0]
	}
	for uint64(len(buf)) < n {
		step := int(min(n-uint64(len(buf)), uint64(max(len(buf), 64<<10))))
		buf = slices.Grow(buf, step)
		got, err := io.ReadFull(fr.r, buf[len(buf):len(buf)+step])
		buf = buf[:len(buf)+got]
		if err != nil {
			return nil, noEOF(err)
		}
	}
	if !fr.fresh {
		fr.keep(buf)
	}
	return buf, nil
}

// readLine reads one line into the shared buffer, failing once it runs past
// max.
func (fr *frameReader) readLine() ([]byte, error) {
	line := fr.buf[:0]
	for {
		chunk, err := fr.r.ReadSlice('\n')
		line = append(line, chunk...)
		n := len(line)
		if err == nil {
			n-- // the newline
		}
		if fr.max > 0 && n > fr.max {
			return nil, errFrameTooLarge
		}
		switch {
		case err == nil:
			fr.keep(line)
			line = line[:n]
			if n > 0 && line[n-1] == '\r' {
				line = line[:n-1]
			}
			return line, nil
		case errors.Is(err, bufio.ErrBufferFull):
		case errors.Is(err, io.EOF) && len(line) > 0:
			// A final line without its newline still counts.
			fr.keep(line)
			return line, nil
		default:
			return nil, err
		}
	}
}

// keep retains buf for reuse unless it grew past maxPooledFrame.
func (fr *frameReader) keep(buf []byte) {
	if cap(buf) <= maxPooledFrame {
		fr.buf = buf
	}
}

// noEOF reports a stream that ends inside a frame as truncated.
func noEOF(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// writeBinaryFrame writes body as one binary frame.
func writeBinaryFrame(w *bufio.Writer, body []byte) error {
	var hdr [1 + binary.MaxVarintLen64]byte
	h := binary.AppendUvarint(append(hdr[:0], frameBinary), uint64(len(body)))
	if _, err := w.Write(h); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// appendRequest appends the body of a binary GraphOp read request.
// req must travel as one (isBinaryRequest).
func appendRequest(buf []byte, req Request) []byte {
	op := req.GraphOp
	code, _ := readOpCode(op.Method)
	buf = append(buf, code)
	buf = binary.AppendVarint(buf, int64(op.Dir))
	buf = binary.AppendUvarint(buf, op.Epoch)
	buf = binary.AppendVarint(buf, req.TimeoutMillis)
	buf = appendStrings(buf, op.IDs)
	q := op.Query
	if q == nil {
		return append(buf, 0)
	}
	buf = append(buf, 1)
	buf = appendStrings(buf, q.IDs)
	buf = appendStrings(buf, q.Labels)
	buf = binary.AppendUvarint(buf, uint64(len(q.Preds)))
	for _, p := range q.Preds {
		buf = graphenc.AppendString(buf, p.Key)
		buf = binary.AppendVarint(buf, int64(p.Op))
		buf = graphenc.AppendValue(buf, p.Value)
		buf = binary.AppendUvarint(buf, uint64(len(p.Values)))
		for _, v := range p.Values {
			buf = graphenc.AppendValue(buf, v)
		}
	}
	if q.Projection == nil {
		return append(buf, 0)
	}
	buf = binary.AppendUvarint(buf, uint64(len(q.Projection))+1)
	for _, k := range q.Projection {
		buf = graphenc.AppendString(buf, k)
	}
	return buf
}

func appendStrings(buf []byte, ss []string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ss)))
	for _, s := range ss {
		buf = graphenc.AppendString(buf, s)
	}
	return buf
}

// decodeRequest decodes a binary GraphOp read request body. Its strings
// share one copy of body, so body may be reused afterwards. Empty lists
// decode as nil, except a Projection, whose nil and empty forms differ.
func decodeRequest(body []byte) (Request, error) {
	d := decoder{s: string(body)}
	op := &GraphOp{}
	if code := d.byte(); int(code) < len(readOps) {
		op.Method = readOps[code]
	} else {
		d.fail(fmt.Errorf("unknown graph op code %d", code))
	}
	op.Dir = graph.Direction(d.varint())
	op.Epoch = d.uvarint()
	timeout := d.varint()
	op.IDs = d.strings()
	switch d.byte() {
	case 0:
	case 1:
		q := &graph.Query{IDs: d.strings(), Labels: d.strings()}
		if n := d.count(); n > 0 {
			q.Preds = make([]graph.Pred, n)
			for i := range q.Preds {
				p := &q.Preds[i]
				p.Key = d.string()
				p.Op = graph.PredOp(d.varint())
				p.Value = d.value()
				if m := d.count(); m > 0 {
					p.Values = make([]types.Value, m)
					for j := range p.Values {
						p.Values[j] = d.value()
					}
				}
			}
		}
		if n := d.uvarint(); n > 0 && d.fits(n-1) {
			q.Projection = d.stringN(int(n - 1))
		}
		op.Query = q
	default:
		d.fail(fmt.Errorf("bad query marker"))
	}
	if err := d.end(); err != nil {
		return Request{}, err
	}
	return Request{GraphOp: op, TimeoutMillis: timeout}, nil
}

// appendReply appends the body of a binary reply.
func appendReply(buf []byte, resp *Response) []byte {
	buf = graphenc.AppendString(buf, resp.Code)
	buf = graphenc.AppendString(buf, resp.Error)
	switch {
	case resp.reply != nil:
		return resp.reply.appendTo(append(buf, replyColumns))
	case resp.Count != nil:
		return binary.AppendVarint(append(buf, replyCount), *resp.Count)
	default:
		return append(buf, replyNone)
	}
}

// decodeReply decodes a binary reply body. Columns aliases body.
func decodeReply(body []byte) (Response, error) {
	var resp Response
	var err error
	rest := body
	if resp.Code, rest, err = graphenc.ReadString(rest); err != nil {
		return Response{}, fmt.Errorf("gserver: bad reply code: %w", err)
	}
	if resp.Error, rest, err = graphenc.ReadString(rest); err != nil {
		return Response{}, fmt.Errorf("gserver: bad reply error: %w", err)
	}
	if len(rest) == 0 {
		return Response{}, fmt.Errorf("gserver: reply has no payload tag")
	}
	switch tag := rest[0]; tag {
	case replyNone:
		if len(rest) != 1 {
			return Response{}, fmt.Errorf("gserver: %d trailing bytes after reply", len(rest)-1)
		}
	case replyCount:
		n, k := binary.Varint(rest[1:])
		if k <= 0 || 1+k != len(rest) {
			return Response{}, fmt.Errorf("gserver: bad reply count")
		}
		resp.Count = &n
	case replyColumns:
		resp.Columns = rest[1:]
	default:
		return Response{}, fmt.Errorf("gserver: unknown reply tag %d", tag)
	}
	return resp, nil
}

// decoder reads a body with the graphenc Cut* readers, keeping the first
// error; every read after it returns a zero value.
type decoder struct {
	s   string
	err error
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
		d.s = ""
	}
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.s) == 0 {
		d.fail(io.ErrUnexpectedEOF)
		return 0
	}
	b := d.s[0]
	d.s = d.s[1:]
	return b
}

// cut applies one graphenc Cut* reader to the rest of the body.
func cut[T any](d *decoder, read func(string) (T, string, error)) T {
	var v T
	if d.err != nil {
		return v
	}
	v, rest, err := read(d.s)
	if err != nil {
		d.fail(err)
		return v
	}
	d.s = rest
	return v
}

func (d *decoder) uvarint() uint64 { return cut(d, graphenc.CutUvarint) }

func (d *decoder) varint() int64 { return cut(d, graphenc.CutVarint) }

func (d *decoder) string() string { return cut(d, graphenc.CutString) }

func (d *decoder) value() types.Value { return cut(d, graphenc.CutValue) }

// fits reports whether n list items can fit in the rest of the body (each
// takes at least one byte), so a forged length cannot force a large
// allocation.
func (d *decoder) fits(n uint64) bool {
	if n > uint64(len(d.s)) {
		d.fail(fmt.Errorf("list of %d items overruns the frame", n))
		return false
	}
	return true
}

// count reads a list length.
func (d *decoder) count() int {
	if n := d.uvarint(); d.fits(n) {
		return int(n)
	}
	return 0
}

// strings reads a string list; an empty one is nil.
func (d *decoder) strings() []string {
	if n := d.count(); n > 0 {
		return d.stringN(n)
	}
	return nil
}

func (d *decoder) stringN(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = d.string()
	}
	return out
}

// end reports the first error, or trailing bytes.
func (d *decoder) end() error {
	if d.err != nil {
		return fmt.Errorf("gserver: bad frame body: %w", d.err)
	}
	if len(d.s) != 0 {
		return fmt.Errorf("gserver: bad frame body: %d trailing bytes", len(d.s))
	}
	return nil
}
