// Graph-operation protocol: the remote-backend extension of the gserver
// wire format. A Request carrying a GraphOp bypasses the Gremlin engine and
// executes one graph.Backend / graph.BatchBackend read directly against the
// server's backend, under the same lifecycle as a query (admission control,
// deadline, panic isolation). The cluster coordinator speaks this protocol
// to scatter batched lookups to shard servers. Every read reply carries its
// elements in one shape: a binary graphenc.ColumnBatch in Response.Columns
// that round-trips graph.Element bit-exactly (NaN and signed-zero floats
// included), minus the provider-opaque Ref field, which is an optimization
// hint, not data. WireElement is the JSON element shape of mutation and
// replication payloads only.
package gserver

import (
	"context"
	"fmt"

	"db2graph/internal/graph"
	"db2graph/internal/graphenc"
	"db2graph/internal/sql/types"
)

// Graph-operation method names. Only set-oriented idempotent reads are
// exposed: scans plus the two BatchBackend multi-gets. Everything else a
// distributed executor needs (flat VertexEdges, EdgeVertices, aggregates)
// is derivable from these four on the coordinator side.
const (
	OpV                = "V"
	OpE                = "E"
	OpVerticesByIDs    = "VerticesByIDs"
	OpEdgesForVertices = "EdgesForVertices"
)

// Mutation method names. Unlike the reads above these are NOT idempotent and
// a transport failure after send leaves them indeterminate: callers (the
// cluster coordinator) must not retry them blindly. On a replicated shard
// they are accepted only by an unfenced primary whose epoch matches the
// request's (see replication.go).
const (
	OpAddVertex = "AddVertex"
	OpAddEdge   = "AddEdge"
)

// GraphOp is one remote backend read. Exactly one Method is named; IDs and
// Dir are consumed only by the methods that take them. Query serializes
// graph.Query directly (all fields are exported and JSON-exact, including
// the nil-vs-empty Projection distinction).
type GraphOp struct {
	// Method is one of the Op* constants.
	Method string `json:"method"`
	// IDs are the vertex ids for VerticesByIDs/EdgesForVertices.
	IDs []string `json:"ids,omitempty"`
	// Dir orients EdgesForVertices.
	Dir graph.Direction `json:"dir,omitempty"`
	// Query is the pushdown filter, applied with the semantics of the
	// named Backend method.
	Query *graph.Query `json:"query,omitempty"`
	// Element is the vertex/edge payload for AddVertex/AddEdge.
	Element *WireElement `json:"element,omitempty"`
	// OutVElement/InVElement carry full endpoint elements with AddEdge so a
	// shard that does not own an endpoint can upsert a ghost copy before
	// inserting the edge (dual-homed edge placement).
	OutVElement *WireElement `json:"outv_element,omitempty"`
	InVElement  *WireElement `json:"inv_element,omitempty"`
	// Epoch is the replication epoch the writer believes current; a
	// replicated server rejects mutations from another epoch with CodeFenced
	// so a deposed primary's clients cannot get acks. Zero skips the check
	// (direct single-node writes).
	Epoch uint64 `json:"epoch,omitempty"`
}

// WireElement is the JSON shape of a graph.Element in mutation and
// replication payloads. types.Value is a flat tagged union of exported
// fields, so properties round-trip bit-exactly (JSON encodes int64 digits
// literally and floats in shortest round-trip form), except that JSON has
// no NaN or ±Inf: such a property cannot be written through this shape.
// Ref is deliberately dropped: it is a provider-local optimization handle
// with no meaning across the wire.
type WireElement struct {
	ID     string                 `json:"id"`
	Label  string                 `json:"label,omitempty"`
	Props  map[string]types.Value `json:"props,omitempty"`
	IsEdge bool                   `json:"edge,omitempty"`
	OutV   string                 `json:"out,omitempty"`
	InV    string                 `json:"in,omitempty"`
	Table  string                 `json:"table,omitempty"`
}

// ToWire converts one element; nil maps to nil (aligned-slot semantics).
func ToWire(el *graph.Element) *WireElement {
	if el == nil {
		return nil
	}
	return &WireElement{
		ID: el.ID, Label: el.Label, Props: el.Props,
		IsEdge: el.IsEdge, OutV: el.OutV, InV: el.InV, Table: el.Table,
	}
}

// FromWire converts one wire element back; nil maps to nil.
func (w *WireElement) FromWire() *graph.Element {
	if w == nil {
		return nil
	}
	return &graph.Element{
		ID: w.ID, Label: w.Label, Props: w.Props,
		IsEdge: w.IsEdge, OutV: w.OutV, InV: w.InV, Table: w.Table,
	}
}

// graphOpResponse executes one graph operation against the server's batched
// backend view. Called from the query goroutine, so panics are isolated by
// the same recover as Gremlin execution and ctx carries the request
// deadline.
func (s *Server) graphOpResponse(ctx context.Context, op *GraphOp) Response {
	switch op.Method {
	case OpV:
		els, err := s.batch.V(ctx, op.Query)
		if err != nil {
			return errorResponse(err)
		}
		return Response{reply: &elementReply{els: els}}
	case OpE:
		els, err := s.batch.E(ctx, op.Query)
		if err != nil {
			return errorResponse(err)
		}
		return Response{reply: &elementReply{els: els}}
	case OpVerticesByIDs:
		els, err := s.batch.VerticesByIDs(ctx, op.IDs, op.Query)
		if err != nil {
			return errorResponse(err)
		}
		return Response{reply: &elementReply{els: els}}
	case OpEdgesForVertices:
		groups, err := s.batch.EdgesForVertices(ctx, op.IDs, op.Dir, op.Query)
		if err != nil {
			return errorResponse(err)
		}
		return Response{reply: &elementReply{groups: groups, grouped: true}}
	case OpAddVertex, OpAddEdge:
		return s.applyMutation(ctx, op)
	default:
		return Response{Code: CodeBadRequest, Error: fmt.Sprintf("unknown graph op %q", op.Method)}
	}
}

// elementReply is a read op's result awaiting serialization into
// Response.Columns. grouped marks an EdgesForVertices result, whose groups
// may legitimately be nil.
type elementReply struct {
	els     []*graph.Element
	groups  [][]*graph.Element
	grouped bool
}

// appendTo columnizes the result and appends it to buf as one element
// batch.
func (r *elementReply) appendTo(buf []byte) []byte {
	if r.grouped {
		return graphenc.AppendColumns(buf, graph.ColumnizeGroups(r.groups))
	}
	return graphenc.AppendColumns(buf, graph.ColumnizeElements(r.els))
}

// ElementBatch decodes the Columns payload of a GraphOp read reply. els is
// the aligned element slice of a V, E or VerticesByIDs reply (unresolved ids
// stay nil slots); for an EdgesForVertices reply it is the concatenation of
// the groups, and groups holds one aligned group per requested vertex id.
// groups is nil for the other three ops.
func (r *Response) ElementBatch() (els []*graph.Element, groups [][]*graph.Element, err error) {
	if len(r.Columns) == 0 {
		return nil, nil, fmt.Errorf("gserver: response carries no element batch")
	}
	cb, err := graphenc.DecodeColumns(r.Columns)
	if err != nil {
		return nil, nil, fmt.Errorf("gserver: bad element batch: %w", err)
	}
	els, groups = graph.ElementsFromColumns(cb)
	return els, groups, nil
}

// GraphOp is GraphOpCtx without a caller context.
func (c *Client) GraphOp(op GraphOp) (Response, error) {
	return c.GraphOpCtx(context.Background(), op)
}

// GraphOpCtx performs one remote backend operation under the client's full
// deadline/retry policy and returns the raw Response (a read's elements are
// decoded with Response.ElementBatch). Server-side failures
// carry their typed sentinel for errors.Is, exactly like SubmitCtx.
func (c *Client) GraphOpCtx(ctx context.Context, op GraphOp) (Response, error) {
	return c.do(ctx, Request{GraphOp: &op})
}
