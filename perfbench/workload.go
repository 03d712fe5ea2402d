package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"db2graph/internal/graph"
	"db2graph/internal/linkbench"
	"db2graph/internal/sql/types"
)

// dataset is the generated LinkBench graph plus the plain-Go indexes the
// answer oracle needs. It is built once per run and read-only afterwards;
// the oracle never consults the system under test.
type dataset struct {
	lb    *linkbench.Dataset
	n     int64
	types int
	// out[v] lists v's out-neighbours with multiplicity (one entry per
	// typed link), indexed by vertex id (1-based).
	out [][]int64
	// nodes[v] holds vertex v's generated properties.
	nodes []node
	// byRank maps a popularity rank to a vertex id. It is fixed by the
	// dataset, not by the run seed, so every seed sees the same hot head.
	byRank []int64
}

// node is the oracle's view of one vertex row.
type node struct {
	version, time int64
	data          string
}

// link is the oracle's view of one link row.
type link struct {
	dst                       int64
	visibility, time, version int64
	data                      string
}

// newDataset generates the repo's "small" LinkBench graph at the given size:
// split layout, 10 vertex and 10 edge types, hub at 9.6 % of the vertices,
// generator seed 42.
func newDataset(vertices int) *dataset {
	cfg := linkbench.DefaultConfig(vertices)
	lb := linkbench.Generate(cfg)
	d := &dataset{lb: lb, n: int64(vertices), types: cfg.VertexTypes}
	d.out = make([][]int64, vertices+1)
	for _, e := range lb.Edges {
		d.out[e.Src] = append(d.out[e.Src], e.Dst)
	}
	d.nodes = make([]node, vertices+1)
	for id := int64(1); id <= d.n; id++ {
		el := lb.VertexElement(id)
		d.nodes[id] = node{version: el.Props["version"].I, time: el.Props["time"].I, data: el.Props["data"].S}
	}
	perm := rand.New(rand.NewSource(cfg.Seed)).Perm(vertices)
	d.byRank = make([]int64, vertices)
	for i, p := range perm {
		d.byRank[i] = int64(p) + 1
	}
	return d
}

// elements renders the dataset as graph elements for the shard loads.
func (d *dataset) elements() (vs, es []*graph.Element) {
	vs = make([]*graph.Element, 0, d.n)
	for id := int64(1); id <= d.n; id++ {
		vs = append(vs, d.lb.VertexElement(id))
	}
	es = make([]*graph.Element, 0, len(d.lb.Edges))
	for _, e := range d.lb.Edges {
		es = append(es, d.lb.EdgeElement(e))
	}
	return vs, es
}

// opKind enumerates the operations the workloads issue.
type opKind uint8

const (
	opGetNode opKind = iota
	opCountLinks
	opGetLink
	opGetLinkList
	opMultiHop
	opAddNode
	opUpdateNode
	opAddLink
	opDeleteLink
	opUpdateLink
)

func (k opKind) isWrite() bool { return k >= opAddNode }

// op is one generated operation with its expected answer, computed by the
// oracle when the operation was generated.
type op struct {
	kind opKind
	// script is the Gremlin text of a read.
	script string
	// table and args describe a write: the base table and the arguments
	// of the kind's prepared DML statement. For reads, table is the type of
	// the vertex or links read.
	table int
	args  []any
	// count is the expected count for countLinks and the 2-hop query, the
	// expected number of links for getLink and getLinkList, and 1 for
	// getNode and for the rows a write affects. want is the digest of the
	// expected vertex or links.
	count int64
	want  uint64
	// id is the vertex a getNode reads, src the source of the links.
	id, src int64
}

// generator yields one client's operation stream.
type generator interface {
	next() op
}

// --- multihop / sharded ---

// anchors is the number of distinct anchor vertices per 2-hop query.
const anchors = 64

// zipfS shapes the anchor popularity: P(rank k) ~ (1+k)^-zipfS.
const zipfS = 1.1

// hopGen draws 64 distinct anchors from a Zipf-like popularity over all
// vertices and expects sum over anchors of the out-degrees of their
// out-neighbours.
type hopGen struct {
	d    *dataset
	rng  *rand.Rand
	zipf *rand.Zipf
}

func newHopGen(d *dataset, seed int64) *hopGen {
	rng := rand.New(rand.NewSource(seed))
	return &hopGen{d: d, rng: rng, zipf: rand.NewZipf(rng, zipfS, 1, uint64(d.n-1))}
}

func (g *hopGen) next() op {
	seen := make(map[int64]bool, anchors)
	var sb strings.Builder
	sb.WriteString("g.V(")
	var want int64
	for len(seen) < anchors {
		a := g.d.byRank[g.zipf.Uint64()]
		if seen[a] {
			continue
		}
		seen[a] = true
		if len(seen) > 1 {
			sb.WriteString(", ")
		}
		sb.WriteString("'" + strconv.FormatInt(a, 10) + "'")
		for _, nb := range g.d.out[a] {
			want += int64(len(g.d.out[nb]))
		}
	}
	sb.WriteString(").out().out().count()")
	return op{kind: opMultiHop, script: sb.String(), count: want}
}

// --- linkbench ---

// lbMix is LinkBench's default operation mix in per-mille, with deleteNode
// (1 %) folded into updateNode: 69 % reads, 31 % writes.
var lbMix = []struct {
	kind opKind
	w    int
}{
	{opGetNode, 129}, {opCountLinks, 49}, {opGetLink, 5}, {opGetLinkList, 507},
	{opAddNode, 26}, {opUpdateNode, 84}, {opAddLink, 90}, {opDeleteLink, 30}, {opUpdateLink, 80},
}

type adjKey struct {
	src int64
	typ int
}

type linkID struct {
	src int64
	typ int
	dst int64
}

// lbClient generates one closed-loop client's LinkBench stream. The client
// owns the source ids [lo, hi] plus the nodes it adds, so its reads and
// writes touch no row another client writes, and the oracle applies its own
// writes in order: every read expects everything the client wrote before it.
type lbClient struct {
	d      *dataset
	rng    *rand.Rand
	lo, hi int64
	nextID int64
	stride int64
	// nodes overrides d.nodes for updated and added vertices.
	nodes map[int64]node
	added []int64
	adj   map[adjKey]map[int64]link
	// live lists every current link for uniform picks; pos indexes it.
	live []linkID
	pos  map[linkID]int
}

func newLBClient(d *dataset, seed int64, c, clients int) *lbClient {
	g := &lbClient{
		d:      d,
		rng:    rand.New(rand.NewSource(seed*1000003 + int64(c))),
		lo:     int64(c)*d.n/int64(clients) + 1,
		hi:     int64(c+1) * d.n / int64(clients),
		nextID: d.n + 1 + int64(c),
		stride: int64(clients),
		nodes:  make(map[int64]node),
		adj:    make(map[adjKey]map[int64]link),
		pos:    make(map[linkID]int),
	}
	for _, e := range d.lb.Edges {
		if e.Src < g.lo || e.Src > g.hi {
			continue
		}
		g.put(linkID{e.Src, e.Type, e.Dst}, link{
			dst: e.Dst, visibility: e.Visibility, time: e.Time, version: e.Version, data: e.Data,
		})
	}
	return g
}

func (g *lbClient) put(id linkID, l link) {
	k := adjKey{id.src, id.typ}
	m := g.adj[k]
	if m == nil {
		m = make(map[int64]link)
		g.adj[k] = m
	}
	if _, ok := m[id.dst]; !ok {
		g.pos[id] = len(g.live)
		g.live = append(g.live, id)
	}
	m[id.dst] = l
}

func (g *lbClient) remove(id linkID) {
	delete(g.adj[adjKey{id.src, id.typ}], id.dst)
	i := g.pos[id]
	last := g.live[len(g.live)-1]
	g.live[i] = last
	g.pos[last] = i
	g.live = g.live[:len(g.live)-1]
	delete(g.pos, id)
}

func (g *lbClient) node(id int64) node {
	if n, ok := g.nodes[id]; ok {
		return n
	}
	return g.d.nodes[id]
}

// ownedNode picks a uniform vertex among those the client owns.
func (g *lbClient) ownedNode() int64 {
	k := g.rng.Int63n(g.hi - g.lo + 1 + int64(len(g.added)))
	if k <= g.hi-g.lo {
		return g.lo + k
	}
	return g.added[k-(g.hi-g.lo+1)]
}

func (g *lbClient) randomData(n int) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[g.rng.Intn(len(alphabet))]
	}
	return string(b)
}

func (g *lbClient) newNode() node {
	return node{version: g.rng.Int63n(5), time: 1500000000 + g.rng.Int63n(100000000), data: g.randomData(32)}
}

func (g *lbClient) newLink(dst int64) link {
	return link{dst: dst, visibility: g.rng.Int63n(2), time: 1500000000 + g.rng.Int63n(100000000),
		version: g.rng.Int63n(5), data: g.randomData(16)}
}

func (g *lbClient) next() op {
	r := g.rng.Intn(1000)
	kind := lbMix[len(lbMix)-1].kind
	for _, m := range lbMix {
		if r < m.w {
			kind = m.kind
			break
		}
		r -= m.w
	}
	// Link operations need a live link; a client that has none (only
	// possible on tiny test graphs) adds one instead.
	if len(g.live) == 0 && (kind == opCountLinks || kind == opGetLink || kind == opGetLinkList ||
		kind == opDeleteLink || kind == opUpdateLink) {
		kind = opAddLink
	}
	var pick linkID
	if kind == opCountLinks || kind == opGetLink || kind == opGetLinkList || kind == opDeleteLink || kind == opUpdateLink {
		pick = g.live[g.rng.Intn(len(g.live))]
	}
	vid := func(id int64) string { return strconv.FormatInt(id, 10) }
	typ := func(id int64) int { return int(id % int64(g.d.types)) }
	switch kind {
	case opGetNode:
		id := g.ownedNode()
		q := linkbench.Query{Kind: linkbench.GetNode, ID1: vid(id), Label: linkbench.VertexLabel(typ(id))}
		return op{kind: kind, script: q.Gremlin(), id: id, table: typ(id), count: 1, want: nodeDigest(id, g.node(id))}
	case opCountLinks:
		q := linkbench.Query{Kind: linkbench.CountLinks, ID1: vid(pick.src), Label: linkbench.EdgeLabel(pick.typ)}
		return op{kind: kind, script: q.Gremlin(), src: pick.src, count: int64(len(g.adj[adjKey{pick.src, pick.typ}]))}
	case opGetLink:
		q := linkbench.Query{Kind: linkbench.GetLink, ID1: vid(pick.src), Label: linkbench.EdgeLabel(pick.typ), ID2: vid(pick.dst)}
		return op{kind: kind, script: q.Gremlin(), src: pick.src, table: pick.typ,
			count: 1, want: linkDigest(g.adj[adjKey{pick.src, pick.typ}][pick.dst])}
	case opGetLinkList:
		q := linkbench.Query{Kind: linkbench.GetLinkList, ID1: vid(pick.src), Label: linkbench.EdgeLabel(pick.typ)}
		var want uint64
		links := g.adj[adjKey{pick.src, pick.typ}]
		for _, l := range links {
			want += linkDigest(l)
		}
		return op{kind: kind, script: q.Gremlin(), src: pick.src, table: pick.typ,
			count: int64(len(links)), want: want}
	case opAddNode:
		id := g.nextID
		g.nextID += g.stride
		n := g.newNode()
		g.nodes[id] = n
		g.added = append(g.added, id)
		return op{kind: kind, table: typ(id), args: []any{id, n.version, n.time, n.data}}
	case opUpdateNode:
		id := g.ownedNode()
		n := g.newNode()
		g.nodes[id] = n
		return op{kind: kind, table: typ(id), args: []any{n.version, n.time, n.data, id}}
	case opAddLink:
		// A source may already link to the drawn destination under the
		// drawn type; redraw a bounded number of times, then update the
		// node instead so the stream stays deterministic.
		for try := 0; try < 16; try++ {
			src, t, dst := g.ownedNode(), g.rng.Intn(g.d.types), g.rng.Int63n(g.d.n)+1
			if dst == src {
				continue
			}
			if _, dup := g.adj[adjKey{src, t}][dst]; dup {
				continue
			}
			l := g.newLink(dst)
			g.put(linkID{src, t, dst}, l)
			return op{kind: kind, table: t, args: []any{src, dst, l.visibility, l.data, l.time, l.version}}
		}
		id := g.ownedNode()
		n := g.newNode()
		g.nodes[id] = n
		return op{kind: opUpdateNode, table: typ(id), args: []any{n.version, n.time, n.data, id}}
	case opDeleteLink:
		g.remove(pick)
		return op{kind: kind, table: pick.typ, args: []any{pick.src, pick.dst}}
	default: // opUpdateLink
		l := g.newLink(pick.dst)
		g.put(pick, l)
		return op{kind: kind, table: pick.typ, args: []any{l.visibility, l.data, l.time, l.version, pick.src, pick.dst}}
	}
}

// --- answer check ---

// check compares a result with the op's expected answer and returns a
// digest of the answer as received, so two passes over one stream can be
// compared op by op. It reads the result's plain fields only and calls no
// code of the system under test.
func check(o op, res any) (uint64, error) {
	if o.kind.isWrite() {
		if n, ok := res.(int); !ok || int64(n) != 1 {
			return 0, fmt.Errorf("write affected %v rows, want 1", res)
		}
		return 1, nil
	}
	objs, ok := res.([]any)
	if !ok {
		return 0, fmt.Errorf("result has type %T", res)
	}
	switch o.kind {
	case opCountLinks, opMultiHop:
		if len(objs) != 1 {
			return 0, fmt.Errorf("count returned %d values", len(objs))
		}
		v, ok := objs[0].(types.Value)
		if !ok || v.Kind != types.KindInt || v.I != o.count {
			return 0, fmt.Errorf("count = %v, want %d", objs[0], o.count)
		}
		return uint64(v.I), nil
	case opGetNode:
		if len(objs) != 1 {
			return 0, fmt.Errorf("getNode(%d) returned %d vertices", o.id, len(objs))
		}
		el, ok := objs[0].(*graph.Element)
		if !ok || el.IsEdge || el.ID != strconv.FormatInt(o.id, 10) ||
			el.Label != linkbench.VertexLabel(o.table) {
			return 0, fmt.Errorf("getNode(%d) returned %v", o.id, objs[0])
		}
		got := node{version: el.Props["version"].I, time: el.Props["time"].I, data: el.Props["data"].S}
		if d := nodeDigest(o.id, got); d != o.want {
			return 0, fmt.Errorf("getNode(%d) = %+v, which the oracle does not expect", o.id, got)
		}
		return o.want, nil
	case opGetLink, opGetLinkList:
		var sum uint64
		src := strconv.FormatInt(o.src, 10)
		for _, obj := range objs {
			el, ok := obj.(*graph.Element)
			if !ok || !el.IsEdge || el.OutV != src || el.Label != linkbench.EdgeLabel(o.table) {
				return 0, fmt.Errorf("link query on %d returned %v", o.src, obj)
			}
			dst, err := strconv.ParseInt(el.InV, 10, 64)
			if err != nil {
				return 0, fmt.Errorf("link query on %d: destination %q", o.src, el.InV)
			}
			sum += linkDigest(link{dst: dst, visibility: el.Props["visibility"].I, time: el.Props["time"].I,
				version: el.Props["version"].I, data: el.Props["data"].S})
		}
		if int64(len(objs)) != o.count || sum != o.want {
			return 0, fmt.Errorf("link query on %d returned %d links, want %d, contents match: %v",
				o.src, len(objs), o.count, sum == o.want)
		}
		return sum, nil
	default:
		return 0, fmt.Errorf("unknown read kind %d", o.kind)
	}
}

// nodeDigest and linkDigest hash the oracle's rows (FNV-1a). A link list's
// digest is the sum of its links' digests, so it does not depend on the
// order the system returns them in.
func nodeDigest(id int64, n node) uint64 {
	var d digest
	d.int(id)
	d.int(n.version)
	d.int(n.time)
	d.str(n.data)
	return d.h
}

func linkDigest(l link) uint64 {
	var d digest
	d.int(l.dst)
	d.int(l.visibility)
	d.int(l.time)
	d.int(l.version)
	d.str(l.data)
	return d.h
}

type digest struct{ h uint64 }

func (d *digest) byte(b byte) {
	if d.h == 0 {
		d.h = 14695981039346656037
	}
	d.h = (d.h ^ uint64(b)) * 1099511628211
}

func (d *digest) int(v int64) {
	for i := 0; i < 8; i++ {
		d.byte(byte(v >> (8 * i)))
	}
}

func (d *digest) str(s string) {
	d.int(int64(len(s)))
	for i := 0; i < len(s); i++ {
		d.byte(s[i])
	}
}
