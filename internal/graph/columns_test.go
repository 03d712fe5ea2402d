package graph

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"db2graph/internal/graphenc"
	"db2graph/internal/sql/types"
)

// renderBits serializes elements with float properties as raw bits, so NaN
// payloads and signed zeros compare exactly (reflect.DeepEqual treats every
// NaN as unequal to itself).
func renderBits(els []*Element) string {
	var sb strings.Builder
	for _, el := range els {
		if el == nil {
			sb.WriteString("-;")
			continue
		}
		keys := make([]string, 0, len(el.Props))
		for k := range el.Props {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(&sb, "%s|%s|%s|%v|%s>%s|nilprops=%v", el.ID, el.Label, el.Table, el.IsEdge, el.OutV, el.InV, el.Props == nil)
		for _, k := range keys {
			v := el.Props[k]
			fmt.Fprintf(&sb, "|%s=%d:%d:%x:%q", k, v.Kind, v.I, math.Float64bits(v.F), v.S)
		}
		sb.WriteString(";")
	}
	return sb.String()
}

// TestColumnsRoundTrip proves the aligned-slot contract survives
// columnize → encode → decode → reconstruct: nil slots stay nil, property
// values round-trip bit-exactly, and empty property sets come back as nil
// maps (the wire-path shape).
func TestColumnsRoundTrip(t *testing.T) {
	els := []*Element{
		{ID: "v1", Label: "person", Table: "PEOPLE", Props: map[string]types.Value{
			"name": types.NewString("ada"),
			"age":  types.NewInt(36),
		}},
		nil, // unresolved slot
		{ID: "v2", Label: "person", Props: map[string]types.Value{
			"age":   types.NewInt(-7),
			"score": types.NewFloat(2.5),
			"null":  types.Null,
			"ok":    types.NewBool(true),
		}},
		{ID: "v3"}, // no label, no table, no props
		{ID: "v4", Label: "city", Props: map[string]types.Value{}},
	}
	blob := graphenc.AppendColumns(nil, ColumnizeElements(els))
	cb, err := graphenc.DecodeColumns(blob)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	got, groups := ElementsFromColumns(cb)
	if groups != nil {
		t.Fatalf("ungrouped batch decoded %d groups", len(groups))
	}
	want := []*Element{
		els[0],
		nil,
		els[2],
		{ID: "v3"},
		{ID: "v4", Label: "city"}, // empty Props decodes as nil Props
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// TestColumnsEdgesAndGroups: edges keep their endpoints, vertices and edges
// mix in one batch, and a grouped batch restores nil groups, empty groups
// and group boundaries exactly. Float properties (NaN, ±Inf, -0.0) keep
// their bits.
func TestColumnsEdgesAndGroups(t *testing.T) {
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	e1 := &Element{ID: "e1", Label: "knows", IsEdge: true, OutV: "a", InV: "b", Table: "LINKS",
		Props: map[string]types.Value{"w": types.NewFloat(nan), "since": types.NewInt(2001)}}
	e2 := &Element{ID: "e2", Label: "knows", IsEdge: true, OutV: "b", InV: "a"}
	e3 := &Element{ID: "e3", Label: "likes", IsEdge: true, OutV: "a", InV: "a",
		Props: map[string]types.Value{"w": types.NewFloat(math.Copysign(0, -1))}}
	v := &Element{ID: "a", Label: "user", Props: map[string]types.Value{"w": types.NewFloat(math.Inf(-1))}}

	mixed := []*Element{v, e1, nil, e3}
	cb, err := graphenc.DecodeColumns(graphenc.AppendColumns(nil, ColumnizeElements(mixed)))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := ElementsFromColumns(cb); renderBits(got) != renderBits(mixed) {
		t.Fatalf("mixed batch diverged\n got %s\nwant %s", renderBits(got), renderBits(mixed))
	}

	in := [][]*Element{{e1, e2}, nil, {}, {e3}, {e2, e1, e3}}
	cb, err = graphenc.DecodeColumns(graphenc.AppendColumns(nil, ColumnizeGroups(in)))
	if err != nil {
		t.Fatal(err)
	}
	els, groups := ElementsFromColumns(cb)
	if len(els) != 6 || len(groups) != len(in) {
		t.Fatalf("got %d rows in %d groups, want 6 in %d", len(els), len(groups), len(in))
	}
	for g := range in {
		if (groups[g] == nil) != (in[g] == nil) {
			t.Fatalf("group %d: nil-ness %v, want %v", g, groups[g] == nil, in[g] == nil)
		}
		if renderBits(groups[g]) != renderBits(in[g]) {
			t.Fatalf("group %d diverged\n got %s\nwant %s", g, renderBits(groups[g]), renderBits(in[g]))
		}
	}
	// Groups are capacity-capped windows: appending to one must not
	// overwrite its neighbour.
	_ = append(groups[0], e3)
	if groups[3][0].ID != "e3" || groups[4][0].ID != "e2" {
		t.Fatal("append to a group overwrote the next group")
	}

	// Zero groups is a grouped batch, distinct from an ungrouped one.
	cb, err = graphenc.DecodeColumns(graphenc.AppendColumns(nil, ColumnizeGroups([][]*Element{})))
	if err != nil {
		t.Fatal(err)
	}
	if _, groups := ElementsFromColumns(cb); groups == nil || len(groups) != 0 {
		t.Fatalf("zero-group batch decoded as %#v", groups)
	}
}

// TestColumnsDeterministic: identical batches encode to identical bytes
// regardless of map iteration order.
func TestColumnsDeterministic(t *testing.T) {
	els := []*Element{
		{ID: "a", Props: map[string]types.Value{
			"x": types.NewInt(1), "y": types.NewInt(2), "z": types.NewInt(3),
			"w": types.NewInt(4), "v": types.NewInt(5),
		}},
		{ID: "b", Props: map[string]types.Value{"y": types.NewInt(9)}},
	}
	first := graphenc.AppendColumns(nil, ColumnizeElements(els))
	for i := 0; i < 20; i++ {
		if got := graphenc.AppendColumns(nil, ColumnizeElements(els)); string(got) != string(first) {
			t.Fatalf("encoding not deterministic on attempt %d", i)
		}
	}
}

// TestColumnsCorrupt: truncations and garbage fail cleanly, never panic.
func TestColumnsCorrupt(t *testing.T) {
	els := []*Element{{ID: "v", Props: map[string]types.Value{"k": types.NewString("s")}}, nil}
	blob := graphenc.AppendColumns(nil, ColumnizeElements(els))
	for cut := 0; cut < len(blob); cut++ {
		if _, err := graphenc.DecodeColumns(blob[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded without error", cut)
		}
	}
	if _, err := graphenc.DecodeColumns(append(append([]byte{}, blob...), 0xff)); err == nil {
		t.Fatal("trailing garbage decoded without error")
	}
	if _, err := graphenc.DecodeColumns([]byte{0xff, 0xff, 0xff, 0xff, 0x7f}); err == nil {
		t.Fatal("absurd row count decoded without error")
	}
}

// TestColumnsNonCanonicalRejected: every encoding AppendColumns cannot
// produce is an error, which is what makes decode → encode byte-identical.
func TestColumnsNonCanonicalRejected(t *testing.T) {
	// One present vertex row "v" with one property k=1, ungrouped.
	valid := []byte{1, 0b1, 0b0, 1, 'v', 0, 0, 0, 1, 1, 'k', 0b1, byte(types.KindInt), 2}
	if _, err := graphenc.DecodeColumns(valid); err != nil {
		t.Fatalf("hand-built batch rejected: %v", err)
	}
	cases := map[string][]byte{
		"presence padding bit":   {1, 0b11, 0b0, 1, 'v', 0, 0, 0, 1, 1, 'k', 0b1, byte(types.KindInt), 2},
		"edge bit on absent row": {1, 0b0, 0b1, 0, 0},
		"non-minimal varint":     {0x81, 0x00, 0b1, 0b0, 1, 'v', 0, 0, 0, 1, 1, 'k', 0b1, byte(types.KindInt), 2},
		"cell on absent row":     {1, 0b0, 0b0, 0, 1, 1, 'k', 0b1, byte(types.KindInt), 2},
		"column without cells":   {1, 0b1, 0b0, 1, 'v', 0, 0, 0, 1, 1, 'k', 0b0},
		"keys out of order": {1, 0b1, 0b0, 1, 'v', 0, 0, 0, 2,
			1, 'k', 0b1, byte(types.KindInt), 2, 1, 'a', 0b1, byte(types.KindInt), 2},
		"groups short of rows": {1, 0b1, 0b0, 1, 'v', 0, 0, 2, 1, 0},
		"group overruns rows":  {1, 0b1, 0b0, 1, 'v', 0, 0, 2, 3, 0},
	}
	for name, blob := range cases {
		if _, err := graphenc.DecodeColumns(blob); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func TestColumnsEmpty(t *testing.T) {
	blob := graphenc.AppendColumns(nil, ColumnizeElements(nil))
	cb, err := graphenc.DecodeColumns(blob)
	if err != nil {
		t.Fatalf("decode empty: %v", err)
	}
	if got, _ := ElementsFromColumns(cb); len(got) != 0 {
		t.Fatalf("empty batch reconstructed %d rows", len(got))
	}
}

// FuzzDecodeColumns: arbitrary bytes either decode or return an error —
// never panic — and every batch that decodes re-encodes to the same bytes,
// both directly and through the element form the wire client hands out.
func FuzzDecodeColumns(f *testing.F) {
	e := &Element{ID: "e1", Label: "knows", IsEdge: true, OutV: "a", InV: "b",
		Props: map[string]types.Value{"w": types.NewFloat(math.NaN()), "n": types.Null}}
	v := &Element{ID: "a", Label: "user", Table: "T", Props: map[string]types.Value{
		"s": types.NewString("x"), "b": types.NewBool(true), "i": types.NewInt(-3)}}
	f.Add(graphenc.AppendColumns(nil, ColumnizeElements(nil)))
	f.Add(graphenc.AppendColumns(nil, ColumnizeElements([]*Element{v, nil, e, {ID: "p"}})))
	f.Add(graphenc.AppendColumns(nil, ColumnizeGroups([][]*Element{{e}, nil, {}, {e, v}})))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, blob []byte) {
		cb, err := graphenc.DecodeColumns(blob)
		if err != nil {
			return
		}
		if got := graphenc.AppendColumns(nil, cb); !bytes.Equal(got, blob) {
			t.Fatalf("re-encode differs\n got %x\nwant %x", got, blob)
		}
		els, groups := ElementsFromColumns(cb)
		again := ColumnizeElements(els)
		if cb.Groups != nil {
			again = ColumnizeGroups(groups)
		}
		if got := graphenc.AppendColumns(nil, again); !bytes.Equal(got, blob) {
			t.Fatalf("element round trip differs\n got %x\nwant %x", got, blob)
		}
	})
}
