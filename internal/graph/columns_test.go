package graph

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"
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
	blob := graphenc.AppendColumns(nil, ColumnizeElements(els, nil))
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
	cb, err := graphenc.DecodeColumns(graphenc.AppendColumns(nil, ColumnizeElements(mixed, nil)))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := ElementsFromColumns(cb); renderBits(got) != renderBits(mixed) {
		t.Fatalf("mixed batch diverged\n got %s\nwant %s", renderBits(got), renderBits(mixed))
	}

	in := [][]*Element{{e1, e2}, nil, {}, {e3}, {e2, e1, e3}}
	cb, err = graphenc.DecodeColumns(graphenc.AppendColumns(nil, ColumnizeGroups(in, nil)))
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
	cb, err = graphenc.DecodeColumns(graphenc.AppendColumns(nil, ColumnizeGroups([][]*Element{}, nil)))
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
	first := graphenc.AppendColumns(nil, ColumnizeElements(els, nil))
	for i := 0; i < 20; i++ {
		if got := graphenc.AppendColumns(nil, ColumnizeElements(els, nil)); string(got) != string(first) {
			t.Fatalf("encoding not deterministic on attempt %d", i)
		}
	}
}

// TestColumnsCorrupt: truncations and garbage fail cleanly, never panic.
func TestColumnsCorrupt(t *testing.T) {
	els := []*Element{{ID: "v", Props: map[string]types.Value{"k": types.NewString("s")}}, nil}
	blob := graphenc.AppendColumns(nil, ColumnizeElements(els, nil))
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
	blob := graphenc.AppendColumns(nil, ColumnizeElements(nil, nil))
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
	f.Add(graphenc.AppendColumns(nil, ColumnizeElements(nil, nil)))
	f.Add(graphenc.AppendColumns(nil, ColumnizeElements([]*Element{v, nil, e, {ID: "p"}}, nil)))
	f.Add(graphenc.AppendColumns(nil, ColumnizeGroups([][]*Element{{e}, nil, {}, {e, v}}, nil)))
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
		again := ColumnizeElements(els, nil)
		if cb.Groups != nil {
			again = ColumnizeGroups(groups, nil)
		}
		if got := graphenc.AppendColumns(nil, again); !bytes.Equal(got, blob) {
			t.Fatalf("element round trip differs\n got %x\nwant %x", got, blob)
		}
	})
}

// fuzzBytes hands out fuzz input bytes, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

// FuzzProjectedColumns: a random element batch, ungrouped or grouped, with
// nil slots and nil groups, columnized under a random projection (nil,
// empty, a subset, or keys no element has) and sent through
// AppendColumns/DecodeColumns/ElementsFromColumns, comes back as the input
// with each element's properties filtered to the projection, slots and
// groups aligned.
func FuzzProjectedColumns(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 1, 7, 1, 2, 9, 0, 3, 4})
	f.Add([]byte{1, 5, 2, 0xff, 3, 0x40, 4, 9, 5, 6, 7, 8, 9})
	f.Add([]byte{3, 0x0b, 6, 0, 0x17, 2, 5, 11, 1, 0, 4, 3, 2, 1})
	f.Add([]byte{5, 0x09, 4, 10, 0x0f, 2, 1, 3, 0, 0, 5, 7})
	f.Add([]byte{7, 0x88, 7, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		mode := in.next()
		grouped := mode&1 == 1
		var proj []string
		switch mode >> 1 % 4 {
		case 1:
			proj = []string{}
		case 2:
			proj = []string{}
			for i, k := range []string{"a", "b", "c", "x"} {
				if mode>>(3+i)&1 == 1 {
					proj = append(proj, k)
				}
			}
		case 3:
			proj = []string{"x", "y"}
		}
		value := func() types.Value {
			switch c := in.next(); c % 5 {
			case 0:
				return types.NewInt(int64(int8(c)))
			case 1:
				return types.NewString(string(rune('a' + c%26)))
			case 2:
				return types.NewFloat(math.Float64frombits(0x7ff8_0000_0000_0000 | uint64(c)))
			case 3:
				return types.NewBool(c&8 == 0)
			default:
				return types.Null
			}
		}
		els := make([]*Element, in.next()%9)
		for i := range els {
			c := in.next()
			if c%5 == 0 {
				continue // nil slot
			}
			el := &Element{ID: fmt.Sprint("v", i), Label: "l" + fmt.Sprint(c%3)}
			if c&8 != 0 {
				el.IsEdge, el.OutV, el.InV, el.ID = true, "o", "i", fmt.Sprint("e", i)
			}
			if c&16 != 0 {
				el.Table = "T"
			}
			if bits := in.next(); bits&7 != 0 || bits&8 != 0 {
				el.Props = map[string]types.Value{}
				for j, k := range []string{"a", "b", "c"} {
					if bits>>j&1 == 1 {
						el.Props[k] = value()
					}
				}
			}
			els[i] = el
		}
		var groups [][]*Element
		for rest := els; grouped; {
			c := in.next()
			if c%4 == 0 && c != 0 {
				groups = append(groups, nil)
				continue
			}
			n := int(c % 4)
			if c == 0 || n > len(rest) {
				n = len(rest) // an exhausted input ends the groups
			}
			groups = append(groups, rest[:n:n])
			if rest = rest[n:]; len(rest) == 0 {
				break
			}
		}

		// want is els with each element's properties filtered to proj.
		filter := func(el *Element) *Element {
			if el == nil {
				return nil
			}
			cp := *el
			cp.Props = nil
			for k, v := range el.Props {
				if proj == nil || slices.Contains(proj, k) {
					if cp.Props == nil {
						cp.Props = map[string]types.Value{}
					}
					cp.Props[k] = v
				}
			}
			return &cp
		}
		cb := ColumnizeElements(els, proj)
		if grouped {
			cb = ColumnizeGroups(groups, proj)
		}
		dec, err := graphenc.DecodeColumns(graphenc.AppendColumns(nil, cb))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		gotEls, gotGroups := ElementsFromColumns(dec)
		want := make([]*Element, len(els))
		for i, el := range els {
			want[i] = filter(el)
		}
		if renderBits(gotEls) != renderBits(want) {
			t.Fatalf("projection %#v\n got %s\nwant %s", proj, renderBits(gotEls), renderBits(want))
		}
		if !grouped {
			if gotGroups != nil {
				t.Fatalf("ungrouped batch decoded %d groups", len(gotGroups))
			}
			return
		}
		if len(gotGroups) != len(groups) {
			t.Fatalf("%d groups decoded, want %d", len(gotGroups), len(groups))
		}
		off := 0
		for g, grp := range groups {
			if (gotGroups[g] == nil) != (grp == nil) {
				t.Fatalf("group %d: nil-ness %v, want %v", g, gotGroups[g] == nil, grp == nil)
			}
			if renderBits(gotGroups[g]) != renderBits(want[off:off+len(grp)]) {
				t.Fatalf("group %d diverged\n got %s\nwant %s", g, renderBits(gotGroups[g]), renderBits(want[off:off+len(grp)]))
			}
			off += len(grp)
		}
	})
}
