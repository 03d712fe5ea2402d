package graphenc

import (
	"fmt"
	"math"

	"db2graph/internal/sql/types"
)

// Cut* readers mirror Read* but operate on a string and return substrings
// that share the input's backing array (zero-copy). Decoding a whole record
// through them costs one []byte→string conversion for the blob instead of
// one string allocation per field — the arena-style decode path janus uses
// for adjacency and vertex blobs (DESIGN.md §15). The returned strings are
// immutable views; they keep the backing blob alive, which is exactly the
// lifetime a decode cache wants.

// CutUvarint decodes a varint-encoded unsigned integer from s. Only the
// minimal encoding binary.AppendUvarint produces is accepted: a redundant
// trailing zero group is an error, so each value has exactly one encoding.
func CutUvarint(s string) (uint64, string, error) {
	var x uint64
	var shift uint
	for i := 0; i < len(s); i++ {
		b := s[i]
		if b < 0x80 {
			if i > 9 || i == 9 && b > 1 {
				return 0, "", fmt.Errorf("graphenc: uvarint overflow")
			}
			if i > 0 && b == 0 {
				return 0, "", fmt.Errorf("graphenc: non-minimal uvarint")
			}
			return x | uint64(b)<<shift, s[i+1:], nil
		}
		x |= uint64(b&0x7f) << shift
		shift += 7
	}
	return 0, "", fmt.Errorf("graphenc: truncated uvarint")
}

// CutVarint decodes a zigzag varint-encoded signed integer from s.
func CutVarint(s string) (int64, string, error) {
	ux, rest, err := CutUvarint(s)
	if err != nil {
		return 0, "", err
	}
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x, rest, nil
}

// CutString decodes a length-prefixed string as a zero-copy substring.
func CutString(s string) (string, string, error) {
	n, rest, err := CutUvarint(s)
	if err != nil {
		return "", "", err
	}
	if uint64(len(rest)) < n {
		return "", "", fmt.Errorf("graphenc: truncated string")
	}
	return rest[:n], rest[n:], nil
}

// CutValue decodes an encoded SQL value; string values are zero-copy views.
func CutValue(s string) (types.Value, string, error) {
	if len(s) == 0 {
		return types.Null, "", fmt.Errorf("graphenc: truncated value")
	}
	kind := types.Kind(s[0])
	s = s[1:]
	switch kind {
	case types.KindNull:
		return types.Null, s, nil
	case types.KindInt, types.KindBool:
		n, rest, err := CutVarint(s)
		if err != nil {
			return types.Null, "", err
		}
		return types.Value{Kind: kind, I: n}, rest, nil
	case types.KindFloat:
		if len(s) < 8 {
			return types.Null, "", fmt.Errorf("graphenc: truncated float")
		}
		var bits uint64
		for i := 0; i < 8; i++ {
			bits = bits<<8 | uint64(s[i])
		}
		return types.NewFloat(math.Float64frombits(bits)), s[8:], nil
	case types.KindString:
		v, rest, err := CutString(s)
		if err != nil {
			return types.Null, "", err
		}
		return types.NewString(v), rest, nil
	default:
		return types.Null, "", fmt.Errorf("graphenc: unknown value kind %d", kind)
	}
}

// CutProps decodes an encoded property map with zero-copy keys and string
// values. Unlike ReadProps it returns a nil map for an empty property set,
// so records without properties decode without allocating; callers that
// need a non-nil map substitute a shared empty one.
func CutProps(s string) (map[string]types.Value, string, error) {
	n, rest, err := CutUvarint(s)
	if err != nil {
		return nil, "", fmt.Errorf("graphenc: truncated props")
	}
	if n == 0 {
		return nil, rest, nil
	}
	props := make(map[string]types.Value, n)
	for i := uint64(0); i < n; i++ {
		k, r, err := CutString(rest)
		if err != nil {
			return nil, "", err
		}
		v, r, err := CutValue(r)
		if err != nil {
			return nil, "", err
		}
		props[k] = v
		rest = r
	}
	return props, rest, nil
}
