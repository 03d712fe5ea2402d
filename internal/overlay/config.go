// Package overlay implements the graph overlay of the paper (Section 5): a
// declarative mapping from a property graph's vertex set and edge set onto
// relational tables or views, without copying or transforming data. It
// provides the JSON configuration format, the id-expression language
// ('patient'::patientID), the resolved Topology consumed by the Db2 Graph
// runtime optimizations, and the AutoOverlay generator (Section 5.1).
package overlay

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// VTable maps one table or view into the vertex set.
type VTable struct {
	TableName string `json:"table_name"`
	// PrefixedID marks that the id expression starts with a unique constant
	// table identifier, enabling the prefixed-id table pin-down
	// optimization.
	PrefixedID bool `json:"prefixed_id,omitempty"`
	// ID defines the vertex id, e.g. "'patient'::patientID".
	ID string `json:"id"`
	// FixLabel marks that every vertex from this table has the same label.
	FixLabel bool `json:"fix_label,omitempty"`
	// Label is either a quoted constant ('patient') or a column name.
	Label string `json:"label"`
	// Properties lists the property columns; nil means "all columns except
	// the ones used by required fields".
	Properties []string `json:"properties,omitempty"`
}

// ETable maps one table or view into the edge set.
type ETable struct {
	TableName string `json:"table_name"`
	// SrcVTable/DstVTable optionally pin the vertex table of each end.
	SrcVTable string `json:"src_v_table,omitempty"`
	SrcV      string `json:"src_v"`
	DstVTable string `json:"dst_v_table,omitempty"`
	DstV      string `json:"dst_v"`
	// PrefixedEdgeID marks an explicit prefixed edge id.
	PrefixedEdgeID bool `json:"prefixed_edge_id,omitempty"`
	// ID defines the edge id when explicit.
	ID string `json:"id,omitempty"`
	// ImplicitEdgeID derives edge ids as src_v::label::dst_v.
	ImplicitEdgeID bool     `json:"implicit_edge_id,omitempty"`
	FixLabel       bool     `json:"fix_label,omitempty"`
	Label          string   `json:"label"`
	Properties     []string `json:"properties,omitempty"`
}

// Config is a full graph overlay configuration (the JSON file of Section 5).
type Config struct {
	VTables []VTable `json:"v_tables"`
	ETables []ETable `json:"e_tables"`
}

// Parse reads a configuration from JSON text.
func Parse(data []byte) (*Config, error) {
	var cfg Config
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("overlay: invalid configuration: %w", err)
	}
	if len(cfg.VTables) == 0 {
		return nil, fmt.Errorf("overlay: configuration defines no vertex tables")
	}
	return &cfg, nil
}

// Load reads a configuration from a JSON file.
func Load(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("overlay: %w", err)
	}
	return Parse(data)
}

// JSON renders the configuration as indented JSON.
func (c *Config) JSON() ([]byte, error) {
	return json.MarshalIndent(c, "", "  ")
}

// --- ID expressions ---

// IDTerm is one component of an id/label expression: a quoted constant or a
// column reference.
type IDTerm struct {
	Const   string
	Column  string
	IsConst bool
}

// IDExpr is a '::'-joined sequence of terms, e.g. 'patient'::patientID.
type IDExpr struct {
	Terms []IDTerm
}

// ParseIDExpr parses an id expression. Quoted terms ('patient') are
// constants; bare terms are column names.
func ParseIDExpr(s string) (IDExpr, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return IDExpr{}, fmt.Errorf("overlay: empty id expression")
	}
	parts := strings.Split(s, "::")
	expr := IDExpr{Terms: make([]IDTerm, 0, len(parts))}
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			return IDExpr{}, fmt.Errorf("overlay: empty term in id expression %q", s)
		}
		if strings.HasPrefix(p, "'") {
			if !strings.HasSuffix(p, "'") || len(p) < 2 {
				return IDExpr{}, fmt.Errorf("overlay: unterminated constant in id expression %q", s)
			}
			expr.Terms = append(expr.Terms, IDTerm{Const: p[1 : len(p)-1], IsConst: true})
		} else {
			expr.Terms = append(expr.Terms, IDTerm{Column: p})
		}
	}
	return expr, nil
}

// String renders the expression back to its source form.
func (e IDExpr) String() string {
	parts := make([]string, len(e.Terms))
	for i, t := range e.Terms {
		if t.IsConst {
			parts[i] = "'" + t.Const + "'"
		} else {
			parts[i] = t.Column
		}
	}
	return strings.Join(parts, "::")
}

// Columns returns the column names referenced by the expression.
func (e IDExpr) Columns() []string {
	var out []string
	for _, t := range e.Terms {
		if !t.IsConst {
			out = append(out, t.Column)
		}
	}
	return out
}

// ConstPrefix returns the leading constant term, if any.
func (e IDExpr) ConstPrefix() (string, bool) {
	if len(e.Terms) > 0 && e.Terms[0].IsConst {
		return e.Terms[0].Const, true
	}
	return "", false
}

// EscapePart protects '::' separators inside one composed id part; a part
// without '%' or ':' comes back as is.
func EscapePart(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	return strings.ReplaceAll(s, ":", "%3A")
}

// UnescapePart reverses the escaping ComposeID applies to one id part.
func UnescapePart(s string) string {
	s = strings.ReplaceAll(s, "%3A", ":")
	return strings.ReplaceAll(s, "%25", "%")
}

// ComposeID joins id parts with the :: separator, escaping embedded
// separators so decomposition is unambiguous.
func ComposeID(parts []string) string {
	esc := make([]string, len(parts))
	for i, p := range parts {
		esc[i] = EscapePart(p)
	}
	return strings.Join(esc, "::")
}

// DecomposeID splits an id value back into its parts.
func DecomposeID(id string) []string {
	raw := strings.Split(id, "::")
	out := make([]string, len(raw))
	for i, p := range raw {
		out[i] = UnescapePart(p)
	}
	return out
}

// labelExpr distinguishes constant labels ('patient') from label columns.
type labelExpr struct {
	Const    string
	Column   string
	IsConst  bool
	declared bool
}

func parseLabelExpr(s string) (labelExpr, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return labelExpr{}, nil
	}
	if strings.HasPrefix(s, "'") {
		if !strings.HasSuffix(s, "'") || len(s) < 2 {
			return labelExpr{}, fmt.Errorf("overlay: unterminated constant label %q", s)
		}
		return labelExpr{Const: s[1 : len(s)-1], IsConst: true, declared: true}, nil
	}
	return labelExpr{Column: s, declared: true}, nil
}
