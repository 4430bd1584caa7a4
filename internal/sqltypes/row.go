package sqltypes

import "strings"

// Row is a single tuple of values.
type Row []Value

// Clone returns a deep copy of the row (Values are immutable so a
// shallow slice copy suffices).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Equal reports whether two rows have identical values (NULL equals NULL
// here; this is storage equality, not SQL expression equality). It is
// used by the Delta termination condition to detect changed rows.
func (r Row) Equal(o Row) bool {
	if len(r) != len(o) {
		return false
	}
	for i := range r {
		if r[i].IsNull() != o[i].IsNull() {
			return false
		}
		if r[i].IsNull() {
			continue
		}
		if Compare(r[i], o[i]) != 0 {
			return false
		}
	}
	return true
}

// String renders the row as a comma-separated list, for tests and debug
// output.
func (r Row) String() string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.String()
	}
	return strings.Join(parts, ", ")
}

// Column describes one column of a schema.
type Column struct {
	// Name is the (unqualified) column name.
	Name string
	// Type is the declared or inferred type.
	Type Type
}

// Schema is an ordered list of columns.
type Schema []Column

// ColumnIndex returns the position of the named column (case
// insensitive), or -1 if absent.
func (s Schema) ColumnIndex(name string) int {
	for i, c := range s {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Names returns the column names in order.
func (s Schema) Names() []string {
	out := make([]string, len(s))
	for i, c := range s {
		out[i] = c.Name
	}
	return out
}

// Clone returns a copy of the schema.
func (s Schema) Clone() Schema {
	out := make(Schema, len(s))
	copy(out, s)
	return out
}

// String renders the schema as "(a INT, b FLOAT)".
func (s Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Name)
		b.WriteByte(' ')
		b.WriteString(c.Type.String())
	}
	b.WriteByte(')')
	return b.String()
}
