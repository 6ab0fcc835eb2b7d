package relation

import (
	"fmt"
	"sort"
	"strings"
)

// Relation is a finite bag of rows over a scheme. Rows are stored
// positionally ([]Value aligned with the scheme), which keeps joins and
// scans allocation-light compared with map-based tuples; attribute lookup
// goes through the scheme's index once per operator, not once per row.
type Relation struct {
	scheme *Scheme
	rows   [][]Value
}

// New returns an empty relation over the scheme.
func New(scheme *Scheme) *Relation {
	return &Relation{scheme: scheme}
}

// Scheme returns the relation's scheme.
func (r *Relation) Scheme() *Scheme { return r.scheme }

// Len returns the number of rows (counting duplicates).
func (r *Relation) Len() int { return len(r.rows) }

// Row returns the i-th row as a Tuple view.
func (r *Relation) Row(i int) Tuple { return Tuple{scheme: r.scheme, vals: r.rows[i]} }

// RawRow returns the i-th row's value slice; callers must not modify it.
func (r *Relation) RawRow(i int) []Value { return r.rows[i] }

// CopyRow returns a fresh copy of a row. Operators use it to retain a
// row past the producer's next NextBatch call: under the ownership
// contract a row handed up by an iterator is only valid until then, so
// anything buffered (a hash-join build side, a join's lookahead row)
// must be copied first.
func CopyRow(row []Value) []Value {
	out := make([]Value, len(row))
	copy(out, row)
	return out
}

// Append adds a row; the arity must match the scheme.
func (r *Relation) Append(vals ...Value) error {
	if len(vals) != r.scheme.Len() {
		return fmt.Errorf("relation: row arity %d does not match scheme %s", len(vals), r.scheme)
	}
	r.rows = append(r.rows, vals)
	return nil
}

// MustAppend is Append that panics on error.
func (r *Relation) MustAppend(vals ...Value) {
	if err := r.Append(vals...); err != nil {
		panic(err)
	}
}

// AppendRaw adds a pre-validated row without copying; internal operators
// use it after computing output rows of the correct arity.
func (r *Relation) AppendRaw(vals []Value) { r.rows = append(r.rows, vals) }

// AppendTuple pads the tuple to the relation's scheme and appends it.
func (r *Relation) AppendTuple(t Tuple) error {
	if t.scheme.Equal(r.scheme) {
		r.rows = append(r.rows, t.vals)
		return nil
	}
	p, err := t.PadTo(r.scheme)
	if err != nil {
		return err
	}
	r.rows = append(r.rows, p.vals)
	return nil
}

// Clone returns a deep-enough copy: the row list is copied, the rows
// themselves are shared (rows are treated as immutable throughout).
func (r *Relation) Clone() *Relation {
	return &Relation{scheme: r.scheme, rows: append([][]Value(nil), r.rows...)}
}

// Tuples iterates rows in order, invoking f for each; it stops early if f
// returns false.
func (r *Relation) Tuples(f func(Tuple) bool) {
	for i := range r.rows {
		if !f(r.Row(i)) {
			return
		}
	}
}

// PadTo returns a copy of the relation padded onto a superscheme.
func (r *Relation) PadTo(target *Scheme) (*Relation, error) {
	if r.scheme.Equal(target) {
		return r, nil
	}
	// Precompute the column mapping once.
	pos := make([]int, r.scheme.Len())
	for i := 0; i < r.scheme.Len(); i++ {
		j := target.IndexOf(r.scheme.At(i))
		if j < 0 {
			return nil, fmt.Errorf("relation: cannot pad: %s not in target scheme %s", r.scheme.At(i), target)
		}
		pos[i] = j
	}
	out := New(target)
	for _, row := range r.rows {
		nv := make([]Value, target.Len())
		for i, j := range pos {
			nv[j] = row[i]
		}
		out.rows = append(out.rows, nv)
	}
	return out, nil
}

// SortCanonical orders rows by the total order on values; it is used to
// render relations deterministically and to speed up bag comparison of
// large results.
func (r *Relation) SortCanonical() {
	sort.Slice(r.rows, func(i, j int) bool {
		a, b := r.rows[i], r.rows[j]
		for k := range a {
			if c := a[k].Compare(b[k]); c != 0 {
				return c < 0
			}
		}
		return false
	})
}

// EqualBag reports multiset equality of two relations. The schemes must
// contain the same attributes (order-insensitive: columns are aligned by
// attribute before comparing), matching the paper's convention that
// results are compared after padding to the union scheme.
func (r *Relation) EqualBag(s *Relation) bool {
	if r.Len() != s.Len() {
		return false
	}
	if !r.scheme.EqualSet(s.scheme) {
		return false
	}
	// Align s's columns to r's order.
	perm := make([]int, r.scheme.Len())
	for i := 0; i < r.scheme.Len(); i++ {
		perm[i] = s.scheme.IndexOf(r.scheme.At(i))
	}
	counts := make(map[string]int, r.Len())
	var buf []byte
	for _, row := range r.rows {
		buf = appendRowKey(buf[:0], row)
		counts[string(buf)]++
	}
	aligned := make([]Value, len(perm))
	for _, row := range s.rows {
		for i, j := range perm {
			aligned[i] = row[j]
		}
		buf = appendRowKey(buf[:0], aligned)
		k := string(buf)
		counts[k]--
		if counts[k] < 0 {
			return false
		}
	}
	return true
}

// Dedup returns a copy with duplicate rows removed (set semantics); used
// by the paper's duplicate-removing projection π in the GOJ definition.
func (r *Relation) Dedup() *Relation {
	out := New(r.scheme)
	seen := make(map[string]struct{}, len(r.rows))
	var buf []byte
	for _, row := range r.rows {
		buf = appendRowKey(buf[:0], row)
		if _, dup := seen[string(buf)]; dup {
			continue
		}
		seen[string(buf)] = struct{}{}
		out.rows = append(out.rows, row)
	}
	return out
}

// HasDuplicates reports whether any row occurs more than once.
func (r *Relation) HasDuplicates() bool {
	seen := make(map[string]struct{}, len(r.rows))
	var buf []byte
	for _, row := range r.rows {
		buf = appendRowKey(buf[:0], row)
		if _, dup := seen[string(buf)]; dup {
			return true
		}
		seen[string(buf)] = struct{}{}
	}
	return false
}

// String renders the relation as an aligned text table, rows in canonical
// order (the receiver is not mutated).
func (r *Relation) String() string {
	cp := r.Clone()
	cp.SortCanonical()
	cols := r.scheme.Len()
	widths := make([]int, cols)
	header := make([]string, cols)
	for i := 0; i < cols; i++ {
		header[i] = r.scheme.At(i).String()
		widths[i] = len(header[i])
	}
	cells := make([][]string, len(cp.rows))
	for ri, row := range cp.rows {
		cells[ri] = make([]string, cols)
		for ci, v := range row {
			s := v.String()
			cells[ri][ci] = s
			if len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var b strings.Builder
	writeRow := func(fields []string) {
		for i, f := range fields {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(f)
			if i < len(fields)-1 { // no trailing padding on the last column
				for p := len(f); p < widths[i]; p++ {
					b.WriteByte(' ')
				}
			}
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for i := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", widths[i]))
	}
	b.WriteByte('\n')
	for _, row := range cells {
		writeRow(row)
	}
	fmt.Fprintf(&b, "(%d rows)\n", len(cp.rows))
	return b.String()
}
