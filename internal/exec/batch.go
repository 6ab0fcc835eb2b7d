package exec

import (
	"sync"

	"freejoin/internal/relation"
)

// slabPool recycles value slabs (batch backing stores, nested-loop
// chunks) across operator lifetimes. Operators are rebuilt per
// execution, so without recycling each query churns multiple megabytes
// of pointer-bearing slabs and forces a collector cycle — which rescans
// every resident relation — every few queries.
var slabPool sync.Pool

// getSlab returns a value slab with length n. Contents are unspecified;
// callers must overwrite before reading.
func getSlab(n int) []relation.Value {
	if v, ok := slabPool.Get().(*[]relation.Value); ok && cap(*v) >= n {
		return (*v)[:n]
	}
	return make([]relation.Value, n)
}

// putSlab recycles s. The caller yields ownership: the slab must not be
// read or written afterwards.
func putSlab(s []relation.Value) {
	if cap(s) == 0 {
		return
	}
	s = s[:0]
	slabPool.Put(&s)
}

// releaseBatch recycles a batch's backing slab and neutralizes the
// batch; it always returns nil so callers can clear their field in the
// same statement (making a second Close a no-op on an already-released
// batch).
func releaseBatch(b *Batch) *Batch {
	if b != nil {
		putSlab(b.vals)
		b.vals = nil
	}
	return nil
}

// DefaultBatchSize is the number of rows a batch operator accumulates
// per NextBatch call when no explicit size is configured. 1024 rows of
// 40-byte Values keeps a typical batch within L2 while amortizing the
// per-call interface and governor costs ~1000x.
const DefaultBatchSize = 1024

// Batch is a row-slab of tuples: Len() rows of Width() values stored
// contiguously in a single backing slice, plus a null bitmap with one
// bit per (row, column) slot. The bitmap is maintained by the append
// methods and mirrors relation.Value.IsNull; batch operators use it for
// O(1) null tests feeding S2's 3-valued predicate logic — a null join
// key short-circuits to the outerjoin padding / anti-join branch
// without ever running the equality predicate, and outer padding sets
// the padded columns' bits wholesale.
//
// Ownership follows the iterator contract: a batch returned by
// NextBatch is owned by the producer and valid only until the caller's
// next NextBatch/Close on that producer. The caller MAY mutate it
// in place (filters compact survivors into the same slab); producers
// never re-read a batch they have emitted.
type Batch struct {
	scheme  *relation.Scheme
	width   int
	n       int
	capRows int
	vals    []relation.Value // n*width values, row-major
	nulls   []uint64         // bit i*width+j set iff Row(i)[j] is null
}

// NewBatch returns an empty batch over scheme with capacity rows
// preallocated.
func NewBatch(scheme *relation.Scheme, capacity int) *Batch {
	if capacity <= 0 {
		capacity = DefaultBatchSize
	}
	w := scheme.Len()
	return &Batch{
		scheme:  scheme,
		width:   w,
		capRows: capacity,
		vals:    getSlab(capacity * w)[:0],
		nulls:   make([]uint64, (capacity*w+63)/64),
	}
}

// Scheme returns the batch's row scheme.
func (b *Batch) Scheme() *relation.Scheme { return b.scheme }

// Len returns the number of rows currently in the batch.
func (b *Batch) Len() int { return b.n }

// Width returns the number of columns per row.
func (b *Batch) Width() int { return b.width }

// Cap returns the row capacity the batch was allocated with.
func (b *Batch) Cap() int { return b.capRows }

// Full reports whether the batch has reached its allocated capacity.
func (b *Batch) Full() bool { return b.n >= b.capRows }

// Reset empties the batch for reuse, keeping the allocations.
func (b *Batch) Reset() {
	b.vals = b.vals[:0]
	b.n = 0
	for i := range b.nulls {
		b.nulls[i] = 0
	}
}

// Row returns the i-th row as a view into the slab. The view is valid
// under the same ownership rules as the batch itself.
func (b *Batch) Row(i int) []relation.Value {
	s := i * b.width
	e := s + b.width
	return b.vals[s:e:e]
}

// IsNull reports whether column col of row i is null, from the bitmap.
func (b *Batch) IsNull(i, col int) bool {
	bit := i*b.width + col
	return b.nulls[bit>>6]&(1<<(uint(bit)&63)) != 0
}

func (b *Batch) setNull(i, col int) {
	bit := i*b.width + col
	b.growNulls(bit)
	b.nulls[bit>>6] |= 1 << (uint(bit) & 63)
}

// growNulls ensures the bitmap covers bit (appends past the original
// capacity grow the slab; the bitmap must follow).
func (b *Batch) growNulls(bit int) {
	for len(b.nulls) <= bit>>6 {
		b.nulls = append(b.nulls, 0)
	}
}

// noteRowNulls records the null bits of the just-appended row i by
// scanning its values.
func (b *Batch) noteRowNulls(i int) {
	row := b.Row(i)
	base := i * b.width
	b.growNulls(base + b.width - 1)
	for j := range row {
		if row[j].IsNull() {
			b.nulls[(base+j)>>6] |= 1 << (uint(base+j) & 63)
		}
	}
}

// AppendRow copies row into the batch and updates the null bitmap.
func (b *Batch) AppendRow(row []relation.Value) {
	b.vals = append(b.vals, row...)
	i := b.n
	b.n++
	b.noteRowNulls(i)
}

// AppendConcat appends the concatenation of a left and right row — the
// hash-join match emission — without an intermediate allocation.
func (b *Batch) AppendConcat(l, r []relation.Value) {
	b.vals = append(b.vals, l...)
	b.vals = append(b.vals, r...)
	i := b.n
	b.n++
	b.noteRowNulls(i)
}

// AppendPad appends row padded with nulls up to the batch width — the
// outerjoin null-padding emission. The padded columns' null bits are set
// directly; row's bits are scanned.
func (b *Batch) AppendPad(row []relation.Value) {
	b.vals = append(b.vals, row...)
	for j := len(row); j < b.width; j++ {
		b.vals = append(b.vals, relation.Value{})
	}
	i := b.n
	b.n++
	b.noteRowNulls(i)
}

// MoveRow copies row src over row dst within the batch (dst <= src) —
// the in-place compaction a batch filter uses — and fixes the bitmap.
func (b *Batch) MoveRow(dst, src int) {
	if dst == src {
		return
	}
	copy(b.Row(dst), b.Row(src))
	base := dst * b.width
	row := b.Row(dst)
	for j := range row {
		bit := base + j
		if row[j].IsNull() {
			b.nulls[bit>>6] |= 1 << (uint(bit) & 63)
		} else {
			b.nulls[bit>>6] &^= 1 << (uint(bit) & 63)
		}
	}
}

// Truncate shortens the batch to n rows.
func (b *Batch) Truncate(n int) {
	if n < b.n {
		b.vals = b.vals[:n*b.width]
		b.n = n
	}
}

// Bytes estimates the resident size of the batch's rows for governor
// byte accounting, in one pass (the per-batch analogue of rowBytes).
func (b *Batch) Bytes() int64 {
	n := int64(len(b.vals)) * 40
	for i := range b.vals {
		if b.vals[i].Kind() == relation.KindString {
			n += int64(len(b.vals[i].AsString()))
		}
	}
	return n
}

// appendToRelation copies the batch's rows into out. Each row gets a
// fresh sub-slice of one per-batch slab, so the result does not alias
// the (reused) batch.
func (b *Batch) appendToRelation(out *relation.Relation) {
	if b.n == 0 {
		return
	}
	slab := make([]relation.Value, len(b.vals))
	copy(slab, b.vals)
	for i := 0; i < b.n; i++ {
		s := i * b.width
		e := s + b.width
		out.AppendRaw(slab[s:e:e])
	}
}
