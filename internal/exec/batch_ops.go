package exec

import (
	"fmt"

	"freejoin/internal/predicate"
	"freejoin/internal/relation"
	"freejoin/internal/storage"
)

// batchSize resolves an operator's configured batch size: a positive
// value as given, else the default.
func batchSize(configured int) int {
	if configured > 0 {
		return configured
	}
	return DefaultBatchSize
}

// ensureBatch returns out if it matches the wanted scheme and capacity,
// else a fresh batch; either way the result is empty.
func ensureBatch(out *Batch, scheme *relation.Scheme, size int) *Batch {
	if out == nil || out.Scheme() != scheme || out.Cap() != size {
		return NewBatch(scheme, size)
	}
	out.Reset()
	return out
}

// BatchScan reads every row of a table a batch at a time: each
// NextBatch copies up to size base-table rows into a reused slab, with
// one error check and one counter update per batch instead of per row.
// Copying (rather than handing out base-table storage) keeps a caller
// exercising its right to mutate a batch in place from corrupting the
// table.
type BatchScan struct {
	table    *storage.Table
	counters *Counters
	size     int

	ec   *ExecContext
	pos  int
	rows int
	out  *Batch
	cur  batchCursor
}

// NewBatchScan returns a batched full-table scan; size <= 0 means
// DefaultBatchSize.
func NewBatchScan(t *storage.Table, c *Counters, size int) *BatchScan {
	return &BatchScan{table: t, counters: c, size: size}
}

// Scheme implements Iterator.
func (s *BatchScan) Scheme() *relation.Scheme { return s.table.Scheme() }

// Open implements Iterator.
func (s *BatchScan) Open(ec *ExecContext) error {
	s.ec = ec
	s.pos = 0
	s.rows = s.table.Relation().Len()
	s.out = ensureBatch(s.out, s.table.Scheme(), batchSize(s.size))
	s.cur.reset()
	return ec.Err("scan")
}

// NextBatch implements BatchIterator.
func (s *BatchScan) NextBatch() (*Batch, bool, error) {
	if err := s.ec.Err("scan"); err != nil {
		return nil, false, err
	}
	if s.pos >= s.rows {
		return nil, false, nil
	}
	s.out.Reset()
	rel := s.table.Relation()
	n := s.out.Cap()
	if left := s.rows - s.pos; left < n {
		n = left
	}
	for i := 0; i < n; i++ {
		s.out.AppendRow(rel.RawRow(s.pos + i))
	}
	s.pos += n
	s.counters.AddTuples(int64(n))
	return s.out, true, nil
}

// Next implements Iterator through the batch cursor.
func (s *BatchScan) Next() ([]relation.Value, bool, error) {
	return s.cur.next(s.NextBatch)
}

// Close implements Iterator.
func (s *BatchScan) Close() error {
	s.cur.reset()
	s.out = releaseBatch(s.out)
	return nil
}

// BatchFilter applies a predicate to its child's rows a batch at a time,
// compacting survivors in place in the child's batch — the ownership
// contract lets the caller overwrite a batch it was handed, so filtering
// allocates and copies nothing.
type BatchFilter struct {
	child Iterator
	bound predicate.Bound
	size  int

	bchild BatchIterator
	cur    batchCursor
}

// NewBatchFilter compiles p against the child's scheme; size <= 0 means
// DefaultBatchSize for the adapter when the child is row-at-a-time.
func NewBatchFilter(child Iterator, p predicate.Predicate, size int) (*BatchFilter, error) {
	b, err := predicate.Bind(p, child.Scheme())
	if err != nil {
		return nil, fmt.Errorf("exec: filter: %w", err)
	}
	return &BatchFilter{child: child, bound: b, size: size}, nil
}

// Scheme implements Iterator.
func (f *BatchFilter) Scheme() *relation.Scheme { return f.child.Scheme() }

// Open implements Iterator.
func (f *BatchFilter) Open(ec *ExecContext) error {
	if err := ec.Err("filter"); err != nil {
		return err
	}
	f.bchild = Batching(f.child, batchSize(f.size))
	f.cur.reset()
	return f.child.Open(ec)
}

// NextBatch implements BatchIterator.
func (f *BatchFilter) NextBatch() (*Batch, bool, error) {
	for {
		b, ok, err := f.bchild.NextBatch()
		if err != nil || !ok {
			return nil, false, err
		}
		keep := 0
		for i := 0; i < b.Len(); i++ {
			if f.bound.Holds(b.Row(i)) {
				b.MoveRow(keep, i)
				keep++
			}
		}
		if keep == 0 {
			continue // fully filtered batch: pull the next one
		}
		b.Truncate(keep)
		return b, true, nil
	}
}

// Next implements Iterator through the batch cursor.
func (f *BatchFilter) Next() ([]relation.Value, bool, error) {
	return f.cur.next(f.NextBatch)
}

// Close implements Iterator.
func (f *BatchFilter) Close() error {
	f.cur.reset()
	return f.child.Close()
}
