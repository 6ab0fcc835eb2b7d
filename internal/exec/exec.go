// Package exec is the physical execution engine: vectorized iterators
// over the storage layer that hand rows up a batch at a time, with
// scan/index-lookup accounting. The counter of tuples retrieved from base
// tables is the cost measure of the paper's Example 1 ("the first
// expression retrieves 2·10⁷+1 tuples, and the second retrieves only
// 3").
//
// Every Open takes an *ExecContext (may be nil = ungoverned) carrying a
// context.Context and an optional Governor, so cancellation, deadlines
// and memory budgets propagate into every operator, including the
// blocking ones that materialize their inputs. Operators that buffer rows
// charge the governor as they buffer and release the charge on Close; a
// trip surfaces as a typed *ResourceError naming the operator.
//
// The error contract (enforced by faults_test.go for every operator):
// an Open that returns an error has already closed any children it opened
// and released any buffers and governor charges it acquired; after
// NextBatch returns an error the operator never calls a child's NextBatch
// again; Close is idempotent and always releases buffers and charges.
package exec

import (
	"errors"
	"fmt"
	"sync/atomic"

	"freejoin/internal/obs"
	"freejoin/internal/relation"
	"freejoin/internal/resource"
	"freejoin/internal/storage"
)

// Re-exports: the governance types live in internal/resource (below both
// exec and storage); exec is their primary consumer and public face.
type (
	// ExecContext carries cancellation, deadline and memory budget state
	// through Open. A nil *ExecContext means ungoverned execution.
	ExecContext = resource.ExecContext
	// Governor enforces memory budgets over buffered rows.
	Governor = resource.Governor
	// ResourceError is the typed error of a cancelled, timed-out or
	// over-budget execution.
	ResourceError = resource.ResourceError
	// Kind classifies a ResourceError.
	Kind = resource.Kind
	// SpillConfig enables and parameterizes spill-to-disk execution;
	// attach one with ExecContext.EnableSpill.
	SpillConfig = resource.SpillConfig
)

// Resource error kinds (see resource.Kind).
const (
	Cancelled        = resource.Cancelled
	DeadlineExceeded = resource.DeadlineExceeded
	MemoryExceeded   = resource.MemoryExceeded
	SpillExceeded    = resource.SpillExceeded
)

// spillable reports whether err is a memory-budget trip that the
// spill-to-disk paths can absorb: spilling must be enabled on the
// context and the error must be a MemoryExceeded governor trip (a
// cancellation or deadline aborts regardless).
func spillable(ec *ExecContext, err error) bool {
	if ec.Spill() == nil {
		return false
	}
	var re *ResourceError
	return errors.As(err, &re) && re.Kind == MemoryExceeded
}

// NewGovernor returns a governor with the given row/byte budgets (zero
// disables a limit).
func NewGovernor(limitRows, limitBytes int64) *Governor {
	return resource.NewGovernor(limitRows, limitBytes)
}

// NewExecContext builds an execution context from a context and an
// optional governor; both may be nil.
var NewExecContext = resource.NewContext

// Counters accumulates execution effort across a plan. The fields are
// atomic so that a monitoring scrape (or any other goroutine, such as a
// progress reporter) can read them while the executing goroutine
// updates them; every *writer* is the single executing goroutine, and
// the atomics make the cross-goroutine *reads* race-free. All methods
// are nil-safe: a nil *Counters counts nothing and reads zero.
type Counters struct {
	tuplesRetrieved atomic.Int64
	rowsProduced    atomic.Int64
}

// TuplesRetrieved returns the rows fetched from base tables, by full
// scans and by index lookups — the paper's Example 1 metric.
func (c *Counters) TuplesRetrieved() int64 {
	if c == nil {
		return 0
	}
	return c.tuplesRetrieved.Load()
}

// RowsProduced returns the rows emitted by the operator tree's root.
func (c *Counters) RowsProduced() int64 {
	if c == nil {
		return 0
	}
	return c.rowsProduced.Load()
}

// AddTuples counts n base-table tuple retrievals.
func (c *Counters) AddTuples(n int64) {
	if c != nil && n > 0 {
		c.tuplesRetrieved.Add(n)
	}
}

// AddRows counts n rows emitted by the plan root.
func (c *Counters) AddRows(n int64) {
	if c != nil && n > 0 {
		c.rowsProduced.Add(n)
	}
}

// Iterator is the operator interface. NextBatch returns the next
// non-empty batch of rows and true, or false at end of stream; the batch
// belongs to the producer and is valid until the caller's next
// NextBatch or Close on it (see Batch). Open accepts a nil ExecContext
// (ungoverned execution).
type Iterator interface {
	Scheme() *relation.Scheme
	Open(ec *ExecContext) error
	NextBatch() (*Batch, bool, error)
	Close() error
}

// rowBytes estimates the resident size of a row for byte budgets: the
// Value struct itself plus string payloads.
func rowBytes(row []relation.Value) int64 {
	n := int64(len(row)) * 40 // unsafe.Sizeof(relation.Value{}) on 64-bit
	for _, v := range row {
		if v.Kind() == relation.KindString {
			n += int64(len(v.AsString()))
		}
	}
	return n
}

// hold tracks one operator's outstanding governor reservation so it can
// be released exactly once, on Close or on an Open error path.
type hold struct {
	rows, bytes int64
}

// chargeN reserves rows/bytes on behalf of op in one governor call, so
// the accounting is amortized over a whole batch.
func (h *hold) chargeN(ec *ExecContext, op string, rows, bytes int64) error {
	if rows == 0 && bytes == 0 {
		return nil
	}
	if err := ec.Reserve(op, rows, bytes); err != nil {
		return err
	}
	h.rows += rows
	h.bytes += bytes
	return nil
}

// release returns the entire outstanding reservation.
func (h *hold) release(ec *ExecContext) {
	if h.rows != 0 || h.bytes != 0 {
		ec.Release(h.rows, h.bytes)
		h.rows, h.bytes = 0, 0
	}
}

// Collect drains an iterator into a relation, updating RowsProduced.
// The iterator is always closed, including on mid-stream errors; a Close
// error surfaces when the drain itself succeeded.
func Collect(it Iterator, c *Counters) (*relation.Relation, error) {
	return CollectCtx(nil, it, c)
}

// CollectCtx is Collect under an execution context: cancellation,
// deadlines and memory budgets govern the drain. When counters are
// attached the process-wide metrics absorb the execution's effort (rows
// produced, tuples retrieved) on the way out, error or not; drains that
// pass nil counters stay out of the cumulative figures.
func CollectCtx(ec *ExecContext, it Iterator, c *Counters) (*relation.Relation, error) {
	if c != nil {
		t0 := c.TuplesRetrieved()
		r0 := c.RowsProduced()
		defer func() {
			obs.TuplesRetrieved.Add(c.TuplesRetrieved() - t0)
			obs.RowsProduced.Add(c.RowsProduced() - r0)
		}()
	}
	if err := it.Open(ec); err != nil {
		// The operator contract releases its own state on a failed Open;
		// Close here is a harmless idempotent safety net.
		it.Close()
		return nil, err
	}
	// The iterator must be closed on every exit — including a panic
	// unwinding out of NextBatch (an injected fault, a bug in an operator):
	// Close releases governor charges, buffers and spill run files, so a
	// session-level recover() finds nothing leaked.
	closed := false
	defer func() {
		if !closed {
			it.Close()
		}
	}()
	out := relation.New(it.Scheme())
	for {
		b, ok, err := it.NextBatch()
		if err != nil {
			closed = true
			it.Close()
			return nil, err
		}
		if !ok {
			break
		}
		b.appendToRelation(out)
		c.AddRows(int64(b.Len()))
	}
	closed = true
	if err := it.Close(); err != nil {
		return nil, err
	}
	return out, nil
}

// IndexScan fetches only the rows of a table whose indexed column equals
// a constant — the access path a pushed-down equality restriction earns
// when the column has a hash index. The hits are looked up at Open and
// copied out a batch at a time; each fetched row counts as one retrieved
// tuple.
type IndexScan struct {
	table    *storage.Table
	index    *storage.HashIndex
	value    relation.Value
	counters *Counters
	ec       *ExecContext
	rows     []int
	pos      int
	out      *Batch
}

// NewIndexScan builds an index scan on the table's hash index over col.
func NewIndexScan(t *storage.Table, col string, v relation.Value, c *Counters) (*IndexScan, error) {
	idx, ok := t.HashIndexOn(col)
	if !ok {
		return nil, fmt.Errorf("exec: table %s has no hash index on %s", t.Name(), col)
	}
	return &IndexScan{table: t, index: idx, value: v, counters: c}, nil
}

// Scheme implements Iterator.
func (s *IndexScan) Scheme() *relation.Scheme { return s.table.Scheme() }

// Open implements Iterator.
func (s *IndexScan) Open(ec *ExecContext) error {
	s.ec = ec
	if err := ec.Err("indexscan"); err != nil {
		return err
	}
	s.rows = s.index.Lookup(s.value)
	s.pos = 0
	return nil
}

// NextBatch implements Iterator.
func (s *IndexScan) NextBatch() (*Batch, bool, error) {
	if err := s.ec.Err("indexscan"); err != nil {
		return nil, false, err
	}
	if s.pos >= len(s.rows) {
		return nil, false, nil
	}
	s.out = ensureBatch(s.out, s.table.Scheme(), DefaultBatchSize)
	n := min(len(s.rows)-s.pos, DefaultBatchSize)
	rel := s.table.Relation()
	for _, r := range s.rows[s.pos : s.pos+n] {
		s.out.AppendRow(rel.RawRow(r))
	}
	s.pos += n
	s.counters.AddTuples(int64(n))
	return s.out, true, nil
}

// Close implements Iterator.
func (s *IndexScan) Close() error {
	s.out = releaseBatch(s.out)
	return nil
}
