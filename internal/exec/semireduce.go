package exec

import (
	"fmt"

	"freejoin/internal/hashutil"
	"freejoin/internal/obs"
	"freejoin/internal/predicate"
	"freejoin/internal/relation"
)

// BatchSemiReduce filters its left input down to the rows with at least
// one match in the right input — the physical semijoin step of the
// Yannakakis full-reducer program. It emits left rows unchanged (the
// output scheme is the left scheme), so a chain of reducers composes
// without widening any tuple.
//
// The right input's distinct join keys land in a key-bytes arena behind
// an open-addressed set (much smaller than a hash join's build table:
// dangling probe rows cost one lookup, duplicate build keys cost
// nothing), and each left batch is compacted in place down to the rows
// whose key is present — the semijoin never copies surviving rows. Only
// pure equi predicates qualify; NewSemiJoin lowers any other semijoin
// to BatchNestedLoopJoin in SemiMode, which yields the same bag.
//
// Governor accounting is amortized per batch over the newly retained
// distinct keys. A memory-budget trip with spilling enabled keeps the
// keys gathered so far as a pre-check and moves the rest of the right
// input to a spill run that each left batch scans once (runScan).
// Without spill the typed resource error propagates.
type BatchSemiReduce struct {
	left, right Iterator
	lkeys       []int
	rkeys       []int
	size        int

	ec   *ExecContext
	held hold
	keys keySet

	bsize int
	kbuf  []byte

	scan *runScan // spilled right input after a budget trip
	out  *Batch   // spill mode only: the run scan's output batch
	spst SpillStats
}

// NewSemiJoin lowers one semijoin reducer step left ⋉ right: a pure equi
// predicate gets the BatchSemiReduce key filter, any other predicate
// BatchNestedLoopJoin in SemiMode (the same bag). Both feed the
// oj_semijoin_reduce_* counters; for the nested-loop join, counting
// wrappers around its left input and its output do that, so the join
// itself does not know which caller it serves. size <= 0 means
// DefaultBatchSize.
func NewSemiJoin(left, right Iterator, p predicate.Predicate, size int) (Iterator, error) {
	if _, _, equi := predicate.EquiParts(p, left.Scheme(), right.Scheme()); equi {
		s, err := NewBatchSemiReduce(left, right, p, size)
		if err != nil {
			return nil, err
		}
		return s, nil
	}
	in := &rowCounter{src: left, c: obs.SemiReduceInputRows}
	nl, err := NewBatchNestedLoopJoin(in, right, p, SemiMode, size)
	if err != nil {
		return nil, err
	}
	return &rowCounter{src: nl, c: obs.SemiReduceOutputRows}, nil
}

// rowCounter passes a batch stream through unchanged and adds each
// batch's row count to c. It forwards Buffered and Spiller, so
// instrumentation sees the wrapped operator's buffers and spill runs.
type rowCounter struct {
	src Iterator
	c   *obs.Counter
}

// Scheme implements Iterator.
func (r *rowCounter) Scheme() *relation.Scheme { return r.src.Scheme() }

// Open implements Iterator.
func (r *rowCounter) Open(ec *ExecContext) error { return r.src.Open(ec) }

// NextBatch implements Iterator.
func (r *rowCounter) NextBatch() (*Batch, bool, error) {
	b, ok, err := r.src.NextBatch()
	if ok {
		r.c.Add(int64(b.Len()))
	}
	return b, ok, err
}

// Close implements Iterator.
func (r *rowCounter) Close() error { return r.src.Close() }

// BufferedRows implements Buffered for the wrapped operator.
func (r *rowCounter) BufferedRows() int {
	if b, ok := r.src.(Buffered); ok {
		return b.BufferedRows()
	}
	return 0
}

// SpillInfo implements Spiller for the wrapped operator.
func (r *rowCounter) SpillInfo() SpillStats {
	if s, ok := r.src.(Spiller); ok {
		return s.SpillInfo()
	}
	return SpillStats{}
}

// NewBatchSemiReduce builds the semijoin filter left ⋉ right; p must be
// a pure equi predicate over left/right. size <= 0 means
// DefaultBatchSize.
func NewBatchSemiReduce(left, right Iterator, p predicate.Predicate, size int) (*BatchSemiReduce, error) {
	la, ra, ok := predicate.EquiParts(p, left.Scheme(), right.Scheme())
	if !ok {
		return nil, fmt.Errorf("exec: semireduce requires a pure equi predicate")
	}
	s := &BatchSemiReduce{left: left, right: right, size: size}
	for _, a := range la {
		s.lkeys = append(s.lkeys, left.Scheme().IndexOf(a))
	}
	for _, a := range ra {
		s.rkeys = append(s.rkeys, right.Scheme().IndexOf(a))
	}
	return s, nil
}

// Scheme implements Iterator: semijoins emit left rows unchanged.
func (s *BatchSemiReduce) Scheme() *relation.Scheme { return s.left.Scheme() }

// Open implements Iterator: drains the right input into the key set.
func (s *BatchSemiReduce) Open(ec *ExecContext) error {
	s.resetKeys(s.ec) // re-Open without Close: drop stale set + charge
	s.dropScan(s.ec)  // ... and any stale spill run
	s.ec = ec
	s.spst = SpillStats{}
	if err := ec.Err("semireduce"); err != nil {
		return err
	}
	s.bsize = batchSize(s.size)
	if err := s.right.Open(ec); err != nil {
		s.right.Close()
		return err
	}
	for {
		b, ok, err := s.right.NextBatch()
		if err != nil {
			s.right.Close()
			s.resetKeys(ec)
			return err
		}
		if !ok {
			break
		}
		before := s.keys.len()
		newRows, newBytes := s.insertBatch(b)
		// Charge only the retained (newly distinct) keys, once per batch.
		if cerr := s.held.chargeN(ec, "semireduce", newRows, newBytes); cerr != nil {
			if spillable(ec, cerr) {
				s.keys.truncate(before)
				cerr = s.spillRight(ec, b)
			}
			if cerr != nil {
				s.right.Close()
				s.resetKeys(ec)
				s.dropScan(ec)
				return cerr
			}
			break
		}
	}
	if err := s.right.Close(); err != nil {
		s.resetKeys(ec)
		s.dropScan(ec)
		return err
	}
	if err := s.left.Open(ec); err != nil {
		s.resetKeys(ec)
		s.dropScan(ec)
		return err
	}
	if s.scan != nil {
		s.scan.src = s.left.NextBatch
	}
	return nil
}

// spillRight moves the rest of the right input — the batch whose charge
// tripped, then every remaining batch — to one run. The keys gathered
// before the trip stay (charged) as a pre-check: a left row whose key is
// there is matched without reading the run.
func (s *BatchSemiReduce) spillRight(ec *ExecContext, trip *Batch) error {
	run, err := spillInput(ec, "semireduce", s.right, s.right.Scheme().Len(), trip.vals)
	if err != nil {
		return err
	}
	s.spst.Runs++
	s.spst.Bytes += run.Bytes
	s.scan = &runScan{
		run: run, rsch: s.right.Scheme(), mode: SemiMode, size: s.bsize,
		jp: &joinPred{eqL: s.lkeys, eqR: s.rkeys}, prePass: s.preMatch,
	}
	obs.GovernorDegradations.Inc()
	ec.Governor().Note("semireduce: memory budget trip, spilling filter input to disk")
	return nil
}

// preMatch marks the left rows whose key is in the in-memory key set.
func (s *BatchSemiReduce) preMatch(b *Batch, matched []bool) int {
	obs.SemiReduceInputRows.Add(int64(b.Len()))
	n := 0
	for i := range matched {
		if s.keyPresent(b, i) {
			matched[i] = true
			n++
		}
	}
	return n
}

// dropScan releases the spill run and its scan state, if any.
func (s *BatchSemiReduce) dropScan(ec *ExecContext) {
	if s.scan != nil {
		s.scan.drop(ec)
		s.scan = nil
	}
}

// insertBatch adds a right batch's distinct non-null keys to the set,
// returning the count and byte estimate of the retained source rows.
func (s *BatchSemiReduce) insertBatch(b *Batch) (rows, bytes int64) {
	n := b.Len()
	for i := 0; i < n; i++ {
		null := false
		for _, k := range s.rkeys {
			if b.IsNull(i, k) {
				null = true
				break
			}
		}
		if null {
			continue // null keys never match; the filter can skip them
		}
		row := b.Row(i)
		kb := s.kbuf[:0]
		for _, k := range s.rkeys {
			kb = relation.AppendJoinKey(kb, row[k])
		}
		s.kbuf = kb
		hash := hashutil.Sum32(kb)
		if s.keys.find(kb, hash) >= 0 {
			continue
		}
		s.keys.add(kb, hash)
		rows++
		bytes += rowBytes(row)
	}
	return rows, bytes
}

// keyPresent reports whether left row i of b has a non-null key in the
// set (the null bitmap short-circuits a null key: it matches nothing).
func (s *BatchSemiReduce) keyPresent(b *Batch, i int) bool {
	for _, k := range s.lkeys {
		if b.IsNull(i, k) {
			return false
		}
	}
	row := b.Row(i)
	kb := s.kbuf[:0]
	for _, k := range s.lkeys {
		kb = relation.AppendJoinKey(kb, row[k])
	}
	s.kbuf = kb
	return s.keys.find(kb, hashutil.Sum32(kb)) >= 0
}

// NextBatch implements Iterator: left batches compacted in place,
// or the run scan's output after a spill.
func (s *BatchSemiReduce) NextBatch() (*Batch, bool, error) {
	if err := s.ec.Err("semireduce"); err != nil {
		return nil, false, err
	}
	if s.scan != nil {
		s.out = ensureBatch(s.out, s.Scheme(), s.bsize)
		if _, err := s.scan.fill(s.out); err != nil {
			return nil, false, err
		}
		if s.out.Len() == 0 {
			return nil, false, nil
		}
		obs.SemiReduceOutputRows.Add(int64(s.out.Len()))
		return s.out, true, nil
	}
	for {
		b, ok, err := s.left.NextBatch()
		if err != nil || !ok {
			return nil, false, err
		}
		n := b.Len()
		obs.SemiReduceInputRows.Add(int64(n))
		keep := 0
		for i := 0; i < n; i++ {
			if s.keyPresent(b, i) {
				b.MoveRow(keep, i)
				keep++
			}
		}
		if keep == 0 {
			continue // fully reduced batch: pull the next one
		}
		b.Truncate(keep)
		obs.SemiReduceOutputRows.Add(int64(keep))
		return b, true, nil
	}
}

// resetKeys drops the key set and returns its governor charge.
func (s *BatchSemiReduce) resetKeys(ec *ExecContext) {
	s.keys.reset()
	s.held.release(ec)
}

// BufferedRows implements Buffered: the distinct keys held.
func (s *BatchSemiReduce) BufferedRows() int { return s.keys.len() }

// SpillInfo implements Spiller.
func (s *BatchSemiReduce) SpillInfo() SpillStats { return s.spst }

// Close implements Iterator: the key set (and its charge) and any spill
// run are released.
func (s *BatchSemiReduce) Close() error {
	s.out = releaseBatch(s.out)
	s.resetKeys(s.ec)
	s.dropScan(s.ec)
	s.keys = keySet{}
	return s.left.Close()
}
