package exec

import (
	"fmt"

	"freejoin/internal/obs"
	"freejoin/internal/predicate"
	"freejoin/internal/relation"
	"freejoin/internal/storage"
)

// BatchIndexJoin drives the join from the left input and fetches
// matching inner rows through a hash index on a base table — the access
// path of Example 1's cheap plan. Left batches drive the probes, and
// matches are emitted as concatenated (or null-padded) rows into a
// reused output batch. Each fetched inner row counts as one retrieved
// tuple, with the accounting amortized to one counter update per batch.
// The index and inner relation are static, so a probe whose match list
// outgrows the output batch can suspend and resume on the next call
// without copying anything.
type BatchIndexJoin struct {
	left     Iterator
	inner    *storage.Table
	index    *storage.HashIndex
	outerKey int
	scheme   *relation.Scheme
	residual *predicate.Bound
	mode     JoinMode
	counters *Counters
	iwidth   int
	size     int

	ec      *ExecContext
	lc      leftCursor
	crow    []relation.Value // scratch concat row for the residual
	fetched int64            // tuples fetched since the last flush

	// A probe whose matches outgrew the output batch: emission resumes
	// at pendPositions[pendPos]. The row stays valid because the left
	// child is not advanced until its batch is fully processed.
	pendRow       []relation.Value
	pendPositions []int
	pendPos       int

	// Per-left-batch probe results from the index's vectorized span
	// lookup; empty (and unused) when the index has no int probe table.
	spans    []storage.IntSpan
	useSpans bool

	out *Batch
}

// NewBatchIndexJoin probes inner's hash index on idxCol with the value
// of outerKey in each left row. residual may be nil; size <= 0 means
// DefaultBatchSize.
func NewBatchIndexJoin(left Iterator, inner *storage.Table, idxCol string, outerKey relation.Attr,
	residual predicate.Predicate, mode JoinMode, c *Counters, size int) (*BatchIndexJoin, error) {
	idx, ok := inner.HashIndexOn(idxCol)
	if !ok {
		return nil, fmt.Errorf("exec: table %s has no hash index on %s", inner.Name(), idxCol)
	}
	kp := left.Scheme().IndexOf(outerKey)
	if kp < 0 {
		return nil, fmt.Errorf("exec: outer key %s not in left scheme %s", outerKey, left.Scheme())
	}
	sch, err := outputScheme(left.Scheme(), inner.Scheme(), mode)
	if err != nil {
		return nil, err
	}
	j := &BatchIndexJoin{left: left, inner: inner, index: idx, outerKey: kp, scheme: sch,
		mode: mode, counters: c, iwidth: inner.Scheme().Len(), size: size}
	if residual != nil {
		full, err := left.Scheme().Concat(inner.Scheme())
		if err != nil {
			return nil, err
		}
		b, err := predicate.Bind(residual, full)
		if err != nil {
			return nil, fmt.Errorf("exec: index join residual: %w", err)
		}
		j.residual = &b
	}
	return j, nil
}

// Scheme implements Iterator.
func (j *BatchIndexJoin) Scheme() *relation.Scheme { return j.scheme }

// Open implements Iterator.
func (j *BatchIndexJoin) Open(ec *ExecContext) error {
	j.ec = ec
	if err := ec.Err("indexjoin"); err != nil {
		return err
	}
	j.out = ensureBatch(j.out, j.scheme, batchSize(j.size))
	j.lc.reset(j.nextLeft)
	j.pendRow, j.pendPositions, j.pendPos = nil, nil, 0
	j.fetched = 0
	return j.left.Open(ec)
}

// residualHolds applies the residual (if any) to lrow ++ irow.
func (j *BatchIndexJoin) residualHolds(lrow, irow []relation.Value) bool {
	if j.residual == nil {
		return true
	}
	crow := j.crow[:0]
	crow = append(crow, lrow...)
	crow = append(crow, irow...)
	j.crow = crow
	return j.residual.Holds(crow)
}

// NextBatch implements Iterator, flushing the amortized
// retrieved-tuple count once per batch.
func (j *BatchIndexJoin) NextBatch() (*Batch, bool, error) {
	b, ok, err := j.nextBatch()
	if j.fetched > 0 {
		j.counters.AddTuples(j.fetched)
		j.fetched = 0
	}
	return b, ok, err
}

func (j *BatchIndexJoin) nextBatch() (*Batch, bool, error) {
	if err := j.ec.Err("indexjoin"); err != nil {
		return nil, false, err
	}
	out := j.out
	out.Reset()
	for {
		// Resume a suspended match list before advancing the probe.
		if j.pendRow != nil {
			j.drainPend(out)
			if out.Full() {
				return out, true, nil
			}
		}
		ok, err := j.lc.more()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			break
		}
		for lb := j.lc.b; j.lc.pos < lb.Len() && !out.Full() && j.pendRow == nil; j.lc.pos++ {
			j.probeRow(out, lb, j.lc.pos)
		}
		if out.Full() {
			return out, true, nil
		}
	}
	if out.Len() == 0 {
		return nil, false, nil
	}
	return out, true, nil
}

// nextLeft pulls the next left batch and resolves its probes through
// the index's vectorized span lookup.
func (j *BatchIndexJoin) nextLeft() (*Batch, bool, error) {
	b, ok, err := j.left.NextBatch()
	if ok {
		if cap(j.spans) < b.Len() {
			j.spans = make([]storage.IntSpan, b.Len())
		}
		j.useSpans = j.index.LookupIntSpans(b.vals, b.width, j.outerKey, j.spans[:b.Len()])
	}
	return b, ok, err
}

// probeRow probes left row i of lb against the index, emitting into
// out. Each fetched inner row counts as one retrieved tuple.
func (j *BatchIndexJoin) probeRow(out *Batch, lb *Batch, i int) {
	lrow := lb.Row(i)
	var positions []int
	if j.useSpans {
		positions = j.index.SpanRows(j.spans[i])
	} else {
		positions = j.index.Lookup(lrow[j.outerKey])
	}
	rel := j.inner.Relation()
	matched := false
	for pi := 0; pi < len(positions); pi++ {
		irow := rel.RawRow(positions[pi])
		j.fetched++
		if !j.residualHolds(lrow, irow) {
			continue
		}
		matched = true
		if j.mode == InnerMode || j.mode == LeftOuterMode {
			out.AppendConcat(lrow, irow)
			if out.Full() && pi+1 < len(positions) {
				// Matched already, so completion needs no miss handling.
				j.pendRow, j.pendPositions, j.pendPos = lrow, positions, pi+1
				return
			}
		} else {
			break
		}
	}
	switch j.mode {
	case LeftOuterMode:
		if !matched {
			out.AppendPad(lrow)
		}
	case SemiMode:
		if matched {
			out.AppendRow(lrow)
		}
	case AntiMode:
		if !matched {
			out.AppendRow(lrow)
		}
	}
}

// drainPend emits the suspended probe's remaining matches until the
// list or the output batch is exhausted.
func (j *BatchIndexJoin) drainPend(out *Batch) {
	rel := j.inner.Relation()
	for j.pendPos < len(j.pendPositions) && !out.Full() {
		irow := rel.RawRow(j.pendPositions[j.pendPos])
		j.pendPos++
		j.fetched++
		if !j.residualHolds(j.pendRow, irow) {
			continue
		}
		out.AppendConcat(j.pendRow, irow)
	}
	if j.pendPos >= len(j.pendPositions) {
		j.pendRow, j.pendPositions = nil, nil
	}
}

// Close implements Iterator.
func (j *BatchIndexJoin) Close() error {
	j.out = releaseBatch(j.out)
	j.lc.reset(nil)
	j.pendRow, j.pendPositions = nil, nil
	return j.left.Close()
}

// BatchNestedLoopJoin joins on an arbitrary predicate: the right input
// is materialized once at Open into flat value slabs (one copy per
// batch, not per row), and each left row scans the slabs, emitting into
// a reused output batch. Governor accounting is amortized per build
// batch.
//
// When the materialization trips the memory budget with spilling
// enabled, the slabs, the batch whose charge tripped and the rest of the
// right input move to one spill run, which each left batch then scans
// once (runScan). Without spill the typed resource error propagates.
type BatchNestedLoopJoin struct {
	left, right Iterator
	scheme      *relation.Scheme
	jp          joinPred
	mode        JoinMode
	rwidth      int
	size        int

	ec   *ExecContext
	held hold

	// The materialized right input, one flat slab per drained batch —
	// append-free chunks avoid the reallocation churn of growing one
	// slab to the full input size.
	chunks []nlChunk
	rrows  int

	bsize int
	lc    leftCursor

	// The left row currently scanning the slab; emission resumes at
	// chunk pendChunk, row pendOff on the next call when the output
	// batch fills.
	pendRow     []relation.Value
	pendChunk   int
	pendOff     int
	pendMatched bool

	// Single-driving-row streaming mode: when the left input turns out
	// to be exactly one row, the rescan loop is degenerate and the right
	// input streams through once instead of being materialized (and
	// charged). slrow is a copy of the driving row (the peek-ahead pull
	// that proves the left is exhausted invalidates the original).
	stream    bool
	slrow     []relation.Value
	sdone     bool
	smatched  bool
	rightOpen bool
	srb       *Batch // right batch suspended mid-emission
	srpos     int

	scan *runScan // spilled right input after a budget trip
	spst SpillStats

	out *Batch
}

// NewBatchNestedLoopJoin builds a nested-loop join with predicate p;
// size <= 0 means DefaultBatchSize.
func NewBatchNestedLoopJoin(left, right Iterator, p predicate.Predicate, mode JoinMode, size int) (*BatchNestedLoopJoin, error) {
	sch, err := outputScheme(left.Scheme(), right.Scheme(), mode)
	if err != nil {
		return nil, err
	}
	jp, err := newJoinPred(p, left.Scheme(), right.Scheme())
	if err != nil {
		return nil, fmt.Errorf("exec: nested-loop predicate: %w", err)
	}
	return &BatchNestedLoopJoin{left: left, right: right, scheme: sch, jp: jp,
		mode: mode, rwidth: right.Scheme().Len(), size: size}, nil
}

// Scheme implements Iterator.
func (n *BatchNestedLoopJoin) Scheme() *relation.Scheme { return n.scheme }

// Open implements Iterator: peeks the left input, then either streams
// the right side (single driving row) or materializes it a batch at a
// time.
func (n *BatchNestedLoopJoin) Open(ec *ExecContext) error {
	n.resetBuild(n.ec) // re-Open without Close: drop stale slab + charge
	n.dropScan(n.ec)   // ... and any stale spill run
	if n.rightOpen {
		n.rightOpen = false
		n.right.Close()
	}
	n.ec = ec
	n.spst = SpillStats{}
	n.lc.reset(nil)
	n.pendRow, n.pendChunk, n.pendOff, n.pendMatched = nil, 0, 0, false
	n.stream, n.sdone, n.smatched = false, false, false
	n.srb, n.srpos = nil, 0
	if err := ec.Err("nestedloop"); err != nil {
		return err
	}
	n.bsize = batchSize(n.size)
	n.out = ensureBatch(n.out, n.scheme, n.bsize)
	if err := n.left.Open(ec); err != nil {
		return err
	}
	n.lc.reset(n.left.NextBatch)
	lb, ok, err := n.left.NextBatch()
	if err != nil {
		return err
	}
	if !ok {
		// Empty left input: run the normal build anyway so governor and
		// fault behavior are unchanged; the probe loop emits nothing.
		n.lc.done = true
		return n.buildRight(ec)
	}
	if lb.Len() == 1 {
		n.slrow = append(n.slrow[:0], lb.Row(0)...)
		lb2, more, err := n.left.NextBatch()
		if err != nil {
			return err
		}
		if !more {
			n.stream = true
			if oerr := n.right.Open(ec); oerr != nil {
				n.right.Close()
				return oerr
			}
			n.rightOpen = true
			return nil
		}
		// More left input after all: replay the buffered row through the
		// normal probe path, then continue from the current batch.
		n.pendRow, n.pendChunk, n.pendOff, n.pendMatched = n.slrow, 0, 0, false
		lb = lb2
	}
	n.lc.b, n.lc.pos = lb, 0
	return n.buildRight(ec)
}

// buildRight materializes the right input into chunks, moving it to a
// spill run on a memory trip when the context allows it.
func (n *BatchNestedLoopJoin) buildRight(ec *ExecContext) error {
	if err := n.right.Open(ec); err != nil {
		n.right.Close()
		return err
	}
	for {
		b, ok, err := n.right.NextBatch()
		if err != nil {
			n.right.Close()
			n.resetBuild(ec)
			return err
		}
		if !ok {
			break
		}
		// Amortized accounting: one reservation per build batch.
		if cerr := n.held.chargeN(ec, "nestedloop", int64(b.Len()), b.Bytes()); cerr != nil {
			if spillable(ec, cerr) {
				cerr = n.spillRight(ec, b)
			}
			if cerr != nil {
				n.right.Close()
				n.resetBuild(ec)
				return cerr
			}
			break
		}
		vals := getSlab(len(b.vals))
		copy(vals, b.vals)
		n.chunks = append(n.chunks, nlChunk{vals: vals, rows: b.Len()})
		n.rrows += b.Len()
	}
	if err := n.right.Close(); err != nil {
		n.resetBuild(ec)
		n.dropScan(ec)
		return err
	}
	return nil
}

// spillRight moves the inner input to one spill run — the slabs
// buffered so far, the batch whose charge tripped, then the rest of the
// right stream — and hands the left stream, including what the Open-time
// peek consumed, to a run scan.
func (n *BatchNestedLoopJoin) spillRight(ec *ExecContext, trip *Batch) error {
	prefix := make([][]relation.Value, 0, len(n.chunks)+1)
	for _, ch := range n.chunks {
		prefix = append(prefix, ch.vals)
	}
	run, err := spillInput(ec, "nestedloop", n.right, n.rwidth, append(prefix, trip.vals)...)
	if err != nil {
		return err
	}
	n.resetBuild(ec)
	n.spst.Runs++
	n.spst.Bytes += run.Bytes
	var queue []*Batch
	if n.pendRow != nil {
		one := NewBatch(n.left.Scheme(), 1)
		one.AppendRow(n.pendRow)
		queue = append(queue, one)
		n.pendRow = nil
	}
	if n.lc.b != nil {
		queue = append(queue, n.lc.b)
	}
	done := n.lc.done
	n.lc.reset(nil)
	n.scan = &runScan{run: run, rsch: n.right.Scheme(), jp: &n.jp, mode: n.mode, size: n.bsize,
		src: func() (*Batch, bool, error) {
			if len(queue) > 0 {
				b := queue[0]
				queue = queue[1:]
				return b, true, nil
			}
			if done {
				return nil, false, nil
			}
			return n.left.NextBatch()
		}}
	obs.GovernorDegradations.Inc()
	ec.Governor().Note("nestedloop: memory budget trip, spilling inner input to disk")
	return nil
}

// dropScan releases the spill run and its scan state, if any.
func (n *BatchNestedLoopJoin) dropScan(ec *ExecContext) {
	if n.scan != nil {
		n.scan.drop(ec)
		n.scan = nil
	}
}

// nlChunk is one materialized right batch: rows*width values in a slab.
type nlChunk struct {
	vals []relation.Value
	rows int
}

// NextBatch implements Iterator: the probe loop.
func (n *BatchNestedLoopJoin) NextBatch() (*Batch, bool, error) {
	if err := n.ec.Err("nestedloop"); err != nil {
		return nil, false, err
	}
	out := n.out
	out.Reset()
	switch {
	case n.stream:
		return n.streamBatch()
	case n.scan != nil:
		if _, err := n.scan.fill(out); err != nil {
			return nil, false, err
		}
	default:
		if err := n.probe(out); err != nil {
			return nil, false, err
		}
	}
	if out.Len() == 0 {
		return nil, false, nil
	}
	return out, true, nil
}

// probe fills out by scanning the slabs once per left row.
func (n *BatchNestedLoopJoin) probe(out *Batch) error {
	for {
		if n.pendRow != nil {
			n.drainPend(out)
			if out.Full() {
				return nil
			}
		}
		ok, err := n.lc.more()
		if err != nil || !ok {
			return err
		}
		for lb := n.lc.b; n.lc.pos < lb.Len() && !out.Full() && n.pendRow == nil; {
			n.pendRow, n.pendChunk, n.pendOff, n.pendMatched = lb.Row(n.lc.pos), 0, 0, false
			n.lc.pos++
			n.drainPend(out)
		}
		if out.Full() {
			return nil
		}
	}
}

// streamBatch is the single-driving-row probe: right batches stream
// through once, matches emit immediately, and nothing is materialized.
func (n *BatchNestedLoopJoin) streamBatch() (*Batch, bool, error) {
	if n.sdone {
		return nil, false, nil
	}
	out := n.out
	lrow := n.slrow
	if n.jp.leftNull(lrow) {
		// 3VL: a null key matches nothing; resolve the row without
		// touching the right input.
		return n.streamFinish(out)
	}
	n.jp.setLeft(lrow, n.rwidth)
	for {
		if n.srb == nil || n.srpos >= n.srb.Len() {
			b, ok, err := n.right.NextBatch()
			if err != nil {
				return nil, false, err
			}
			if !ok {
				return n.streamFinish(out)
			}
			n.srb, n.srpos = b, 0
		}
		for n.srpos < n.srb.Len() {
			rrow := n.srb.Row(n.srpos)
			n.srpos++
			if !n.jp.match(lrow, rrow) {
				continue
			}
			n.smatched = true
			switch n.mode {
			case InnerMode, LeftOuterMode:
				out.AppendConcat(lrow, rrow)
				if out.Full() {
					return out, true, nil
				}
			case SemiMode, AntiMode:
				// Existence resolved: the rest of the stream is moot.
				return n.streamFinish(out)
			}
		}
	}
}

// streamFinish emits the driving row's miss/existence result and closes
// the (possibly unexhausted) right input.
func (n *BatchNestedLoopJoin) streamFinish(out *Batch) (*Batch, bool, error) {
	n.sdone = true
	n.srb, n.srpos = nil, 0
	if n.rightOpen {
		n.rightOpen = false
		if err := n.right.Close(); err != nil {
			return nil, false, err
		}
	}
	switch n.mode {
	case LeftOuterMode:
		if !n.smatched {
			out.AppendPad(n.slrow)
		}
	case SemiMode:
		if n.smatched {
			out.AppendRow(n.slrow)
		}
	case AntiMode:
		if !n.smatched {
			out.AppendRow(n.slrow)
		}
	}
	if out.Len() == 0 {
		return nil, false, nil
	}
	return out, true, nil
}

// drainPend scans the chunks for the current left row, emitting until
// the input or the output batch is exhausted. The final miss/existence
// row is deferred to the next call if the batch fills first.
func (n *BatchNestedLoopJoin) drainPend(out *Batch) {
	lrow := n.pendRow
	if n.jp.leftNull(lrow) {
		// 3VL short-circuit: a null left key matches nothing, so the
		// whole scan resolves to a miss without touching the slab.
		n.pendChunk, n.pendOff = len(n.chunks), 0
	}
	n.jp.setLeft(lrow, n.rwidth)
scan:
	for n.pendChunk < len(n.chunks) && !out.Full() {
		ch := &n.chunks[n.pendChunk]
		for n.pendOff < ch.rows {
			s := n.pendOff * n.rwidth
			rrow := ch.vals[s : s+n.rwidth : s+n.rwidth]
			n.pendOff++
			if !n.jp.match(lrow, rrow) {
				continue
			}
			n.pendMatched = true
			switch n.mode {
			case InnerMode, LeftOuterMode:
				out.AppendConcat(lrow, rrow)
				if out.Full() {
					break scan
				}
			case SemiMode, AntiMode:
				n.pendChunk, n.pendOff = len(n.chunks), 0 // existence decided
				break scan
			}
		}
		if n.pendOff >= ch.rows {
			n.pendChunk++
			n.pendOff = 0
		}
	}
	if n.pendChunk >= len(n.chunks) {
		emit := (n.mode == LeftOuterMode || n.mode == AntiMode) && !n.pendMatched ||
			n.mode == SemiMode && n.pendMatched
		if emit {
			if out.Full() {
				return // emit on the next call; pendRow stays set
			}
			if n.mode == LeftOuterMode {
				out.AppendPad(lrow)
			} else {
				out.AppendRow(lrow)
			}
		}
		n.pendRow = nil
	}
}

// resetBuild drops the slab and returns its governor charge, keeping
// the allocation for reuse within this Open cycle.
func (n *BatchNestedLoopJoin) resetBuild(ec *ExecContext) {
	for i := range n.chunks {
		putSlab(n.chunks[i].vals)
		n.chunks[i].vals = nil
	}
	n.chunks = n.chunks[:0]
	n.rrows = 0
	n.held.release(ec)
}

// BufferedRows implements Buffered: the slab's row count.
func (n *BatchNestedLoopJoin) BufferedRows() int { return n.rrows }

// SpillInfo implements Spiller.
func (n *BatchNestedLoopJoin) SpillInfo() SpillStats { return n.spst }

// Close implements Iterator: the slab (and its charge) and any spill run
// are released.
func (n *BatchNestedLoopJoin) Close() error {
	n.out = releaseBatch(n.out)
	n.lc.reset(nil)
	n.pendRow, n.srb = nil, nil
	var rerr error
	if n.rightOpen {
		n.rightOpen = false
		rerr = n.right.Close()
	}
	n.resetBuild(n.ec)
	n.dropScan(n.ec)
	n.chunks = nil
	lerr := n.left.Close()
	if rerr != nil {
		return rerr
	}
	return lerr
}
