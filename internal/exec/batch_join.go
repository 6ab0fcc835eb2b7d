package exec

import (
	"errors"
	"fmt"

	"freejoin/internal/hashutil"
	"freejoin/internal/obs"
	"freejoin/internal/predicate"
	"freejoin/internal/relation"
)

// JoinMode selects the join-family semantics of a physical join.
type JoinMode uint8

// Join modes. LeftOuterMode preserves the left (outer/probe) input.
const (
	InnerMode JoinMode = iota
	LeftOuterMode
	SemiMode
	AntiMode
)

// String returns the mode name.
func (m JoinMode) String() string {
	switch m {
	case InnerMode:
		return "inner"
	case LeftOuterMode:
		return "leftouter"
	case SemiMode:
		return "semi"
	case AntiMode:
		return "anti"
	default:
		return fmt.Sprintf("JoinMode(%d)", uint8(m))
	}
}

// outputScheme computes a join's output scheme for a mode: semi/anti
// output only left rows.
func outputScheme(l, r *relation.Scheme, mode JoinMode) (*relation.Scheme, error) {
	if mode == SemiMode || mode == AntiMode {
		return l, nil
	}
	sch, err := l.Concat(r)
	if err != nil {
		return nil, fmt.Errorf("exec: join schemes overlap: %w", err)
	}
	return sch, nil
}

// BatchHashJoin is the vectorized hash join: the right input is drained
// a batch at a time into a flat value arena indexed by an open-addressed
// hash table (no per-row map or key-string allocations), and the left
// input probes batch by batch, emitting concatenated / padded rows into
// a reused output batch. Governor accounting is amortized: one Reserve
// per build batch instead of one per row.
//
// A memory-budget trip during the build degrades instead of aborting.
// When the context enables spilling, the join becomes a grace hash join
// on the same arena (see openGrace): the rows already buffered and the
// rest of the right input are hash-partitioned to disk, then the left
// input, and each partition pair is joined in memory, re-partitioning
// pairs that still exceed the budget. Otherwise, when the optimizer
// registered an index alternative (SetFallback), that join serves the
// query; failing both, the typed resource error surfaces.
type BatchHashJoin struct {
	left, right Iterator
	scheme      *relation.Scheme
	lkeys       []int
	rkeys       []int
	residual    *predicate.Bound
	mode        JoinMode
	mkFallback  func(left Iterator) (Iterator, error)
	size        int
	rwidth      int

	ec   *ExecContext
	held hold

	// Build arena: brows rows of rwidth values, each with its join-key
	// bytes in one arena and a precomputed hash for fast chain rejection.
	bvals    []relation.Value
	brows    int
	keyBytes []byte
	koff     []int32 // per build row: start offset into keyBytes
	hashes   []uint32
	heads    []int32 // open-addressed: bucket -> first row index (-1 empty)
	chain    []int32 // row -> next row in the same bucket (-1 end)
	mask     uint32

	// Probe state.
	bsize int
	bleft BatchIterator
	lc    leftCursor
	kbuf  []byte
	crow  []relation.Value // scratch concat row for the residual

	// A left row whose match chain outgrew the output batch: emission
	// resumes here on the next NextBatch. The row stays valid because the
	// left child is not advanced until its batch is fully processed.
	pendRow     []relation.Value
	pendHash    uint32
	pendIdx     int32
	pendMatched bool

	out *Batch
	cur batchCursor

	grace    *graceJoin // non-nil after a grace-hash spill
	spst     SpillStats
	fallback BatchIterator // the index join after a spill-less build trip
}

// NewBatchHashJoin builds a hash join on leftKeys = rightKeys (attribute
// lists of equal length); residual may be nil. size <= 0 means
// DefaultBatchSize.
func NewBatchHashJoin(left, right Iterator, leftKeys, rightKeys []relation.Attr, residual predicate.Predicate, mode JoinMode, size int) (*BatchHashJoin, error) {
	if len(leftKeys) != len(rightKeys) || len(leftKeys) == 0 {
		return nil, fmt.Errorf("exec: hash join needs matching non-empty key lists")
	}
	sch, err := outputScheme(left.Scheme(), right.Scheme(), mode)
	if err != nil {
		return nil, err
	}
	h := &BatchHashJoin{
		left: left, right: right,
		scheme: sch, mode: mode, size: size,
		rwidth:  right.Scheme().Len(),
		pendIdx: -1,
	}
	for _, a := range leftKeys {
		p := left.Scheme().IndexOf(a)
		if p < 0 {
			return nil, fmt.Errorf("exec: hash join key %s not in left scheme", a)
		}
		h.lkeys = append(h.lkeys, p)
	}
	for _, a := range rightKeys {
		p := right.Scheme().IndexOf(a)
		if p < 0 {
			return nil, fmt.Errorf("exec: hash join key %s not in right scheme", a)
		}
		h.rkeys = append(h.rkeys, p)
	}
	if residual != nil {
		full, err := left.Scheme().Concat(right.Scheme())
		if err != nil {
			return nil, err
		}
		b, err := predicate.Bind(residual, full)
		if err != nil {
			return nil, fmt.Errorf("exec: hash join residual: %w", err)
		}
		h.residual = &b
	}
	return h, nil
}

// SetFallback registers a degradation path for spill-less contexts:
// when the build trips the memory budget, mk is invoked with the (not
// yet opened) left input and the resulting iterator — an index join over
// the same key — serves the join instead. It must produce the same bag
// over the same output scheme.
func (h *BatchHashJoin) SetFallback(mk func(left Iterator) (Iterator, error)) { h.mkFallback = mk }

// Scheme implements Iterator.
func (h *BatchHashJoin) Scheme() *relation.Scheme { return h.scheme }

// Open implements Iterator: builds the arena from the right input a
// batch at a time.
func (h *BatchHashJoin) Open(ec *ExecContext) error {
	h.resetBuild(h.ec) // re-Open without Close: drop stale arena + charge
	h.dropGrace(h.ec)  // ... and any stale spill state
	if h.fallback != nil {
		// A prior execution fell back: the index join owns the left child.
		// Close it (idempotent if the plan was closed normally) before
		// rebuilding over the same children.
		h.fallback.Close()
		h.fallback = nil
	}
	h.ec = ec
	h.spst = SpillStats{}
	h.cur.reset()
	h.lc.reset(nil)
	h.pendRow, h.pendIdx, h.pendMatched = nil, -1, false
	if err := ec.Err("hashjoin"); err != nil {
		return err
	}
	h.bsize = batchSize(h.size)
	h.out = ensureBatch(h.out, h.scheme, h.bsize)
	h.bleft = Batching(h.left, h.bsize)
	bright := Batching(h.right, h.bsize)
	if err := h.right.Open(ec); err != nil {
		h.right.Close()
		return h.fallBack(ec, err)
	}
	for {
		b, ok, err := bright.NextBatch()
		if err != nil {
			h.right.Close()
			h.resetBuild(ec)
			return h.fallBack(ec, err)
		}
		if !ok {
			break
		}
		// Amortized accounting: one reservation per build batch.
		if cerr := h.held.chargeN(ec, "hashjoin", int64(b.Len()), b.Bytes()); cerr != nil {
			if spillable(ec, cerr) {
				return h.openGrace(ec, bright, b)
			}
			h.right.Close()
			h.resetBuild(ec)
			return h.fallBack(ec, cerr)
		}
		h.appendBuild(b)
	}
	if err := h.right.Close(); err != nil {
		h.resetBuild(ec)
		return err
	}
	h.buildIndex()
	if err := h.left.Open(ec); err != nil {
		h.resetBuild(ec)
		return err
	}
	h.lc.reset(h.bleft.NextBatch)
	return nil
}

// fallBack is the spill-less degradation path: on a memory trip with a
// registered index alternative, that join serves the query; any other
// error surfaces as-is.
func (h *BatchHashJoin) fallBack(ec *ExecContext, err error) error {
	var re *ResourceError
	if h.mkFallback == nil || !errors.As(err, &re) || re.Kind != MemoryExceeded {
		return err
	}
	fb, ferr := h.mkFallback(h.left)
	if ferr != nil {
		return err // keep the original trip
	}
	if oerr := fb.Open(ec); oerr != nil {
		return oerr
	}
	ec.Governor().Note("hashjoin: memory budget trip, degraded to index strategy")
	obs.GovernorDegradations.Inc()
	h.fallback = Batching(fb, h.bsize)
	return nil
}

// appendBuild copies a right batch's non-null-key rows into the arena.
func (h *BatchHashJoin) appendBuild(b *Batch) {
	n := b.Len()
	for i := 0; i < n; i++ {
		null := false
		for _, k := range h.rkeys {
			if b.IsNull(i, k) {
				null = true
				break
			}
		}
		if null {
			continue // null keys never match; only the left side drives emission
		}
		h.bvals = append(h.bvals, b.Row(i)...)
		h.keyLast()
	}
}

// keyLast indexes the arena's newest row (appended to bvals by the
// caller): its join-key bytes and their hash.
func (h *BatchHashJoin) keyLast() {
	row := h.buildRow(int32(h.brows))
	start := len(h.keyBytes)
	kb := h.keyBytes
	for _, k := range h.rkeys {
		kb = relation.AppendJoinKey(kb, row[k])
	}
	h.keyBytes = kb
	h.koff = append(h.koff, int32(start))
	h.hashes = append(h.hashes, hashutil.Sum32(kb[start:]))
	h.brows++
}

// buildIndex lays the open-addressed chains over the arena.
func (h *BatchHashJoin) buildIndex() {
	n := 16
	for n < 2*h.brows {
		n <<= 1
	}
	h.mask = uint32(n - 1)
	if cap(h.heads) >= n {
		h.heads = h.heads[:n]
	} else {
		h.heads = make([]int32, n)
	}
	for i := range h.heads {
		h.heads[i] = -1
	}
	if cap(h.chain) >= h.brows {
		h.chain = h.chain[:h.brows]
	} else {
		h.chain = make([]int32, h.brows)
	}
	for i := 0; i < h.brows; i++ {
		b := h.hashes[i] & h.mask
		h.chain[i] = h.heads[b]
		h.heads[b] = int32(i)
	}
}

// buildRow returns build row j as a view into the arena.
func (h *BatchHashJoin) buildRow(j int32) []relation.Value {
	s := int(j) * h.rwidth
	e := s + h.rwidth
	return h.bvals[s:e:e]
}

// buildKey returns build row j's join-key bytes.
func (h *BatchHashJoin) buildKey(j int32) []byte {
	end := int32(len(h.keyBytes))
	if int(j)+1 < len(h.koff) {
		end = h.koff[j+1]
	}
	return h.keyBytes[h.koff[j]:end]
}

// keyEq reports whether build row j's key equals the current probe key
// in kbuf.
func (h *BatchHashJoin) keyEq(j int32) bool {
	return string(h.buildKey(j)) == string(h.kbuf)
}

// matches applies the residual (if any) to lrow ++ build row j.
func (h *BatchHashJoin) matches(lrow []relation.Value, j int32) bool {
	if h.residual == nil {
		return true
	}
	crow := h.crow[:0]
	crow = append(crow, lrow...)
	crow = append(crow, h.buildRow(j)...)
	h.crow = crow
	return h.residual.Holds(crow)
}

// chainHasMatch walks bucket chain idx for a key/residual match.
func (h *BatchHashJoin) chainHasMatch(lrow []relation.Value, hash uint32, idx int32) bool {
	for j := idx; j >= 0; j = h.chain[j] {
		if h.hashes[j] != hash || !h.keyEq(j) {
			continue
		}
		if h.matches(lrow, j) {
			return true
		}
	}
	return false
}

// NextBatch implements BatchIterator: the probe loop, or the grace
// partition walk after a spill.
func (h *BatchHashJoin) NextBatch() (*Batch, bool, error) {
	if h.fallback != nil {
		return h.fallback.NextBatch()
	}
	if err := h.ec.Err("hashjoin"); err != nil {
		return nil, false, err
	}
	out := h.out
	out.Reset()
	var err error
	if h.grace != nil {
		err = h.graceBatch(out)
	} else {
		_, err = h.probe(out)
	}
	if err != nil {
		return nil, false, err
	}
	if out.Len() == 0 {
		return nil, false, nil
	}
	return out, true, nil
}

// probe fills out by probing the arena with the left cursor's rows. It
// returns early only when out is full, and reports whether the probe
// input is exhausted.
func (h *BatchHashJoin) probe(out *Batch) (bool, error) {
	for {
		// Resume a suspended match chain before advancing the probe.
		if h.pendRow != nil {
			h.drainChain(out)
			if out.Full() {
				return false, nil
			}
		}
		ok, err := h.lc.more()
		if err != nil {
			return false, err
		}
		if !ok {
			return true, nil
		}
		lb := h.lc.b
		for h.lc.pos < lb.Len() && !out.Full() && h.pendRow == nil {
			h.probeRow(out, lb, h.lc.pos)
			h.lc.pos++
		}
		if out.Full() {
			return false, nil
		}
	}
}

// probeRow probes left row i of lb, emitting into out. Inner/outer rows
// with matches hand off to the pending chain walk.
func (h *BatchHashJoin) probeRow(out *Batch, lb *Batch, i int) {
	// Null bitmap short-circuit: a null key column feeds straight into
	// the 3VL outcome (no match) without evaluating the key equality.
	null := false
	for _, k := range h.lkeys {
		if lb.IsNull(i, k) {
			null = true
			break
		}
	}
	lrow := lb.Row(i)
	if null {
		switch h.mode {
		case LeftOuterMode:
			out.AppendPad(lrow)
		case AntiMode:
			out.AppendRow(lrow)
		}
		return
	}
	kb := h.kbuf[:0]
	for _, k := range h.lkeys {
		kb = relation.AppendJoinKey(kb, lrow[k])
	}
	h.kbuf = kb
	hash := hashutil.Sum32(kb)
	idx := h.heads[hash&h.mask]
	switch h.mode {
	case InnerMode, LeftOuterMode:
		if idx < 0 {
			// Empty bucket: resolve the miss inline.
			if h.mode == LeftOuterMode {
				out.AppendPad(lrow)
			}
			return
		}
		h.pendRow, h.pendHash, h.pendIdx, h.pendMatched = lrow, hash, idx, false
	case SemiMode:
		if h.chainHasMatch(lrow, hash, idx) {
			out.AppendRow(lrow)
		}
	case AntiMode:
		if !h.chainHasMatch(lrow, hash, idx) {
			out.AppendRow(lrow)
		}
	}
}

// drainChain emits the pending row's matches until the chain or the
// output batch is exhausted. kbuf holds the pending row's key and is
// not touched until the chain completes.
func (h *BatchHashJoin) drainChain(out *Batch) {
	for h.pendIdx >= 0 && !out.Full() {
		j := h.pendIdx
		h.pendIdx = h.chain[j]
		if h.hashes[j] != h.pendHash || !h.keyEq(j) {
			continue
		}
		if !h.matches(h.pendRow, j) {
			continue
		}
		h.pendMatched = true
		out.AppendConcat(h.pendRow, h.buildRow(j))
	}
	if h.pendIdx < 0 {
		if h.mode == LeftOuterMode && !h.pendMatched {
			if out.Full() {
				return // pad on the next call; pendRow stays set
			}
			out.AppendPad(h.pendRow)
		}
		h.pendRow = nil
	}
}

// Next implements Iterator through the batch cursor.
func (h *BatchHashJoin) Next() ([]relation.Value, bool, error) {
	return h.cur.next(h.NextBatch)
}

// resetBuild drops the arena and returns its governor charge, keeping
// the allocations for reuse within this Open cycle.
func (h *BatchHashJoin) resetBuild(ec *ExecContext) {
	h.bvals = h.bvals[:0]
	h.keyBytes = h.keyBytes[:0]
	h.koff = h.koff[:0]
	h.hashes = h.hashes[:0]
	h.brows = 0
	h.held.release(ec)
}

// BufferedRows implements Buffered: the arena's row count.
func (h *BatchHashJoin) BufferedRows() int { return h.brows }

// SpillInfo implements Spiller.
func (h *BatchHashJoin) SpillInfo() SpillStats { return h.spst }

// Close implements Iterator: the arena (and its charge) and every live
// spill run are released. After a fallback the index join owns the left
// child and closes it.
func (h *BatchHashJoin) Close() error {
	h.cur.reset()
	h.out = releaseBatch(h.out)
	h.lc.reset(nil)
	h.pendRow, h.pendIdx = nil, -1
	h.resetBuild(h.ec)
	h.dropGrace(h.ec)
	h.bvals, h.keyBytes, h.koff, h.hashes = nil, nil, nil, nil
	h.heads, h.chain = nil, nil
	if h.fallback != nil {
		return h.fallback.Close()
	}
	return h.left.Close()
}
