package exec

import (
	"freejoin/internal/exec/spill"
	"freejoin/internal/predicate"
	"freejoin/internal/relation"
)

// leftCursor walks a join's probe input a batch at a time. It holds the
// current batch only while rows remain: at end of stream the batch is
// dropped, because the producer may already have refilled that batch
// object (a filter compacting in place pulls and discards whole
// batches before it reports the end) and its rows must not be probed
// again.
type leftCursor struct {
	src  func() (*Batch, bool, error)
	b    *Batch
	pos  int
	done bool
}

// reset points the cursor at a new batch source (nil: an empty stream).
func (c *leftCursor) reset(src func() (*Batch, bool, error)) {
	c.src, c.b, c.pos, c.done = src, nil, 0, false
}

// more reports whether c.b holds a row at c.pos, pulling the next batch
// once the held one is used up.
func (c *leftCursor) more() (bool, error) {
	for c.b == nil || c.pos >= c.b.Len() {
		c.b = nil
		if c.done || c.src == nil {
			return false, nil
		}
		b, ok, err := c.src()
		if err != nil {
			return false, err
		}
		if !ok {
			c.done = true
			return false, nil
		}
		c.b, c.pos = b, 0
	}
	return true, nil
}

// joinPred decides whether a left and a right row join: equal non-null
// key columns eqL/eqR (Value.Compare, which agrees with the hash joins'
// AppendJoinKey) and, when bound is set, a predicate over the
// concatenated row. A pure equi predicate needs no concatenation.
type joinPred struct {
	eqL, eqR []int
	bound    *predicate.Bound
	crow     []relation.Value // scratch concat row for bound
}

// newJoinPred compiles p over l ++ r (which must not overlap), taking
// the key-compare fast path when p is a pure equi predicate.
func newJoinPred(p predicate.Predicate, l, r *relation.Scheme) (joinPred, error) {
	full, err := l.Concat(r)
	if err != nil {
		return joinPred{}, err
	}
	if la, ra, ok := predicate.EquiParts(p, l, r); ok {
		jp := joinPred{}
		for i := range la {
			jp.eqL = append(jp.eqL, l.IndexOf(la[i]))
			jp.eqR = append(jp.eqR, r.IndexOf(ra[i]))
		}
		return jp, nil
	}
	b, err := predicate.Bind(p, full)
	if err != nil {
		return joinPred{}, err
	}
	return joinPred{bound: &b}, nil
}

// leftNull reports a null left key column: under 3VL the row matches
// nothing, so a scan can resolve it without touching the right side.
func (p *joinPred) leftNull(l []relation.Value) bool {
	for _, k := range p.eqL {
		if l[k].IsNull() {
			return true
		}
	}
	return false
}

// setLeft fixes the left row for a run of match calls: the left prefix
// of the scratch concat row is written once, not per candidate.
func (p *joinPred) setLeft(l []relation.Value, rwidth int) {
	if p.bound == nil {
		return
	}
	w := len(l) + rwidth
	if cap(p.crow) < w {
		p.crow = make([]relation.Value, w)
	}
	p.crow = p.crow[:w]
	copy(p.crow, l)
}

// match reports whether l (fixed by setLeft, with no null key) joins r.
func (p *joinPred) match(l, r []relation.Value) bool {
	for k, lk := range p.eqL {
		rv := r[p.eqR[k]]
		if rv.IsNull() || l[lk].Compare(rv) != 0 {
			return false
		}
	}
	if p.bound == nil {
		return true
	}
	copy(p.crow[len(l):], r)
	return p.bound.Holds(p.crow)
}

// runReader serves a spill run a batch at a time, decoding rows straight
// into one reused batch (no per-row allocation).
type runReader struct {
	rd *spill.Reader
	b  *Batch
}

// open starts a sequential read of run, closing any previous reader.
func (r *runReader) open(run *spill.Run, scheme *relation.Scheme, size int) error {
	r.close()
	rd, err := run.Open()
	if err != nil {
		return err
	}
	r.rd = rd
	if r.b == nil || r.b.Scheme() != scheme {
		r.b = NewBatch(scheme, size)
	}
	return nil
}

// next decodes up to a batch of rows; false at end of run.
func (r *runReader) next() (*Batch, bool, error) {
	if r.rd == nil {
		return nil, false, nil
	}
	b := r.b
	b.Reset()
	for !b.Full() {
		vals, ok, err := r.rd.Next(b.vals)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			break
		}
		b.vals = vals
		b.n++
		b.noteRowNulls(b.n - 1)
	}
	if b.Len() == 0 {
		r.close()
		return nil, false, nil
	}
	return b, true, nil
}

// close releases the file handle, keeping the batch for reuse.
func (r *runReader) close() {
	if r.rd != nil {
		r.rd.Close()
		r.rd = nil
	}
}

// release closes the reader and recycles its batch.
func (r *runReader) release() {
	r.close()
	r.b = releaseBatch(r.b)
}

// writeRows appends vals, rows of width w laid end to end, to a run.
func writeRows(wr *spill.Writer, vals []relation.Value, w int) error {
	for s := 0; w > 0 && s+w <= len(vals); s += w {
		if err := wr.Append(vals[s : s+w : s+w]); err != nil {
			return err
		}
	}
	return nil
}

// spillInput moves the rest of a build input to one run after a memory
// trip: first the prefix slabs (rows already drained from src, width
// values each), then every remaining batch of src.
func spillInput(ec *ExecContext, op string, src Iterator, width int, prefix ...[]relation.Value) (*spill.Run, error) {
	w, err := spill.NewWriter(ec, op)
	if err != nil {
		return nil, err
	}
	for _, vals := range prefix {
		if err := writeRows(w, vals, width); err != nil {
			w.Abort()
			return nil, err
		}
	}
	for {
		b, ok, err := src.NextBatch()
		if err != nil {
			w.Abort()
			return nil, err
		}
		if !ok {
			break
		}
		if err := writeRows(w, b.vals, width); err != nil {
			w.Abort()
			return nil, err
		}
	}
	return w.Finish()
}

// runScan is the block nested-loop join of a left batch stream against
// a right input held in a spill run: each left batch scans the run once,
// so memory stays at two batches however large the right side is. It is
// the spill path of the nested-loop join and the semireduce, and the
// terminal mode of a grace hash join partition that stays over budget
// at the recursion bound.
type runScan struct {
	run     *spill.Run
	rsch    *relation.Scheme
	jp      *joinPred
	mode    JoinMode
	size    int
	src     func() (*Batch, bool, error)
	prePass func(b *Batch, matched []bool) int // optional: rows matched without the run

	ended    bool // src reported the end of the left stream
	lb       *Batch
	matched  []bool
	nmatched int
	right    runReader
	rb       *Batch
	scanning bool
	li, ri   int // resume point: left row li against right row ri of rb
	tail     int // next left row of the final per-row emission pass
}

// fill appends join output to out until out is full or the left stream
// ends; it reports whether the left stream is exhausted.
func (s *runScan) fill(out *Batch) (bool, error) {
	for !out.Full() {
		if s.lb == nil {
			if s.ended {
				return true, nil
			}
			b, ok, err := s.src()
			if err != nil {
				return false, err
			}
			if !ok {
				s.ended = true
				return true, nil
			}
			s.begin(b)
		}
		if s.scanning {
			if err := s.scan(out); err != nil {
				return false, err
			}
			if s.scanning {
				return false, nil // out filled mid-scan
			}
		}
		s.emitTail(out)
	}
	return false, nil
}

// begin starts a left batch: nothing matched yet, except what the
// optional pre-pass resolves without reading the run.
func (s *runScan) begin(b *Batch) {
	s.lb = b
	if cap(s.matched) < b.Len() {
		s.matched = make([]bool, b.Len())
	}
	s.matched = s.matched[:b.Len()]
	for i := range s.matched {
		s.matched[i] = false
	}
	s.nmatched = 0
	if s.prePass != nil {
		s.nmatched = s.prePass(b, s.matched)
	}
	s.scanning, s.rb, s.li, s.ri, s.tail = true, nil, 0, 0, 0
}

// scan streams the run past the current left batch, emitting matches
// (inner/outer) or recording existence (semi/anti). It returns with
// s.scanning still set when out fills first.
func (s *runScan) scan(out *Batch) error {
	exist := s.mode == SemiMode || s.mode == AntiMode
	rwidth := s.rsch.Len()
	for !(exist && s.nmatched == s.lb.Len()) {
		if s.rb == nil {
			if s.right.rd == nil {
				if err := s.right.open(s.run, s.rsch, s.size); err != nil {
					return err
				}
			}
			b, ok, err := s.right.next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			s.rb, s.li, s.ri = b, 0, 0
		}
		for ; s.li < s.lb.Len(); s.li, s.ri = s.li+1, 0 {
			if exist && s.matched[s.li] {
				continue
			}
			lrow := s.lb.Row(s.li)
			if s.jp.leftNull(lrow) {
				continue
			}
			s.jp.setLeft(lrow, rwidth)
			for s.ri < s.rb.Len() {
				rrow := s.rb.Row(s.ri)
				s.ri++
				if !s.jp.match(lrow, rrow) {
					continue
				}
				if !s.matched[s.li] {
					s.matched[s.li] = true
					s.nmatched++
				}
				if exist {
					break
				}
				out.AppendConcat(lrow, rrow)
				if out.Full() {
					return nil
				}
			}
		}
		s.rb = nil
	}
	s.right.close()
	s.scanning = false
	return nil
}

// emitTail is the per-left-row pass after the scan: null padding for
// unmatched outer rows, and the semi/anti existence outcome.
func (s *runScan) emitTail(out *Batch) {
	for s.tail < s.lb.Len() && !out.Full() {
		i := s.tail
		s.tail++
		switch {
		case s.mode == LeftOuterMode && !s.matched[i]:
			out.AppendPad(s.lb.Row(i))
		case s.mode == SemiMode && s.matched[i], s.mode == AntiMode && !s.matched[i]:
			out.AppendRow(s.lb.Row(i))
		}
	}
	if s.tail >= s.lb.Len() {
		s.lb = nil
	}
}

// close releases the run reader and its batch.
func (s *runScan) close() {
	s.right.release()
	s.lb, s.rb = nil, nil
}

// drop closes the scan and deletes its run, for an operator whose spill
// run the scan owns.
func (s *runScan) drop(ec *ExecContext) {
	s.close()
	s.run.Drop(ec)
}
