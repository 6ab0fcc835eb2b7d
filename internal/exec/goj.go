package exec

import (
	"fmt"

	"freejoin/internal/hashutil"
	"freejoin/internal/predicate"
	"freejoin/internal/relation"
)

// GOJ computes the generalized outerjoin GOJ[S][p](left, right) of §6.2
// with the "slightly modified join algorithm" the paper promises. The
// join rows come from an inner join — BatchHashJoin for an equi
// predicate, BatchNestedLoopJoin otherwise — whose left input passes
// through a tap that records the distinct S-projection of every left
// row. Each join row marks its S-projection as matched (S lies in the
// left columns, which lead the output row). At end of stream the
// projections that never matched are emitted padded with nulls.
//
// The inner join's memory-trip paths (grace hash partitions, the
// nested-loop run scan) serve the GOJ unchanged. The projection set is
// charged to the governor and has no spill path of its own.
type GOJ struct {
	join  Iterator
	tap   *sTap
	size  int
	ec    *ExecContext
	ended bool             // the join reported end of stream
	tail  int              // next projection of the unmatched tail
	prow  []relation.Value // scratch left row: nulls except at S
	out   *Batch           // the unmatched tail's output batch
}

// NewGOJ builds GOJ[s][p](left, right); s must be attributes of the
// left scheme. size <= 0 means DefaultBatchSize.
func NewGOJ(left, right Iterator, p predicate.Predicate, s []relation.Attr, size int) (*GOJ, error) {
	tap := &sTap{src: left}
	for _, a := range s {
		pos := left.Scheme().IndexOf(a)
		if pos < 0 {
			return nil, fmt.Errorf("exec: GOJ projection attribute %s not in left scheme", a)
		}
		tap.spos = append(tap.spos, pos)
	}
	g := &GOJ{tap: tap, size: size, prow: make([]relation.Value, left.Scheme().Len())}
	if lk, rk, ok := predicate.EquiParts(p, left.Scheme(), right.Scheme()); ok {
		hj, err := NewBatchHashJoin(tap, right, lk, rk, nil, InnerMode, size)
		if err != nil {
			return nil, err
		}
		g.join = hj
	} else {
		nl, err := NewBatchNestedLoopJoin(tap, right, p, InnerMode, size)
		if err != nil {
			return nil, err
		}
		g.join = nl
	}
	return g, nil
}

// Scheme implements Iterator.
func (g *GOJ) Scheme() *relation.Scheme { return g.join.Scheme() }

// Open implements Iterator.
func (g *GOJ) Open(ec *ExecContext) error {
	g.tap.reset(g.ec) // re-Open without Close: drop stale projections + charge
	g.ec = ec
	g.ended, g.tail = false, 0
	if err := ec.Err("goj"); err != nil {
		return err
	}
	if err := g.join.Open(ec); err != nil {
		g.tap.reset(ec)
		return err
	}
	return nil
}

// NextBatch implements Iterator: the join's batches, each marking its
// S-projections matched, then the unmatched projections padded.
func (g *GOJ) NextBatch() (*Batch, bool, error) {
	if err := g.ec.Err("goj"); err != nil {
		return nil, false, err
	}
	t := g.tap
	if !g.ended {
		b, ok, err := g.join.NextBatch()
		if err != nil {
			return nil, false, err
		}
		if ok {
			for i := 0; i < b.Len(); i++ {
				if j := t.set.find(t.keyOf(b.Row(i))); j >= 0 {
					t.matched[j] = true
				}
			}
			return b, true, nil
		}
		g.ended = true
		if err := t.drain(); err != nil {
			return nil, false, err
		}
	}
	g.out = ensureBatch(g.out, g.Scheme(), batchSize(g.size))
	w := len(t.spos)
	for ; g.tail < t.set.len() && !g.out.Full(); g.tail++ {
		if t.matched[g.tail] {
			continue
		}
		for i, p := range t.spos {
			g.prow[p] = t.projs[g.tail*w+i]
		}
		g.out.AppendPad(g.prow)
	}
	if g.out.Len() == 0 {
		return nil, false, nil
	}
	return g.out, true, nil
}

// BufferedRows implements Buffered: the join's buffers plus the
// projection set.
func (g *GOJ) BufferedRows() int {
	n := g.tap.set.len()
	if b, ok := g.join.(Buffered); ok {
		n += b.BufferedRows()
	}
	return n
}

// SpillInfo implements Spiller for the inner join.
func (g *GOJ) SpillInfo() SpillStats { return g.join.(Spiller).SpillInfo() }

// Close implements Iterator: the join (and through it both children),
// the projection set and its governor charge are released.
func (g *GOJ) Close() error {
	g.out = releaseBatch(g.out)
	err := g.join.Close()
	g.tap.reset(g.ec)
	g.tap.set = keySet{}
	g.tap.projs, g.tap.matched = nil, nil
	return err
}

// sTap is the GOJ's left input as the inner join sees it: batches pass
// through unchanged, and each left row's S-projection is added to the
// projection set when it is new, charged once per batch. Closing the
// tap closes the child but keeps the set: a join may close its left
// input before its last batch (the grace hash join does), and the GOJ
// still needs the set for the unmatched tail.
type sTap struct {
	src  Iterator
	spos []int // S columns within the left scheme

	ec      *ExecContext
	held    hold
	set     keySet           // distinct S-projections, numbered by first sight
	projs   []relation.Value // projection j is projs[j*len(spos):][:len(spos)]
	matched []bool           // projection j appeared in a join row
	kbuf    []byte
	done    bool // src reported end of stream
}

// Scheme implements Iterator.
func (t *sTap) Scheme() *relation.Scheme { return t.src.Scheme() }

// Open implements Iterator.
func (t *sTap) Open(ec *ExecContext) error {
	t.ec, t.done = ec, false
	return t.src.Open(ec)
}

// NextBatch implements Iterator.
func (t *sTap) NextBatch() (*Batch, bool, error) {
	b, ok, err := t.src.NextBatch()
	if err != nil || !ok {
		t.done = err == nil
		return nil, false, err
	}
	var rows, bytes int64
	w := len(t.spos)
	for i := 0; i < b.Len(); i++ {
		row := b.Row(i)
		kb, hash := t.keyOf(row)
		if t.set.find(kb, hash) >= 0 {
			continue
		}
		t.set.add(kb, hash)
		for _, p := range t.spos {
			t.projs = append(t.projs, row[p])
		}
		t.matched = append(t.matched, false)
		rows++
		bytes += rowBytes(t.projs[len(t.projs)-w:])
	}
	if err := t.held.chargeN(t.ec, "goj", rows, bytes); err != nil {
		return nil, false, err
	}
	return b, true, nil
}

// Close implements Iterator.
func (t *sTap) Close() error { return t.src.Close() }

// keyOf encodes row's S-projection and hashes it. Nulls encode like any
// other value: the projection set eliminates duplicates, it does not
// join on them.
func (t *sTap) keyOf(row []relation.Value) ([]byte, uint32) {
	kb := t.kbuf[:0]
	for _, p := range t.spos {
		kb = relation.AppendKey(kb, row[p])
	}
	t.kbuf = kb
	return kb, hashutil.Sum32(kb)
}

// drain reads the rest of the left input, so that every left row's
// projection is in the set even when the join stopped pulling early.
func (t *sTap) drain() error {
	for !t.done {
		if _, _, err := t.NextBatch(); err != nil {
			return err
		}
	}
	return nil
}

// reset empties the projection set and returns its governor charge.
func (t *sTap) reset(ec *ExecContext) {
	t.set.reset()
	t.projs, t.matched = t.projs[:0], t.matched[:0]
	t.held.release(ec)
}
