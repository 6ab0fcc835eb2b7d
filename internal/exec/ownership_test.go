package exec

import (
	"strings"
	"testing"

	"freejoin/internal/relation"
)

// The batch-ownership contract, exercised to its legal extremes across
// the whole operator registry:
//
//   - A producer's batch is valid only until the caller's next
//     NextBatch/Close on that producer. poisonIterator scribbles over
//     every batch it handed out the moment the caller advances, so a
//     parent that retained rows by reference instead of copying surfaces
//     the sentinel in its output bag. The scribbled batch is also
//     refilled to full length — even by the call that reports end of
//     stream — the way a filter compacting in place leaves the batch
//     object, so a consumer that keeps probing a batch it no longer owns
//     reads sentinel rows past its old cursor.
//   - A caller MAY mutate a batch it was handed (filters compact in
//     place). drainScribbled overwrites every received row after
//     copying it, so a producer that re-reads rows it already emitted
//     computes garbage and fails the bag comparison.

const poisonMark = "__POISON__"

// poisonBatchSize is the poisoned producer's batch size: the 5-row
// contract input then ends on a short batch, which the refill lengthens.
const poisonBatchSize = 2

// poisonIterator wraps a child and scribbles over the batch it handed
// out as soon as the caller advances or closes. The child's rows are
// copied first (scribbling the child's batch directly would test the
// child, not the parent).
type poisonIterator struct {
	child  Iterator
	out    *Batch // the batch handed out, owned by the poisoner
	handed bool
}

func (p *poisonIterator) Scheme() *relation.Scheme { return p.child.Scheme() }

func (p *poisonIterator) Open(ec *ExecContext) error {
	p.handed = false
	return p.child.Open(ec)
}

func (p *poisonIterator) scribble() {
	if !p.handed {
		return
	}
	row := make([]relation.Value, p.out.Width())
	for i := range row {
		row[i] = relation.Str(poisonMark)
	}
	p.out.Reset()
	for !p.out.Full() {
		p.out.AppendRow(row)
	}
	p.handed = false
}

func (p *poisonIterator) NextBatch() (*Batch, bool, error) {
	p.scribble()
	b, ok, err := p.child.NextBatch()
	if err != nil || !ok {
		return nil, ok, err
	}
	if p.out == nil {
		p.out = NewBatch(p.Scheme(), poisonBatchSize)
	}
	p.out.Reset()
	for i := 0; i < b.Len(); i++ {
		p.out.AppendRow(b.Row(i))
	}
	p.handed = true
	return p.out, true, nil
}

func (p *poisonIterator) Close() error {
	p.scribble()
	return p.child.Close()
}

// drainScribbled drains it, copying each batch for the result bag and
// then overwriting the producer's rows in place — the mutation a
// compacting caller is allowed to make.
func drainScribbled(t *testing.T, it Iterator) *relation.Relation {
	t.Helper()
	if err := it.Open(nil); err != nil {
		t.Fatal(err)
	}
	out := relation.New(it.Scheme())
	for {
		b, ok, err := it.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		b.appendToRelation(out)
		for i := 0; i < b.Len(); i++ {
			row := b.Row(i)
			for j := range row {
				row[j] = relation.Str(poisonMark)
			}
		}
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

// assertUnpoisoned fails if any value in the bag carries the sentinel —
// direct evidence an operator aliased a child row it did not own.
func assertUnpoisoned(t *testing.T, bag *relation.Relation) {
	t.Helper()
	for i := 0; i < bag.Len(); i++ {
		for _, v := range bag.RawRow(i) {
			if v.Kind() == relation.KindString && strings.Contains(v.AsString(), poisonMark) {
				t.Fatalf("output row %d aliases a child row the operator did not own:\n%v", i, bag.RawRow(i))
			}
		}
	}
}

// TestOwnershipRegistry runs every registered operator against both
// ownership probes and compares each bag against the clean reference.
func TestOwnershipRegistry(t *testing.T) {
	rt, st := contractTables(t)
	var c Counters
	for name, oc := range operatorRegistry(t, rt, st, &c) {
		oc := oc
		t.Run(name, func(t *testing.T) {
			chRef, _ := buildChildren(rt, st, oc.children, -1, Fault{})
			ref := drainBag(t, oc.build(t, chRef))

			// Probe 1: poisoned children. The wrapped fault iterators keep
			// auditing the lifecycle underneath.
			chP, _ := buildChildren(rt, st, oc.children, -1, Fault{})
			for i := range chP {
				chP[i] = &poisonIterator{child: chP[i]}
			}
			poisoned := drainBag(t, oc.build(t, chP))
			assertUnpoisoned(t, poisoned)
			if !ref.EqualBag(poisoned) {
				t.Errorf("bag changed under poisoned children (operator retained rows it did not own):\nwant %d rows:\n%vgot %d rows:\n%v",
					ref.Len(), ref, poisoned.Len(), poisoned)
			}

			// Probe 2: a scribbling caller. Producers must never re-read
			// rows they have already emitted.
			chS, _ := buildChildren(rt, st, oc.children, -1, Fault{})
			scribbled := drainScribbled(t, oc.build(t, chS))
			if !ref.EqualBag(scribbled) {
				t.Errorf("bag changed under a scribbling caller (operator re-read emitted rows):\nwant %d rows:\n%vgot %d rows:\n%v",
					ref.Len(), ref, scribbled.Len(), scribbled)
			}
		})
	}
}
