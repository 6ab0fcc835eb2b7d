package exec

import (
	"context"
	"testing"

	"freejoin/internal/predicate"
	"freejoin/internal/relation"
	"freejoin/internal/storage"
)

// Unit coverage for the batch layer itself: the null bitmap, boundary
// batch sizes, the spill paths a
// build trip takes, and the single-row stream mode of the nested-loop
// join — with regression tests for the ownership bugs the vectorization
// work surfaced (re-Open leaking a stale spill run, the peek leaving the
// left child doubly opened across a trip, and probe loops re-reading a
// left batch the producer had already refilled).

// TestBatchNullBitmap checks every append path maintains the bitmap:
// copied rows, concatenated rows, null padding, and in-place moves.
func TestBatchNullBitmap(t *testing.T) {
	sch, err := relation.NewScheme(relation.A("R", "a"), relation.A("R", "b"), relation.A("S", "c"))
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatch(sch, 4)

	b.AppendRow([]relation.Value{relation.Int(1), relation.Null(), relation.Str("x")})
	b.AppendConcat([]relation.Value{relation.Null(), relation.Int(2)}, []relation.Value{relation.Null()})
	b.AppendPad([]relation.Value{relation.Int(3)}) // b, c padded with nulls

	want := [][]bool{
		{false, true, false},
		{true, false, true},
		{false, true, true},
	}
	for i, row := range want {
		for j, null := range row {
			if got := b.IsNull(i, j); got != null {
				t.Errorf("IsNull(%d,%d) = %v, want %v", i, j, got, null)
			}
		}
	}

	// Compaction: moving row 2 over row 1 must rewrite row 1's bits
	// (clearing stale ones), as the batch filter relies on.
	b.MoveRow(1, 2)
	for j, null := range want[2] {
		if got := b.IsNull(1, j); got != null {
			t.Errorf("after MoveRow, IsNull(1,%d) = %v, want %v", j, got, null)
		}
	}

	// Reset clears everything; a fresh append starts from clean bits.
	b.Reset()
	b.AppendRow([]relation.Value{relation.Int(9), relation.Int(9), relation.Str("y")})
	for j := 0; j < 3; j++ {
		if b.IsNull(0, j) {
			t.Errorf("after Reset, IsNull(0,%d) = true on a non-null row", j)
		}
	}
}

// TestBatchScanBatchSizes drains the same table at awkward batch sizes
// (1, a non-divisor of the input length, and one larger than the whole
// input): every batch is non-empty and within the size, and the bag is
// the table's.
func TestBatchScanBatchSizes(t *testing.T) {
	rt, _ := contractTables(t)
	for _, size := range []int{1, 2, 3, 100} {
		var c Counters
		s := NewBatchScan(rt, &c, size)
		if err := s.Open(nil); err != nil {
			t.Fatal(err)
		}
		got := relation.New(s.Scheme())
		for {
			b, ok, err := s.NextBatch()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if b.Len() == 0 || b.Len() > size {
				t.Fatalf("size %d: batch of %d rows", size, b.Len())
			}
			b.appendToRelation(got)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if !got.EqualBag(rt.Relation()) {
			t.Errorf("size %d: scan bag differs (%d rows, want %d)", size, got.Len(), rt.Relation().Len())
		}
		if c.TuplesRetrieved() != int64(rt.Relation().Len()) {
			t.Errorf("size %d: %d tuples retrieved, want %d", size, c.TuplesRetrieved(), rt.Relation().Len())
		}
	}
}

// TestBatchHashJoinTripSpills forces the batched build over budget with
// spilling on and checks the join completes through its own grace-hash
// path — partitions written, the right bag, nothing left behind.
func TestBatchHashJoinTripSpills(t *testing.T) {
	rt, st := contractTables(t)
	rk, sk := relation.A("R", "k"), relation.A("S", "k")
	mk := func() *BatchHashJoin {
		var c Counters
		h, err := NewBatchHashJoin(NewBatchScan(rt, &c, 2), NewBatchScan(st, &c, 2),
			[]relation.Attr{rk}, []relation.Attr{sk}, nil, InnerMode, 2)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	ref, err := Collect(mk(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Len() == 0 {
		t.Fatal("join produced no rows")
	}

	h := mk()
	ec, gov, dir := spillCtx(t, 150)
	got, err := CollectCtx(ec, h, nil)
	if err != nil {
		t.Fatalf("tripped join should spill, not fail: %v", err)
	}
	if h.SpillInfo().Partitions == 0 {
		t.Fatal("150-byte budget did not force a grace spill")
	}
	if !got.EqualBag(ref) {
		t.Errorf("spilled bag differs: %d rows, want %d", got.Len(), ref.Len())
	}
	checkSpillDrained(t, gov, dir)
}

// TestBatchNestedLoopStreamMode pins the single-driving-row fast path:
// a one-row left input streams the right side without materializing it,
// so even a budget far too small for the right side never trips — in
// every join mode, including the 3VL null-key short-circuit.
func TestBatchNestedLoopStreamMode(t *testing.T) {
	mkRight := func() *relation.Relation {
		rows := make([][]any, 50)
		for i := range rows {
			rows[i] = []any{i % 5}
		}
		return relation.FromRows("S", []string{"k"}, rows...)
	}
	right := mkRight()
	rk, sk := relation.A("R", "k"), relation.A("S", "k")
	key := predicate.Eq(rk, sk)

	cases := []struct {
		name     string
		leftKey  any
		mode     JoinMode
		wantRows int
	}{
		{"inner-match", 2, InnerMode, 10},
		{"inner-miss", 9, InnerMode, 0},
		{"outer-match", 2, LeftOuterMode, 10},
		{"outer-miss", 9, LeftOuterMode, 1},      // null-padded
		{"outer-nullkey", nil, LeftOuterMode, 1}, // 3VL short-circuit
		{"semi-match", 2, SemiMode, 1},
		{"semi-nullkey", nil, SemiMode, 0},
		{"anti-miss", 9, AntiMode, 1},
		{"anti-nullkey", nil, AntiMode, 1},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			left := relation.FromRows("R", []string{"k"}, [][]any{{tc.leftKey}}...)
			n, err := NewBatchNestedLoopJoin(
				NewBatchScan(storage.NewTable("R", left), nil, 8),
				NewBatchScan(storage.NewTable("S", right), nil, 8), key, tc.mode, 8)
			if err != nil {
				t.Fatal(err)
			}
			// A 96-byte budget cannot hold the 50-row right side; only
			// the streaming path passes without tripping or spilling.
			gov := NewGovernor(0, 96)
			ec := NewExecContext(context.Background(), gov)
			got, err := CollectCtx(ec, n, nil)
			if err != nil {
				t.Fatalf("stream mode tripped the budget: %v", err)
			}
			if got.Len() != tc.wantRows {
				t.Errorf("rows = %d, want %d\n%v", got.Len(), tc.wantRows, got)
			}
			if gov.UsedBytes() != 0 {
				t.Errorf("governor holds %d bytes after Close", gov.UsedBytes())
			}
		})
	}
}

// TestBatchNestedLoopStreamContract re-runs the iterator contract on a
// streaming-mode join: re-Open yields the same bag and Close is
// idempotent (the stream state must fully reset).
func TestBatchNestedLoopStreamContract(t *testing.T) {
	left := relation.FromRows("R", []string{"k"}, []any{2})
	right := relation.FromRows("S", []string{"k"}, []any{1}, []any{2}, []any{2}, []any{3})
	n, err := NewBatchNestedLoopJoin(
		NewBatchScan(storage.NewTable("R", left), nil, 4),
		NewBatchScan(storage.NewTable("S", right), nil, 4),
		predicate.Eq(relation.A("R", "k"), relation.A("S", "k")), LeftOuterMode, 4)
	if err != nil {
		t.Fatal(err)
	}
	first := drainBag(t, n)
	if first.Len() != 2 {
		t.Fatalf("first drain: %d rows, want 2", first.Len())
	}
	if err := n.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	second := drainBag(t, n)
	if !first.EqualBag(second) {
		t.Errorf("re-opened streaming join changed its bag:\n%v\nvs\n%v", first, second)
	}
}

// TestBatchReopenDropsStaleSpill is the regression test for the spill
// leak the metamorphic oracle caught: an operator whose previous
// execution spilled (with a live run) is re-opened WITHOUT an
// intervening Close — the iterator contract allows this — and must drop
// the stale run first, or its governor reservation and file leak.
func TestBatchReopenDropsStaleSpill(t *testing.T) {
	rt, st := contractTables(t)
	var c Counters
	n, err := NewBatchNestedLoopJoin(NewBatchScan(rt, &c, 2), NewBatchScan(st, &c, 2),
		predicate.Eq(relation.A("R", "k"), relation.A("S", "k")), InnerMode, 2)
	if err != nil {
		t.Fatal(err)
	}
	ec, gov, dir := spillCtx(t, 96)

	// Cycle 1: the build trips and spills the inner input.
	if err := n.Open(ec); err != nil {
		t.Fatal(err)
	}
	if _, _, err := n.NextBatch(); err != nil {
		t.Fatal(err)
	}
	if n.SpillInfo().Runs == 0 {
		t.Fatal("96-byte budget did not force a spill")
	}

	// Cycle 2: re-Open without Close, drain fully, Close.
	if err := n.Open(ec); err != nil {
		t.Fatal(err)
	}
	for {
		_, ok, err := n.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	checkSpillDrained(t, gov, dir)
}

// TestBatchNestedLoopTripSpillBalancesLeft: the Open-time peek holds the
// left child open and a memory trip during the right build spills. The
// spilled join must carry on from the peeked rows (no re-open of either
// child, so the open counts audited by the fault iterators balance) and
// still produce the right bag.
func TestBatchNestedLoopTripSpillBalancesLeft(t *testing.T) {
	rt, st := contractTables(t)
	lf := faultScan(rt, Fault{})
	rf := faultScan(st, Fault{})
	n, err := NewBatchNestedLoopJoin(lf, rf,
		predicate.Eq(relation.A("R", "k"), relation.A("S", "k")), InnerMode, 2)
	if err != nil {
		t.Fatal(err)
	}
	ec, gov, dir := spillCtx(t, 96)
	got, err := CollectCtx(ec, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n.SpillInfo().Runs == 0 {
		t.Fatal("96-byte budget did not force a spill")
	}
	want := refFor(t, InnerMode, rt.Relation(), st.Relation(),
		predicate.Eq(relation.A("R", "k"), relation.A("S", "k")))
	if !got.EqualBag(want) {
		t.Errorf("spilled bag differs:\n%v\nwant:\n%v", got, want)
	}
	for name, f := range map[string]*faultIterator{"left": lf, "right": rf} {
		if f.OpenCalls != f.CloseCalls {
			t.Errorf("%s child leaked: opens=%d closes=%d", name, f.OpenCalls, f.CloseCalls)
		}
	}
	checkSpillDrained(t, gov, dir)
}

// TestStaleLeftBatchNotReprobed is the regression test for the
// stale-left-batch defect shared by the three probe loops: a filter
// refills its batch object with rows it then rejects, and reports end
// of stream holding that refilled batch. A join that kept its pointer
// to the batch probed those rejected rows on its next call (hash and
// nested loop emitted them; the index join indexed past its span
// vector and panicked).
func TestStaleLeftBatchNotReprobed(t *testing.T) {
	rrows := make([][]any, 12)
	srows := make([][]any, 12)
	for i := range rrows {
		rrows[i] = []any{i, i}
		srows[i] = []any{i, 100 + i}
	}
	rt := storage.NewTable("R", relation.FromRows("R", []string{"k", "b"}, rrows...))
	st := storage.NewTable("S", relation.FromRows("S", []string{"k", "w"}, srows...))
	if _, err := st.BuildHashIndex("k"); err != nil {
		t.Fatal(err)
	}
	rk, sk := relation.A("R", "k"), relation.A("S", "k")
	key := predicate.Eq(rk, sk)
	const size = 4
	left := func() Iterator {
		f, err := NewBatchFilter(NewBatchScan(rt, nil, size),
			predicate.Cmp(predicate.LtOp, predicate.Col(relation.A("R", "b")), predicate.Const(relation.Int(2))), size)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	joins := map[string]func() (Iterator, error){
		"hash": func() (Iterator, error) {
			return NewBatchHashJoin(left(), NewBatchScan(st, nil, size),
				[]relation.Attr{rk}, []relation.Attr{sk}, nil, InnerMode, size)
		},
		"nestedloop": func() (Iterator, error) {
			return NewBatchNestedLoopJoin(left(), NewBatchScan(st, nil, size), key, InnerMode, size)
		},
		"index": func() (Iterator, error) {
			return NewBatchIndexJoin(left(), st, "k", rk, nil, InnerMode, nil, size)
		},
	}
	for name, mk := range joins {
		t.Run(name, func(t *testing.T) {
			it, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			got, err := Collect(it, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got.Len() != 2 {
				t.Fatalf("rows = %d, want 2 (R.b < 2 keeps k = 0, 1):\n%v", got.Len(), got)
			}
		})
	}
}
