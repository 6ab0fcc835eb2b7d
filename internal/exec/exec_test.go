package exec

import (
	"math/rand"
	"testing"

	"freejoin/internal/algebra"
	"freejoin/internal/predicate"
	"freejoin/internal/relation"
	"freejoin/internal/storage"
)

func randRel(rnd *rand.Rand, name string, n int) *relation.Relation {
	r := relation.New(relation.SchemeOf(name, "k", "v"))
	for i := 0; i < n; i++ {
		var k relation.Value
		if rnd.Intn(6) == 0 {
			k = relation.Null()
		} else {
			k = relation.Int(int64(rnd.Intn(5)))
		}
		r.AppendRaw([]relation.Value{k, relation.Int(int64(rnd.Intn(5)))})
	}
	return r
}

func scanOf(t *testing.T, name string, rel *relation.Relation, c *Counters) (*BatchScan, *storage.Table) {
	t.Helper()
	tb := storage.NewTable(name, rel)
	return NewBatchScan(tb, c, 0), tb
}

// refFor computes the expected result of a physical join mode via the
// reference algebra.
func refFor(t *testing.T, mode JoinMode, l, r *relation.Relation, p predicate.Predicate) *relation.Relation {
	t.Helper()
	var out *relation.Relation
	var err error
	switch mode {
	case InnerMode:
		out, err = algebra.Join(l, r, p)
	case LeftOuterMode:
		out, err = algebra.LeftOuterJoin(l, r, p)
	case SemiMode:
		out, err = algebra.Semijoin(l, r, p)
	case AntiMode:
		out, err = algebra.Antijoin(l, r, p)
	}
	if err != nil {
		t.Fatal(err)
	}
	return out
}

var allModes = []JoinMode{InnerMode, LeftOuterMode, SemiMode, AntiMode}

func TestScanAndCollect(t *testing.T) {
	rel := relation.FromRows("R", []string{"k", "v"}, []any{1, 2}, []any{3, 4})
	var c Counters
	s, _ := scanOf(t, "R", rel, &c)
	out, err := Collect(s, &c)
	if err != nil {
		t.Fatal(err)
	}
	if !out.EqualBag(rel) {
		t.Error("scan must reproduce the table")
	}
	if c.TuplesRetrieved() != 2 || c.RowsProduced() != 2 {
		t.Errorf("counters = tuples %d rows %d", c.TuplesRetrieved(), c.RowsProduced())
	}
}

func TestIndexScan(t *testing.T) {
	rel := relation.FromRows("R", []string{"k", "v"},
		[]any{1, "a"}, []any{2, "b"}, []any{2, "c"}, []any{nil, "d"})
	tb := storage.NewTable("R", rel)
	if _, err := NewIndexScan(tb, "k", relation.Int(2), nil); err == nil {
		t.Fatal("missing index must fail")
	}
	if _, err := tb.BuildHashIndex("k"); err != nil {
		t.Fatal(err)
	}
	var c Counters
	is, err := NewIndexScan(tb, "k", relation.Int(2), &c)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(is, &c)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 || c.TuplesRetrieved() != 2 {
		t.Fatalf("rows=%d retrieved=%d", out.Len(), c.TuplesRetrieved())
	}
	// Miss.
	is2, _ := NewIndexScan(tb, "k", relation.Int(99), nil)
	out2, _ := Collect(is2, nil)
	if out2.Len() != 0 {
		t.Error("miss must return no rows")
	}
	// Null key never matches.
	is3, _ := NewIndexScan(tb, "k", relation.Null(), nil)
	out3, _ := Collect(is3, nil)
	if out3.Len() != 0 {
		t.Error("null key must return no rows")
	}
}

func TestFilter(t *testing.T) {
	rel := relation.FromRows("R", []string{"k", "v"}, []any{1, 2}, []any{3, 4}, []any{nil, 9})
	s, _ := scanOf(t, "R", rel, nil)
	p := predicate.Cmp(predicate.GtOp, predicate.Col(relation.A("R", "k")), predicate.Const(relation.Int(1)))
	f, err := NewBatchFilter(s, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := algebra.Restrict(rel, p)
	if !out.EqualBag(want) {
		t.Errorf("filter mismatch:\n%v\nvs\n%v", out, want)
	}
	s2, _ := scanOf(t, "R", rel, nil)
	if _, err := NewBatchFilter(s2, predicate.NewIsNull(relation.A("Z", "z")), 0); err == nil {
		t.Error("unbindable filter must fail")
	}
}

func TestHashJoinAllModes(t *testing.T) {
	rnd := rand.New(rand.NewSource(17))
	key := predicate.Eq(relation.A("R", "k"), relation.A("S", "k"))
	for trial := 0; trial < 40; trial++ {
		lrel := randRel(rnd, "R", rnd.Intn(10))
		rrel := randRel(rnd, "S", rnd.Intn(10))
		for _, mode := range allModes {
			ls, _ := scanOf(t, "R", lrel, nil)
			rs, _ := scanOf(t, "S", rrel, nil)
			hj, err := NewBatchHashJoin(ls, rs,
				[]relation.Attr{relation.A("R", "k")}, []relation.Attr{relation.A("S", "k")},
				nil, mode, 3)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Collect(hj, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := refFor(t, mode, lrel, rrel, key)
			if !got.EqualBag(want) {
				t.Fatalf("trial %d mode %s: hash join mismatch\ngot:\n%v\nwant:\n%v", trial, mode, got, want)
			}
		}
	}
}

func TestHashJoinResidual(t *testing.T) {
	rnd := rand.New(rand.NewSource(18))
	full := predicate.NewAnd(
		predicate.Eq(relation.A("R", "k"), relation.A("S", "k")),
		predicate.Cmp(predicate.LtOp, predicate.Col(relation.A("R", "v")), predicate.Col(relation.A("S", "v"))))
	residual := predicate.Cmp(predicate.LtOp, predicate.Col(relation.A("R", "v")), predicate.Col(relation.A("S", "v")))
	for trial := 0; trial < 30; trial++ {
		lrel := randRel(rnd, "R", rnd.Intn(10))
		rrel := randRel(rnd, "S", rnd.Intn(10))
		for _, mode := range allModes {
			ls, _ := scanOf(t, "R", lrel, nil)
			rs, _ := scanOf(t, "S", rrel, nil)
			hj, err := NewBatchHashJoin(ls, rs,
				[]relation.Attr{relation.A("R", "k")}, []relation.Attr{relation.A("S", "k")},
				residual, mode, 3)
			if err != nil {
				t.Fatal(err)
			}
			got, _ := Collect(hj, nil)
			want := refFor(t, mode, lrel, rrel, full)
			if !got.EqualBag(want) {
				t.Fatalf("trial %d mode %s: residual hash join mismatch", trial, mode)
			}
		}
	}
}

func TestHashJoinErrors(t *testing.T) {
	lrel := randRel(rand.New(rand.NewSource(1)), "R", 3)
	rrel := randRel(rand.New(rand.NewSource(2)), "S", 3)
	ls, _ := scanOf(t, "R", lrel, nil)
	rs, _ := scanOf(t, "S", rrel, nil)
	if _, err := NewBatchHashJoin(ls, rs, nil, nil, nil, InnerMode, 3); err == nil {
		t.Error("empty key list must fail")
	}
	if _, err := NewBatchHashJoin(ls, rs,
		[]relation.Attr{relation.A("Z", "z")}, []relation.Attr{relation.A("S", "k")}, nil, InnerMode, 3); err == nil {
		t.Error("bad left key must fail")
	}
	if _, err := NewBatchHashJoin(ls, rs,
		[]relation.Attr{relation.A("R", "k")}, []relation.Attr{relation.A("Z", "z")}, nil, InnerMode, 3); err == nil {
		t.Error("bad right key must fail")
	}
}

func TestNestedLoopJoinAllModes(t *testing.T) {
	rnd := rand.New(rand.NewSource(19))
	p := predicate.Cmp(predicate.GtOp, predicate.Col(relation.A("R", "k")), predicate.Col(relation.A("S", "k")))
	for trial := 0; trial < 40; trial++ {
		lrel := randRel(rnd, "R", rnd.Intn(10))
		rrel := randRel(rnd, "S", rnd.Intn(10))
		for _, mode := range allModes {
			ls, _ := scanOf(t, "R", lrel, nil)
			rs, _ := scanOf(t, "S", rrel, nil)
			nl, err := NewBatchNestedLoopJoin(ls, rs, p, mode, 3)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Collect(nl, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := refFor(t, mode, lrel, rrel, p)
			if !got.EqualBag(want) {
				t.Fatalf("trial %d mode %s: NL join mismatch\ngot:\n%v\nwant:\n%v", trial, mode, got, want)
			}
		}
	}
}

func TestIndexJoinAllModes(t *testing.T) {
	rnd := rand.New(rand.NewSource(20))
	key := predicate.Eq(relation.A("R", "k"), relation.A("S", "k"))
	for trial := 0; trial < 40; trial++ {
		lrel := randRel(rnd, "R", rnd.Intn(10))
		rrel := randRel(rnd, "S", rnd.Intn(10))
		inner := storage.NewTable("S", rrel)
		if _, err := inner.BuildHashIndex("k"); err != nil {
			t.Fatal(err)
		}
		for _, mode := range allModes {
			ls, _ := scanOf(t, "R", lrel, nil)
			ij, err := NewBatchIndexJoin(ls, inner, "k", relation.A("R", "k"), nil, mode, nil, 3)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Collect(ij, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := refFor(t, mode, lrel, rrel, key)
			if !got.EqualBag(want) {
				t.Fatalf("trial %d mode %s: index join mismatch\ngot:\n%v\nwant:\n%v", trial, mode, got, want)
			}
		}
	}
}

func TestIndexJoinCountsRetrievedTuples(t *testing.T) {
	// 1-row outer, large indexed inner: the Example 1 effect — only the
	// matching inner tuples are retrieved.
	outer := relation.FromRows("R", []string{"k", "v"}, []any{500, 0})
	innerRel := relation.New(relation.SchemeOf("S", "k", "v"))
	for i := 0; i < 10000; i++ {
		innerRel.AppendRaw([]relation.Value{relation.Int(int64(i)), relation.Int(0)})
	}
	inner := storage.NewTable("S", innerRel)
	if _, err := inner.BuildHashIndex("k"); err != nil {
		t.Fatal(err)
	}
	var c Counters
	ls, _ := scanOf(t, "R", outer, &c)
	ij, err := NewBatchIndexJoin(ls, inner, "k", relation.A("R", "k"), nil, InnerMode, &c, 3)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(ij, &c)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 {
		t.Fatalf("rows = %d", out.Len())
	}
	if c.TuplesRetrieved() != 2 { // 1 outer + 1 indexed fetch
		t.Errorf("TuplesRetrieved = %d, want 2", c.TuplesRetrieved())
	}
}

func TestIndexJoinErrors(t *testing.T) {
	lrel := randRel(rand.New(rand.NewSource(3)), "R", 3)
	inner := storage.NewTable("S", randRel(rand.New(rand.NewSource(4)), "S", 3))
	ls, _ := scanOf(t, "R", lrel, nil)
	if _, err := NewBatchIndexJoin(ls, inner, "k", relation.A("R", "k"), nil, InnerMode, nil, 3); err == nil {
		t.Error("missing index must fail")
	}
	if _, err := inner.BuildHashIndex("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := NewBatchIndexJoin(ls, inner, "k", relation.A("Z", "z"), nil, InnerMode, nil, 3); err == nil {
		t.Error("bad outer key must fail")
	}
}

func TestJoinModeString(t *testing.T) {
	for m, want := range map[JoinMode]string{
		InnerMode: "inner", LeftOuterMode: "leftouter", SemiMode: "semi", AntiMode: "anti",
	} {
		if m.String() != want {
			t.Errorf("%d renders %q", m, m.String())
		}
	}
	if JoinMode(9).String() == "" {
		t.Error("unknown mode rendering")
	}
}

func TestJoinSchemeOverlapRejected(t *testing.T) {
	rel := randRel(rand.New(rand.NewSource(7)), "R", 3)
	s1, _ := scanOf(t, "R", rel, nil)
	s2, _ := scanOf(t, "R", rel, nil)
	if _, err := NewBatchNestedLoopJoin(s1, s2, predicate.TruePred, InnerMode, 3); err == nil {
		t.Error("overlapping schemes must fail")
	}
}
