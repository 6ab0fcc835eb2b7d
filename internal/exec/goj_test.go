package exec

import (
	"math/rand"
	"testing"

	"freejoin/internal/algebra"
	"freejoin/internal/predicate"
	"freejoin/internal/relation"
	"freejoin/internal/storage"
)

var (
	gojEqui  = predicate.Eq(relation.A("R", "k"), relation.A("S", "k"))
	gojTheta = predicate.Cmp(predicate.LtOp, predicate.Col(relation.A("R", "k")), predicate.Col(relation.A("S", "k")))
)

// checkGOJ runs GOJ[s][p](l, r) at batch size size and compares its bag
// with the eqn (14) reference implementation.
func checkGOJ(t *testing.T, l, r *relation.Relation, p predicate.Predicate, s []relation.Attr, size int) {
	t.Helper()
	want, err := algebra.GeneralizedOuterJoin(l, r, p, s)
	if err != nil {
		t.Fatal(err)
	}
	ls, _ := scanOf(t, "R", l, nil)
	rs, _ := scanOf(t, "S", r, nil)
	goj, err := NewGOJ(ls, rs, p, s, size)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(goj, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualBag(want) {
		t.Fatalf("GOJ[%v][%v] mismatch at size %d\nleft:\n%vright:\n%vgot:\n%vwant:\n%v", s, p, size, l, r, got, want)
	}
}

// randomGOJTrials checks p on random inputs with nulls and duplicates,
// over random S choices.
func randomGOJTrials(t *testing.T, seed int64, p predicate.Predicate) {
	rnd := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 60; trial++ {
		lrel := randRel(rnd, "R", rnd.Intn(12))
		rrel := randRel(rnd, "S", rnd.Intn(12))
		var s []relation.Attr
		switch rnd.Intn(4) {
		case 0:
			s = []relation.Attr{relation.A("R", "k")}
		case 1:
			s = []relation.Attr{relation.A("R", "v")}
		case 2:
			s = nil // π[∅]: one padded all-null row when nothing joins
		default:
			s = lrel.Scheme().Attrs()
		}
		checkGOJ(t, lrel, rrel, p, s, 1+rnd.Intn(4))
	}
}

// gojTableCases are the edge cases both GOJ lowerings must get right.
func gojTableCases() []struct {
	name string
	l, r *relation.Relation
	s    []relation.Attr
} {
	R := func(rows ...[]any) *relation.Relation { return relation.FromRows("R", []string{"k", "v"}, rows...) }
	S := func(rows ...[]any) *relation.Relation { return relation.FromRows("S", []string{"k", "w"}, rows...) }
	rk, rv := relation.A("R", "k"), relation.A("R", "v")
	return []struct {
		name string
		l, r *relation.Relation
		s    []relation.Attr
	}{
		{"empty-right", R([]any{1, 10}, []any{2, 20}, []any{nil, 30}, []any{1, 10}), S(), []relation.Attr{rk, rv}},
		{"empty-left", R(), S([]any{1, "a"}), []relation.Attr{rk}},
		// No left row joins under either predicate: every distinct
		// projection comes back padded, once.
		{"all-dangling", R([]any{7, 1}, []any{8, 2}, []any{8, 3}), S([]any{1, "a"}, []any{2, "b"}), []relation.Attr{rk}},
		// Projections on v repeat across matched and unmatched rows: 10
		// and 11 join, 12 (twice) never does.
		{"duplicate-projections",
			R([]any{1, 10}, []any{1, 11}, []any{2, 10}, []any{3, 10}, []any{9, 12}, []any{9, 12}),
			S([]any{1, "a"}, []any{2, "b"}, []any{4, "c"}), []relation.Attr{rv}},
		// Null keys never join, but a null projection is still one
		// distinct projection.
		{"null-keys",
			R([]any{nil, 1}, []any{nil, 1}, []any{2, 2}, []any{nil, 3}),
			S([]any{nil, "a"}, []any{2, "b"}, []any{nil, "c"}, []any{3, "d"}), []relation.Attr{rk}},
		{"empty-S", R([]any{1, 1}, []any{6, 2}), S([]any{5, "x"}), nil},
	}
}

// TestHashGOJMatchesAlgebra: the equi GOJ (over the hash join) agrees
// with the reference implementation on random inputs and the edge
// cases.
func TestHashGOJMatchesAlgebra(t *testing.T) {
	randomGOJTrials(t, 33, gojEqui)
	for _, tc := range gojTableCases() {
		t.Run(tc.name, func(t *testing.T) {
			for _, size := range []int{0, 1} {
				checkGOJ(t, tc.l, tc.r, gojEqui, tc.s, size)
			}
		})
	}
}

// TestNestedLoopGOJMatchesAlgebra: the theta GOJ (over the nested-loop
// join) agrees with the reference implementation on random inputs and
// the edge cases.
func TestNestedLoopGOJMatchesAlgebra(t *testing.T) {
	randomGOJTrials(t, 34, gojTheta)
	for _, tc := range gojTableCases() {
		t.Run(tc.name, func(t *testing.T) {
			for _, size := range []int{0, 1} {
				checkGOJ(t, tc.l, tc.r, gojTheta, tc.s, size)
			}
		})
	}
}

func TestHashGOJAsOuterjoin(t *testing.T) {
	// GOJ[sch(X)] on duplicate-free X behaves as the left outerjoin.
	lrel := relation.FromRows("R", []string{"k", "v"},
		[]any{1, 10}, []any{2, 20}, []any{nil, 30})
	rrel := relation.FromRows("S", []string{"k", "w"},
		[]any{1, 100}, []any{1, 101})
	want, err := algebra.LeftOuterJoin(lrel, rrel, gojEqui)
	if err != nil {
		t.Fatal(err)
	}
	ls, _ := scanOf(t, "R", lrel, nil)
	rs, _ := scanOf(t, "S", rrel, nil)
	goj, err := NewGOJ(ls, rs, gojEqui, lrel.Scheme().Attrs(), 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(goj, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualBag(want) {
		t.Fatalf("GOJ[sch(X)] != outerjoin:\n%v\nvs\n%v", got, want)
	}
}

func TestHashGOJErrors(t *testing.T) {
	lrel := randRel(rand.New(rand.NewSource(1)), "R", 3)
	rrel := randRel(rand.New(rand.NewSource(2)), "S", 3)
	ls, _ := scanOf(t, "R", lrel, nil)
	rs, _ := scanOf(t, "S", rrel, nil)
	rk := []relation.Attr{relation.A("R", "k")}
	if _, err := NewGOJ(ls, rs, gojEqui, []relation.Attr{relation.A("Z", "z")}, 0); err == nil {
		t.Error("S outside the left scheme must fail")
	}
	unbound := predicate.Cmp(predicate.LtOp, predicate.Col(relation.A("Z", "z")), predicate.Col(relation.A("S", "k")))
	if _, err := NewGOJ(ls, rs, unbound, rk, 0); err == nil {
		t.Error("a predicate over unknown attributes must fail")
	}
	ls2, _ := scanOf(t, "R", lrel, nil)
	if _, err := NewGOJ(ls, ls2, gojEqui, rk, 0); err == nil {
		t.Error("overlapping schemes must fail")
	}
}

// TestGOJSpill: under a byte budget far below the build side, the GOJ
// completes through its inner join's spill path — grace partitions for
// the equi predicate, the run scan for the theta one — with the bag of
// the unbudgeted run and nothing left behind. The projection set (13
// distinct keys) fits the budget.
func TestGOJSpill(t *testing.T) {
	rt, st := spillTables(t, 300, 300)
	s := []relation.Attr{relation.A("R", "k")}
	for name, p := range map[string]predicate.Predicate{"equi": gojEqui, "theta": gojTheta} {
		t.Run(name, func(t *testing.T) {
			want, err := algebra.GeneralizedOuterJoin(rt.Relation(), st.Relation(), p, s)
			if err != nil {
				t.Fatal(err)
			}
			g, err := NewGOJ(NewBatchScan(rt, nil, 16), NewBatchScan(st, nil, 16), p, s, 16)
			if err != nil {
				t.Fatal(err)
			}
			ec, gov, dir := spillCtx(t, 2000)
			got, err := CollectCtx(ec, g, nil)
			if err != nil {
				t.Fatalf("GOJ under a spill budget failed: %v", err)
			}
			if !got.EqualBag(want) {
				t.Errorf("spilled GOJ bag differs: want %d rows, got %d", want.Len(), got.Len())
			}
			sp := g.SpillInfo()
			if name == "equi" && sp.Partitions == 0 {
				t.Errorf("equi GOJ should spill through grace partitions, got %+v", sp)
			}
			if !sp.Spilled() {
				t.Errorf("GOJ should report its inner join's spill, got %+v", sp)
			}
			checkSpillDrained(t, gov, dir)
		})
	}
}

// TestGOJSeesEveryLeftRow: with an empty right input an inner join has
// nothing to probe for, yet every distinct left projection must come
// back padded — the GOJ reads the left input to its end whatever the
// join does.
func TestGOJSeesEveryLeftRow(t *testing.T) {
	rows := make([][]any, 50)
	for i := range rows {
		rows[i] = []any{i % 7, i}
	}
	rt := storage.NewTable("R", relation.FromRows("R", []string{"k", "v"}, rows...))
	st := storage.NewTable("S", relation.FromRows("S", []string{"k", "w"}))
	for name, p := range map[string]predicate.Predicate{"equi": gojEqui, "theta": gojTheta} {
		g, err := NewGOJ(NewBatchScan(rt, nil, 4), NewBatchScan(st, nil, 4), p, []relation.Attr{relation.A("R", "k")}, 4)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Collect(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != 7 {
			t.Errorf("%s: %d padded projections, want 7", name, got.Len())
		}
	}
}
