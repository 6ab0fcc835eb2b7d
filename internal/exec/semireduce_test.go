package exec

import (
	"context"
	"testing"

	"freejoin/internal/obs"
	"freejoin/internal/predicate"
	"freejoin/internal/relation"
	"freejoin/internal/storage"
)

// Semijoin-specific behavior on top of the generic registry suites:
// the hash-filter vs. nested-loop split of the lowering, bag equality
// against the algebra semijoin, spill-mode equivalence (including the
// in-memory key pre-check a spilled filter keeps), and the reduction
// counters the Yannakakis observability rides on.

// newSemi lowers a semijoin step the way the optimizer does
// (NewSemiJoin): a pure equi predicate gets the hash filter, anything
// else the nested-loop join in SemiMode.
func newSemi(t *testing.T, rt, st *storage.Table, p predicate.Predicate, size int) Iterator {
	t.Helper()
	it, err := NewSemiJoin(NewBatchScan(rt, nil, size), NewBatchScan(st, nil, size), p, size)
	if err != nil {
		t.Fatal(err)
	}
	return it
}

func isNestedLoop(it Iterator) bool {
	_, ok := it.(*BatchNestedLoopJoin)
	return ok
}

func TestSemiReducePathsMatchOracle(t *testing.T) {
	rt, st := spillTables(t, 300, 200)
	rk := relation.A("R", "k")
	sk := relation.A("S", "k")
	preds := map[string]predicate.Predicate{
		"equi":     predicate.Eq(rk, sk),
		"non-equi": predicate.Cmp(predicate.LtOp, predicate.Col(rk), predicate.Col(sk)),
	}
	for name, p := range preds {
		t.Run(name, func(t *testing.T) {
			ref := refFor(t, SemiMode, rt.Relation(), st.Relation(), p)
			s := newSemi(t, rt, st, p, 0)
			_, isFilter := s.(*BatchSemiReduce)
			if wantFilter := name == "equi"; isFilter != wantFilter {
				t.Fatalf("hash filter = %v, want %v", isFilter, wantFilter)
			}
			if rc, ok := s.(*rowCounter); !isFilter && (!ok || !isNestedLoop(rc.src)) {
				t.Fatalf("non-equi step lowered to %T, want a counted nested-loop join", s)
			}
			in0, out0 := obs.SemiReduceInputRows.Value(), obs.SemiReduceOutputRows.Value()
			got, err := Collect(s, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !ref.EqualBag(got) {
				t.Fatalf("semijoin bag differs from the algebra: want %d rows, got %d",
					ref.Len(), got.Len())
			}
			in, out := obs.SemiReduceInputRows.Value()-in0, obs.SemiReduceOutputRows.Value()-out0
			if in != int64(rt.Relation().Len()) {
				t.Errorf("rows in = %d, want %d", in, rt.Relation().Len())
			}
			if out != int64(got.Len()) {
				t.Errorf("rows out = %d, want %d", out, got.Len())
			}
			if out > in {
				t.Errorf("a filter grew its input: in=%d out=%d", in, out)
			}
		})
	}
}

// TestSemiReduceSpill forces the budget trip in both lowerings: the bag
// must match the algebra, the operator must report its run, and the
// governor and spill dir must drain. The small-batch cases trip after
// some keys are already in memory, so the spilled filter also answers
// from its pre-check.
func TestSemiReduceSpill(t *testing.T) {
	rt, st := spillTables(t, 300, 200)
	rk := relation.A("R", "k")
	sk := relation.A("S", "k")
	for name, p := range map[string]predicate.Predicate{
		"equi":     predicate.Eq(rk, sk),
		"non-equi": predicate.Cmp(predicate.LtOp, predicate.Col(rk), predicate.Col(sk)),
	} {
		t.Run(name, func(t *testing.T) {
			ref := refFor(t, SemiMode, rt.Relation(), st.Relation(), p)
			for _, sz := range []struct{ size, budget int }{{0, 96}, {2, 400}} {
				s := newSemi(t, rt, st, p, sz.size)
				runs0 := obs.SpillRuns.Value()
				ec, gov, dir := spillCtx(t, int64(sz.budget))
				got, err := CollectCtx(ec, s, nil)
				if err != nil {
					t.Fatalf("size %d: spilled run failed: %v", sz.size, err)
				}
				if !ref.EqualBag(got) {
					t.Fatalf("size %d: spilled bag differs: want %d rows, got %d", sz.size, ref.Len(), got.Len())
				}
				if st := spillInfo(t, s); !st.Spilled() || st.Runs == 0 {
					t.Errorf("size %d: expected a recorded spill run, got %+v", sz.size, st)
				}
				if obs.SpillRuns.Value() == runs0 {
					t.Errorf("size %d: oj_spill_runs_total did not move", sz.size)
				}
				checkSpillDrained(t, gov, dir)
			}
		})
	}
}

// TestSemiReduceNullKeys: null keys match nothing on either side, in
// both modes (the filter drops null build keys, probes with null keys
// miss).
func TestSemiReduceNullKeys(t *testing.T) {
	r := relation.FromRows("R", []string{"k"}, []any{1}, []any{nil}, []any{2})
	s := relation.FromRows("S", []string{"k"}, []any{nil}, []any{2})
	rt, st := storage.NewTable("R", r), storage.NewTable("S", s)
	sr, err := NewBatchSemiReduce(NewBatchScan(rt, nil, 0), NewBatchScan(st, nil, 0),
		predicate.Eq(relation.A("R", "k"), relation.A("S", "k")), 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(sr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 {
		t.Fatalf("want only R(2) to survive, got %d rows:\n%v", got.Len(), got)
	}
}

// TestSemiReduceObsCounters: the process-wide reduction counters absorb
// per-operator traffic.
func TestSemiReduceObsCounters(t *testing.T) {
	rt, st := contractTables(t)
	in0, out0 := obs.SemiReduceInputRows.Value(), obs.SemiReduceOutputRows.Value()
	s, err := NewBatchSemiReduce(NewBatchScan(rt, nil, 0), NewBatchScan(st, nil, 0),
		predicate.Eq(relation.A("R", "k"), relation.A("S", "k")), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := runCycle(s, NewExecContext(context.Background(), nil)); err != nil {
		t.Fatal(err)
	}
	if d := obs.SemiReduceInputRows.Value() - in0; d != 5 {
		t.Errorf("input counter moved by %d, want 5", d)
	}
	if d := obs.SemiReduceOutputRows.Value() - out0; d != 3 {
		t.Errorf("output counter moved by %d, want 3 (k=2,2,3 survive)", d)
	}
}
