package optimizer

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"freejoin/internal/core"
	"freejoin/internal/exec"
	"freejoin/internal/expr"
	"freejoin/internal/predicate"
	"freejoin/internal/relation"
	"freejoin/internal/storage"
	"freejoin/internal/workload"
)

// example2Catalog: 1-row X, n-row Y and Z with indexed keys — the
// Example 2 shape where the GOJ rewrite pays off.
func example2Catalog(t *testing.T, n int) *storage.Catalog {
	t.Helper()
	rnd := rand.New(rand.NewSource(91))
	cat := storage.NewCatalog()
	x := relation.New(relation.SchemeOf("X", "a", "b"))
	x.AppendRaw([]relation.Value{relation.Int(int64(n / 2)), relation.Int(0)})
	cat.AddRelation("X", x)
	cat.AddRelation("Y", workload.UniformRelation(rnd, "Y", n, 1<<40))
	cat.AddRelation("Z", workload.UniformRelation(rnd, "Z", n, 1<<40))
	for _, tn := range []string{"Y", "Z"} {
		tb, _ := cat.Table(tn)
		if _, err := tb.BuildHashIndex("a"); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

func example2Query() *expr.Node {
	return expr.NewOuter(expr.NewLeaf("X"),
		expr.NewJoin(expr.NewLeaf("Y"), expr.NewLeaf("Z"), eqp("Y", "Z")),
		eqp("X", "Y"))
}

// gojPlan plans the §6.2 rewrite of q in its written order — the way a
// GOJ plan is reached: core.GOJReassociate, then PlanFixed.
func gojPlan(t *testing.T, o *Optimizer, q *expr.Node) *Plan {
	t.Helper()
	rw, ok, err := core.GOJReassociate(q, o.cat)
	if err != nil || !ok {
		t.Fatalf("GOJReassociate: ok=%v err=%v", ok, err)
	}
	return mustPlanFixed(t, o, rw)
}

// TestPlanFixedRestrictAndGOJ: PlanFixed plans restrictions and GOJ
// nodes in their written order, and both plans run bag-equal to the
// reference algebra.
func TestPlanFixedRestrictAndGOJ(t *testing.T) {
	cat := example2Catalog(t, 5000)
	o := New(cat)
	q := example2Query()
	sigma := expr.NewRestrict(q, predicate.EqConst(relation.A("Y", "b"), relation.Int(7)))
	for name, tc := range map[string]struct {
		ref  *expr.Node
		plan *Plan
	}{
		"restrict": {sigma, mustPlanFixed(t, o, sigma)},
		"goj":      {q, gojPlan(t, o, q)},
	} {
		want, err := tc.ref.Eval(cat)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := execute(nil, o, tc.plan)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !got.EqualBag(want) {
			t.Fatalf("%s plan changed the result:\nplan %s", name, tc.plan.Explain())
		}
	}
}

// TestOptimizeWithGOJPrefersRewrite: on Example 2's data the GOJ plan,
// reached as PlanFixed(GOJReassociate(q)), is GOJ-rooted, runs
// bag-equal to q, and drives from the 1-row X, so it retrieves fewer
// tuples than the fixed order.
func TestOptimizeWithGOJPrefersRewrite(t *testing.T) {
	cat := example2Catalog(t, 5000)
	o := New(cat)
	q := example2Query()
	p := gojPlan(t, o, q)
	if p.Op != expr.GOJ {
		t.Fatalf("GOJ rewrite planned as %s", p.Tree())
	}
	want, err := q.Eval(cat)
	if err != nil {
		t.Fatal(err)
	}
	got, cg, err := execute(nil, o, p)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualBag(want) {
		t.Fatalf("GOJ plan changed the result:\nplan %s", p.Explain())
	}
	// Efficiency: fixed order scans Y and Z through the hash join; the
	// GOJ plan drives from the 1-row X.
	_, cf, err := execute(nil, o, mustPlanFixed(t, o, q))
	if err != nil {
		t.Fatal(err)
	}
	if cg.TuplesRetrieved() >= cf.TuplesRetrieved() {
		t.Errorf("GOJ plan should retrieve fewer tuples: goj=%d fixed=%d",
			cg.TuplesRetrieved(), cf.TuplesRetrieved())
	}
}

// TestOptimizeWithGOJFixedFallback: when the outer predicate spans X and
// Z, identity 15's scope does not apply, so there is no GOJ rewrite and
// the planner keeps the written order.
func TestOptimizeWithGOJFixedFallback(t *testing.T) {
	rnd := rand.New(rand.NewSource(93))
	db := expr.DB{
		"X": workload.RandomRelation(rnd, "X", 5),
		"Y": workload.RandomRelation(rnd, "Y", 5),
		"Z": workload.RandomRelation(rnd, "Z", 5),
	}
	cat := catalogFor(db)
	o := New(cat)
	q := expr.NewOuter(expr.NewLeaf("X"),
		expr.NewJoin(expr.NewLeaf("Y"), expr.NewLeaf("Z"), eqp("Y", "Z")),
		eqp("X", "Z"))
	if _, ok, err := core.GOJReassociate(q, cat); err != nil || ok {
		t.Fatalf("GOJReassociate(X -> (Y - Z) on X.a = Z.a): ok=%v err=%v; want no rewrite", ok, err)
	}
	_, tr, err := o.PlanQueryTrace(q)
	if err != nil || tr.Strategy != "fixed" {
		t.Fatalf("trace = %+v, err %v", tr, err)
	}
}

// TestOptimizeWithGOJKeepsReorderedPlans: a freely reorderable query is
// reordered; the GOJ rewrite is never the planner's business.
func TestOptimizeWithGOJKeepsReorderedPlans(t *testing.T) {
	rnd := rand.New(rand.NewSource(92))
	db := expr.DB{
		"A": workload.RandomRelation(rnd, "A", 5),
		"B": workload.RandomRelation(rnd, "B", 5),
	}
	o := New(catalogFor(db))
	q := expr.NewOuter(expr.NewLeaf("A"), expr.NewLeaf("B"), eqp("A", "B"))
	_, tr, err := o.PlanQueryTrace(q)
	if err != nil || tr.Strategy != "reordered" {
		t.Fatalf("trace = %+v, err %v", tr, err)
	}
}

// TestGOJPlanNonEquiPredicate exercises the theta GOJ, which runs over
// the nested-loop join.
func TestGOJPlanNonEquiPredicate(t *testing.T) {
	rnd := rand.New(rand.NewSource(94))
	db := expr.DB{
		"X": workload.RandomRelation(rnd, "X", 6).Dedup(),
		"Y": workload.RandomRelation(rnd, "Y", 6).Dedup(),
		"Z": workload.RandomRelation(rnd, "Z", 6).Dedup(),
	}
	o := New(catalogFor(db))
	gt := predicate.Cmp(predicate.GtOp,
		predicate.Col(relation.A("Y", "a")), predicate.Col(relation.A("Z", "a")))
	q := expr.NewOuter(expr.NewLeaf("X"),
		expr.NewJoin(expr.NewLeaf("Y"), expr.NewLeaf("Z"), gt),
		eqp("X", "Y"))
	want, err := q.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := execute(nil, o, gojPlan(t, o, q))
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualBag(want) {
		t.Fatal("non-equi GOJ plan changed the result")
	}
}

func TestGOJPlanRendering(t *testing.T) {
	cat := example2Catalog(t, 100)
	o := New(cat)
	p := gojPlan(t, o, example2Query())
	if p.Tree() != "((X -> Y) goj Z)" {
		t.Errorf("Tree = %q", p.Tree())
	}
	if back := p.ToExpr(); back.Op != expr.GOJ {
		t.Errorf("ToExpr = %v", back)
	}
}

// TestThetaGOJRunsUnderItsContext: lowering a theta GOJ plan runs
// nothing, and executing it is governed by the execution context — the
// 64-byte budget that stops the fixed-order plan stops the GOJ plan too.
func TestThetaGOJRunsUnderItsContext(t *testing.T) {
	rnd := rand.New(rand.NewSource(94))
	db := expr.DB{
		"X": workload.RandomRelation(rnd, "X", 200),
		"Y": workload.RandomRelation(rnd, "Y", 200),
		"Z": workload.RandomRelation(rnd, "Z", 200),
	}
	o := New(catalogFor(db))
	gt := predicate.Cmp(predicate.GtOp,
		predicate.Col(relation.A("Y", "a")), predicate.Col(relation.A("Z", "a")))
	q := expr.NewOuter(expr.NewLeaf("X"),
		expr.NewJoin(expr.NewLeaf("Y"), expr.NewLeaf("Z"), gt),
		eqp("X", "Y"))
	p := gojPlan(t, o, q)
	var c exec.Counters
	if _, err := o.Build(p, &c); err != nil {
		t.Fatal(err)
	}
	if n := c.TuplesRetrieved(); n != 0 {
		t.Errorf("Build retrieved %d tuples; lowering must not execute anything", n)
	}
	for name, plan := range map[string]*Plan{"goj": p, "fixed": mustPlanFixed(t, o, q)} {
		ec := exec.NewExecContext(context.Background(), exec.NewGovernor(0, 64))
		_, _, err := execute(ec, o, plan)
		var re *exec.ResourceError
		if !errors.As(err, &re) || re.Kind != exec.MemoryExceeded {
			t.Errorf("%s plan under a 64-byte budget: want MemoryExceeded, got %v", name, err)
		}
	}
}

func mustPlanFixed(t *testing.T, o *Optimizer, q *expr.Node) *Plan {
	t.Helper()
	p, err := o.PlanFixed(q)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
