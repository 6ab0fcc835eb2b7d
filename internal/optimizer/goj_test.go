package optimizer

import (
	"context"
	"errors"
	"math/rand"
	"testing"

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

func TestOptimizeWithGOJPrefersRewrite(t *testing.T) {
	cat := example2Catalog(t, 5000)
	o := New(cat)
	q := example2Query()

	p, strategy, err := o.OptimizeWithGOJ(q)
	if err != nil {
		t.Fatal(err)
	}
	if strategy != "goj" {
		t.Fatalf("strategy = %q, plan %s", strategy, p.Tree())
	}
	// Correctness: GOJ plan result equals the fixed-order reference.
	want, err := q.Eval(cat)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := o.Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualBag(want) {
		t.Fatalf("GOJ plan changed the result:\nplan %s", p.Explain())
	}
	// Efficiency: fixed order scans Y and Z through the hash join; the
	// GOJ plan drives from the 1-row X.
	fixed, err := o.PlanFixed(q)
	if err != nil {
		t.Fatal(err)
	}
	_, cf, err := o.Execute(fixed)
	if err != nil {
		t.Fatal(err)
	}
	_, cg, err := o.Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	if cg.TuplesRetrieved() >= cf.TuplesRetrieved() {
		t.Errorf("GOJ plan should retrieve fewer tuples: goj=%d fixed=%d",
			cg.TuplesRetrieved(), cf.TuplesRetrieved())
	}
}

func TestOptimizeWithGOJKeepsReorderedPlans(t *testing.T) {
	rnd := rand.New(rand.NewSource(92))
	db := expr.DB{
		"A": workload.RandomRelation(rnd, "A", 5),
		"B": workload.RandomRelation(rnd, "B", 5),
	}
	o := New(catalogFor(db))
	q := expr.NewOuter(expr.NewLeaf("A"), expr.NewLeaf("B"), eqp("A", "B"))
	_, strategy, err := o.OptimizeWithGOJ(q)
	if err != nil || strategy != "reordered" {
		t.Fatalf("strategy = %q, err %v", strategy, err)
	}
}

func TestOptimizeWithGOJFixedFallback(t *testing.T) {
	rnd := rand.New(rand.NewSource(93))
	db := expr.DB{
		"X": workload.RandomRelation(rnd, "X", 5),
		"Y": workload.RandomRelation(rnd, "Y", 5),
		"Z": workload.RandomRelation(rnd, "Z", 5),
	}
	o := New(catalogFor(db))
	// Outer predicate spans X and Z: identity 15's scope does not apply,
	// so the rewrite is unavailable and the fixed plan is kept.
	q := expr.NewOuter(expr.NewLeaf("X"),
		expr.NewJoin(expr.NewLeaf("Y"), expr.NewLeaf("Z"), eqp("Y", "Z")),
		eqp("X", "Z"))
	_, strategy, err := o.OptimizeWithGOJ(q)
	if err != nil || strategy != "fixed" {
		t.Fatalf("strategy = %q, err %v", strategy, err)
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
	p, strategy, err := o.OptimizeWithGOJ(q)
	if err != nil {
		t.Fatal(err)
	}
	if strategy == "goj" {
		want, err := q.Eval(db)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := o.Execute(p)
		if err != nil {
			t.Fatal(err)
		}
		if !got.EqualBag(want) {
			t.Fatal("non-equi GOJ plan changed the result")
		}
	}
	// Force the GOJ plan regardless of cost to cover the theta GOJ.
	rw, ok, err := o.planForcedGOJ(q)
	if err != nil || !ok {
		t.Fatalf("forced GOJ: %v %v", ok, err)
	}
	want, _ := q.Eval(db)
	got, _, err := o.Execute(rw)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualBag(want) {
		t.Fatal("forced non-equi GOJ plan changed the result")
	}
}

func TestGOJPlanRendering(t *testing.T) {
	cat := example2Catalog(t, 100)
	o := New(cat)
	p, strategy, err := o.OptimizeWithGOJ(example2Query())
	if err != nil || strategy != "goj" {
		t.Fatalf("strategy %q err %v", strategy, err)
	}
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
	p, ok, err := o.planForcedGOJ(q)
	if err != nil || !ok {
		t.Fatalf("forced GOJ: %v %v", ok, err)
	}
	var c exec.Counters
	if _, err := o.Build(p, &c); err != nil {
		t.Fatal(err)
	}
	if n := c.TuplesRetrieved(); n != 0 {
		t.Errorf("Build retrieved %d tuples; lowering must not execute anything", n)
	}
	for name, plan := range map[string]*Plan{"goj": p, "fixed": mustPlanFixed(t, o, q)} {
		ec := exec.NewExecContext(context.Background(), exec.NewGovernor(0, 64))
		_, _, err := o.ExecuteCtx(ec, plan)
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
