package optimizer

import (
	"math/rand"
	"strings"
	"testing"

	"freejoin/internal/exec"
	"freejoin/internal/expr"
	"freejoin/internal/predicate"
	"freejoin/internal/relation"
	"freejoin/internal/storage"
	"freejoin/internal/workload"
)

func eqp(u, v string) predicate.Predicate {
	return predicate.Eq(relation.A(u, "a"), relation.A(v, "a"))
}

// catalogFor wraps a random database into a catalog.
func catalogFor(db expr.DB) *storage.Catalog {
	cat := storage.NewCatalog()
	for name, rel := range db {
		cat.AddRelation(name, rel)
	}
	return cat
}

func TestScanPlan(t *testing.T) {
	cat := storage.NewCatalog()
	cat.AddRelation("R", relation.FromRows("R", []string{"a"}, []any{1}, []any{2}))
	o := New(cat)
	p, err := o.scanPlan("R")
	if err != nil || !p.IsLeaf() || p.EstRows != 2 {
		t.Fatalf("scanPlan = %+v, %v", p, err)
	}
	if _, err := o.scanPlan("NOPE"); err == nil {
		t.Error("unknown table must fail")
	}
	if o.CatalogOf() != cat {
		t.Error("CatalogOf broken")
	}
}

// TestOptimizerCorrectness: for random freely-reorderable queries, the
// optimized plan's execution matches the reference algebra evaluation of
// the original expression.
func TestOptimizerCorrectness(t *testing.T) {
	rnd := rand.New(rand.NewSource(55))
	for trial := 0; trial < 120; trial++ {
		g := workload.RandomNiceGraph(rnd, 1+rnd.Intn(3), rnd.Intn(3))
		db := workload.RandomDB(rnd, g, 6)
		its, err := expr.EnumerateITs(g, true)
		if err != nil {
			t.Fatal(err)
		}
		q := its[rnd.Intn(len(its))]
		want, err := q.Eval(db)
		if err != nil {
			t.Fatal(err)
		}
		o := New(catalogFor(db))
		got, _, reordered, err := o.Run(q)
		if err != nil {
			t.Fatalf("trial %d: %v\nq=%s", trial, err, q.StringWithPreds())
		}
		if !reordered {
			t.Fatalf("trial %d: nice query should be reordered", trial)
		}
		if !got.EqualBag(want) {
			t.Fatalf("trial %d: optimizer changed the result\nq=%s", trial, q.StringWithPreds())
		}
	}
}

// TestFixedOrderCorrectness: non-reorderable queries run in the given
// order and still produce the reference result.
func TestFixedOrderCorrectness(t *testing.T) {
	rnd := rand.New(rand.NewSource(56))
	for trial := 0; trial < 80; trial++ {
		db := expr.DB{
			"X": workload.RandomRelation(rnd, "X", 6),
			"Y": workload.RandomRelation(rnd, "Y", 6),
			"Z": workload.RandomRelation(rnd, "Z", 6),
		}
		// Example 2 shape: X -> (Y - Z): not freely reorderable.
		q := expr.NewOuter(expr.NewLeaf("X"),
			expr.NewJoin(expr.NewLeaf("Y"), expr.NewLeaf("Z"), workload.RandomPredicate(rnd, "Y", "Z")),
			workload.RandomPredicate(rnd, "X", "Y"))
		want, err := q.Eval(db)
		if err != nil {
			t.Fatal(err)
		}
		o := New(catalogFor(db))
		got, _, reordered, err := o.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		if reordered {
			t.Fatal("Example 2 query must not be reordered")
		}
		if !got.EqualBag(want) {
			t.Fatalf("trial %d: fixed-order plan wrong\nq=%s", trial, q.StringWithPreds())
		}
	}
}

func TestFixedOrderRightOuterNormalized(t *testing.T) {
	rnd := rand.New(rand.NewSource(57))
	db := expr.DB{
		"X": workload.RandomRelation(rnd, "X", 6),
		"Y": workload.RandomRelation(rnd, "Y", 6),
	}
	q := expr.NewRightOuter(expr.NewLeaf("X"), expr.NewLeaf("Y"), eqp("X", "Y"))
	want, err := q.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	o := New(catalogFor(db))
	p, err := o.PlanFixed(q)
	if err != nil {
		t.Fatal(err)
	}
	if p.Op != expr.LeftOuter || p.Left.Table != "Y" {
		t.Fatalf("RightOuter not normalized: %s", p.Tree())
	}
	got, _, err := o.Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualBag(want) {
		t.Fatal("normalized plan wrong")
	}
}

func TestPlanFixedRejectsOtherOps(t *testing.T) {
	o := New(storage.NewCatalog())
	q := expr.NewAnti(expr.NewLeaf("R"), expr.NewLeaf("S"), eqp("R", "S"))
	if _, err := o.PlanFixed(q); err == nil {
		t.Error("antijoin plans unsupported")
	}
}

// TestExample1PlanChoice reproduces the paper's Example 1 preference:
// with a 1-row R1 and key indexes on R2, R3, the optimizer must pick an
// index-driven left-deep plan starting from R1, and execution must
// retrieve ~3 tuples instead of ~2N.
func TestExample1PlanChoice(t *testing.T) {
	const n = 20000
	rnd := rand.New(rand.NewSource(58))
	cat := storage.NewCatalog()
	r1 := relation.New(relation.SchemeOf("R1", "a", "b"))
	r1.AppendRaw([]relation.Value{relation.Int(7), relation.Int(0)})
	cat.AddRelation("R1", r1)
	cat.AddRelation("R2", workload.UniformRelation(rnd, "R2", n, 1<<40))
	cat.AddRelation("R3", workload.UniformRelation(rnd, "R3", n, 1<<40))
	for _, tn := range []string{"R2", "R3"} {
		tb, _ := cat.Table(tn)
		if _, err := tb.BuildHashIndex("a"); err != nil {
			t.Fatal(err)
		}
	}
	// R1 - (R2 -> R3), equijoining keys.
	q := expr.NewJoin(expr.NewLeaf("R1"),
		expr.NewOuter(expr.NewLeaf("R2"), expr.NewLeaf("R3"), eqp("R2", "R3")),
		eqp("R1", "R2"))
	o := New(cat)
	p, reordered, err := o.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reordered {
		t.Fatal("Example 1 query is freely reorderable")
	}
	out, c, err := o.Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 {
		t.Fatalf("result rows = %d", out.Len())
	}
	if c.TuplesRetrieved() > 10 {
		t.Fatalf("optimized plan retrieved %d tuples (plan:\n%s)", c.TuplesRetrieved(), p.Explain())
	}
	// The join-before-outerjoin association must have been chosen with R1
	// driving.
	if !strings.HasPrefix(p.Tree(), "((R1") {
		t.Errorf("plan tree = %s, want R1-driven left-deep", p.Tree())
	}

	// Baseline: fixed-order plan of the user's tree evaluates R2 -> R3
	// first and must retrieve ~2N tuples.
	fixed, err := o.PlanFixed(q)
	if err != nil {
		t.Fatal(err)
	}
	_, cf, err := o.Execute(fixed)
	if err != nil {
		t.Fatal(err)
	}
	if cf.TuplesRetrieved() < int64(n) {
		t.Errorf("fixed plan retrieved only %d tuples; expected ~2N", cf.TuplesRetrieved())
	}
	if cf.TuplesRetrieved() <= 100*c.TuplesRetrieved() {
		t.Errorf("expected >=100x gap: fixed=%d optimized=%d", cf.TuplesRetrieved(), c.TuplesRetrieved())
	}
}

func TestExplainAndTree(t *testing.T) {
	cat := storage.NewCatalog()
	cat.AddRelation("R", relation.FromRows("R", []string{"a"}, []any{1}))
	cat.AddRelation("S", relation.FromRows("S", []string{"a"}, []any{1}))
	o := New(cat)
	q := expr.NewOuter(expr.NewLeaf("R"), expr.NewLeaf("S"), eqp("R", "S"))
	p, _, err := o.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	ex := p.Explain()
	if !strings.Contains(ex, "leftouterjoin") || !strings.Contains(ex, "scan R") {
		t.Errorf("Explain = %q", ex)
	}
	if p.Tree() != "(R -> S)" {
		t.Errorf("Tree = %q", p.Tree())
	}
	// Round-trip to expression.
	back := p.ToExpr()
	if back.String() != "(R -> S)" {
		t.Errorf("ToExpr = %v", back)
	}
}

func TestOptimizeGraphErrors(t *testing.T) {
	o := New(storage.NewCatalog())
	g := workload.JoinChainGraph(2)
	if _, err := o.OptimizeGraph(g); err == nil {
		t.Error("missing tables must fail")
	}
	rnd := rand.New(rand.NewSource(59))
	db := workload.RandomDB(rnd, g, 3)
	o2 := New(catalogFor(db))
	if _, err := o2.OptimizeGraph(g); err != nil {
		t.Errorf("valid graph failed: %v", err)
	}
}

// TestMergeCandidateNotPlanned: the sort-merge join has no operator,
// so no equi-join candidate set offers it and Build rejects it.
func TestMergeCandidateNotPlanned(t *testing.T) {
	rnd := rand.New(rand.NewSource(61))
	db := expr.DB{
		"A": workload.RandomRelation(rnd, "A", 20),
		"B": workload.RandomRelation(rnd, "B", 20),
	}
	o := New(catalogFor(db))
	l, err := o.scanPlan("A")
	if err != nil {
		t.Fatal(err)
	}
	r, err := o.scanPlan("B")
	if err != nil {
		t.Fatal(err)
	}
	var hash *Plan
	for _, op := range []expr.Op{expr.Join, expr.LeftOuter} {
		sp := expr.Split{Op: op, Pred: eqp("A", "B"), S1Preserved: true}
		for _, cand := range o.fixedJoinPlans(sp, l, r) {
			switch cand.Algo {
			case AlgoMerge:
				t.Fatalf("%s offers a sort-merge candidate", op)
			case AlgoHash:
				hash = cand
			}
		}
	}
	merge := *hash
	merge.Algo = AlgoMerge
	if _, err := o.Build(&merge, nil); err == nil {
		t.Error("Build must reject a sort-merge plan")
	}
}

// TestLeftDeepOnly: the restricted search still finds correct plans
// (every right operand a base table) and never beats the bushy optimum.
func TestLeftDeepOnly(t *testing.T) {
	rnd := rand.New(rand.NewSource(62))
	for trial := 0; trial < 60; trial++ {
		g := workload.RandomNiceGraph(rnd, 1+rnd.Intn(4), rnd.Intn(3))
		db := workload.RandomDB(rnd, g, 6)
		bushy := New(catalogFor(db))
		leftDeep := New(catalogFor(db))
		leftDeep.LeftDeepOnly = true

		pb, err := bushy.OptimizeGraph(g)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := leftDeep.OptimizeGraph(g)
		if err != nil {
			t.Fatalf("trial %d: left-deep plan must exist for nice graphs: %v\n%v", trial, err, g)
		}
		if pl.Cost < pb.Cost {
			t.Fatalf("trial %d: left-deep cost %v beats bushy %v", trial, pl.Cost, pb.Cost)
		}
		assertLeftDeep(t, pl)
		// Both compute the same result.
		rb, _, err := bushy.Execute(pb)
		if err != nil {
			t.Fatal(err)
		}
		rl, _, err := leftDeep.Execute(pl)
		if err != nil {
			t.Fatal(err)
		}
		if !rb.EqualBag(rl) {
			t.Fatalf("trial %d: left-deep result differs", trial)
		}
	}
}

func assertLeftDeep(t *testing.T, p *Plan) {
	t.Helper()
	if p.IsLeaf() || p.Op == expr.Restrict {
		return
	}
	if !singleTable(p.Right) {
		t.Fatalf("plan not left-deep: %s", p.Tree())
	}
	assertLeftDeep(t, p.Left)
}

func TestAlgoString(t *testing.T) {
	for a, want := range map[Algo]string{AlgoScan: "scan", AlgoHash: "hash", AlgoIndex: "index", AlgoNL: "nestedloop", AlgoMerge: "sortmerge"} {
		if a.String() != want {
			t.Errorf("algo %d renders %q", a, a.String())
		}
	}
	if Algo(9).String() == "" {
		t.Error("unknown algo rendering")
	}
}

// TestOptimizerUsesCheapAlgorithms: on a pure join with indexes the DP
// should not pick nested loops.
func TestOptimizerPrefersIndexOrHash(t *testing.T) {
	rnd := rand.New(rand.NewSource(60))
	cat := storage.NewCatalog()
	cat.AddRelation("A", workload.UniformRelation(rnd, "A", 1000, 100))
	cat.AddRelation("B", workload.UniformRelation(rnd, "B", 1000, 100))
	tb, _ := cat.Table("B")
	if _, err := tb.BuildHashIndex("a"); err != nil {
		t.Fatal(err)
	}
	o := New(cat)
	q := expr.NewJoin(expr.NewLeaf("A"), expr.NewLeaf("B"), eqp("A", "B"))
	p, _, err := o.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if p.Algo == AlgoNL {
		t.Errorf("DP picked nested loops:\n%s", p.Explain())
	}
	var c exec.Counters
	it, err := o.Build(p, &c)
	if err != nil {
		t.Fatal(err)
	}
	out, err := exec.Collect(it, &c)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1000 {
		t.Errorf("key-key join rows = %d", out.Len())
	}
}
