package main

import (
	"fmt"
	"math/rand"
	"time"

	"freejoin/internal/core"
	"freejoin/internal/expr"
	"freejoin/internal/graph"
	"freejoin/internal/optimizer"
	"freejoin/internal/predicate"
	"freejoin/internal/relation"
	"freejoin/internal/storage"
	"freejoin/internal/workload"
)

// newExample2Catalog builds the 1-row X / N-row Y, Z catalog with key
// indexes used by E19.
func newExample2Catalog(rnd *rand.Rand, n int) *storage.Catalog {
	cat := storage.NewCatalog()
	x := relation.New(relation.SchemeOf("X", "a", "b"))
	x.AppendRaw([]relation.Value{relation.Int(int64(n / 2)), relation.Int(0)})
	cat.AddRelation("X", x)
	cat.AddRelation("Y", workload.UniformRelation(rnd, "Y", n, 1<<40))
	cat.AddRelation("Z", workload.UniformRelation(rnd, "Z", n, 1<<40))
	for _, tn := range []string{"Y", "Z"} {
		tb, _ := cat.Table(tn)
		if _, err := tb.BuildHashIndex("a"); err != nil {
			panic(err)
		}
	}
	return cat
}

func init() {
	register("E17", "Section 6.3 (implemented) — join/semijoin reorderability and its forbidden subgraphs", runE17)
	register("E18", "Section 6.3 (implemented) — tree-level conditions match graph niceness", runE18)
	register("E19", "Section 6.2 — GOJ reassociation of Example 2 vs its fixed order", runE19)
}

func runE17(cfg config) error {
	rnd := rand.New(rand.NewSource(cfg.seed + 7))

	// Positive: random graphs satisfying the extended conditions.
	graphs, trees := 0, 0
	for trial := 0; trial < cfg.trials; trial++ {
		g := workload.RandomSemiGraph(rnd, 1+rnd.Intn(3), rnd.Intn(2), 1+rnd.Intn(2))
		if n, err := expr.CountITs(g, false); err != nil || n > 2048 {
			continue
		}
		db := workload.RandomDB(rnd, g, 5)
		res, err := core.Verify(g, db)
		if err != nil {
			return err
		}
		if !res.AllEqual {
			return fmt.Errorf("EXTENSION VIOLATION on\n%v", g)
		}
		graphs++
		trees += res.ITCount
	}
	fmt.Printf("positive: %d random nice-with-semijoin graphs / %d implementing trees — all valid and equal\n",
		graphs, trees)

	// Negative: the three forbidden patterns.
	eq := func(u, v string) predicate.Predicate {
		return predicate.Eq(relation.A(u, "a"), relation.A(v, "a"))
	}
	series := graph.New()
	_ = series.AddSemiEdge("A", "B", eq("A", "B"))
	_ = series.AddSemiEdge("B", "C", eq("B", "C"))
	db := workload.RandomDB(rnd, series, 4)
	res, err := core.Verify(series, db)
	if err != nil {
		return err
	}
	fmt.Printf("\nsemijoin edges in series (A ~> B ~> C): invalid tree %s\n  (%v)\n",
		res.InvalidTree, res.InvalidErr)

	nullSrc := graph.New()
	_ = nullSrc.AddOuterEdge("X", "Y", eq("X", "Y"))
	_ = nullSrc.AddSemiEdge("Y", "Z", eq("Y", "Z"))
	for trial := 0; ; trial++ {
		if trial > 2000 {
			return fmt.Errorf("no counterexample for null-supplied semijoin source")
		}
		db := workload.RandomDB(rnd, nullSrc, 4)
		res, err := core.Verify(nullSrc, db)
		if err != nil {
			return err
		}
		if !res.AllEqual && res.InvalidTree == nil {
			fmt.Printf("null-supplied semijoin source (X -> Y ~> Z): %s and %s disagree (%d vs %d rows)\n",
				res.WitnessA, res.WitnessB, res.ResultA.Len(), res.ResultB.Len())
			break
		}
	}

	consumed := graph.New()
	_ = consumed.AddSemiEdge("A", "B", eq("A", "B"))
	_ = consumed.AddJoinEdge("B", "C", eq("B", "C"))
	res, err = core.Verify(consumed, workload.RandomDB(rnd, consumed, 4))
	if err != nil {
		return err
	}
	fmt.Printf("consumed node with a join edge (A ~> B - C): invalid tree %s\n", res.InvalidTree)
	fmt.Println("\npaper §6.3: \"semijoin edges in series appear to be an additional forbidden subgraph\" — confirmed, plus two more patterns")
	return nil
}

func runE18(cfg config) error {
	rnd := rand.New(rand.NewSource(cfg.seed + 8))
	names := []string{"A", "B", "C", "D", "E", "F"}
	agreeNice, agreeNot := 0, 0
	for trial := 0; trial < cfg.trials*50; trial++ {
		n := 2 + rnd.Intn(5)
		q := randomTree(rnd, names[:n])
		g, err := expr.GraphOf(q)
		if err != nil {
			return err
		}
		nice, _ := g.IsNice()
		tree, _ := expr.TreeCondition(q)
		if nice != tree {
			return fmt.Errorf("CONJECTURE VIOLATION on %s", q.StringWithPreds())
		}
		if nice {
			agreeNice++
		} else {
			agreeNot++
		}
	}
	fmt.Printf("checked %d random well-formed trees: graph niceness and the §6.3 tree conditions agree on all (nice: %d, not: %d)\n",
		agreeNice+agreeNot, agreeNice, agreeNot)
	fmt.Println("tree conditions: (1) null-supplied operands contain no regular join;")
	fmt.Println("(2) join predicates never touch null-supplied relations; (3) no double null-supply")
	return nil
}

func runE19(cfg config) error {
	// Example 2's shape X -> (Y - Z): not freely reorderable, so the DP
	// refuses to touch it — but identity 15 rewrites it to
	// (X -> Y) GOJ[sch(X)] Z, letting a 1-row X drive.
	n := cfg.n / 10
	if n < 1000 {
		n = 1000
	}
	rnd := rand.New(rand.NewSource(cfg.seed + 9))
	cat := newExample2Catalog(rnd, n)
	o := optimizer.New(cat)
	q := expr.NewOuter(expr.NewLeaf("X"),
		expr.NewJoin(expr.NewLeaf("Y"), expr.NewLeaf("Z"),
			predicate.Eq(relation.A("Y", "a"), relation.A("Z", "a"))),
		predicate.Eq(relation.A("X", "a"), relation.A("Y", "a")))

	fmt.Printf("query: %s   (|X| = 1, N = %d, key indexes)\n", q, n)
	if ok, reason := core.FreelyReorderable(q); ok {
		return fmt.Errorf("should not be freely reorderable: %s", reason)
	}
	fmt.Println("free reorderability: NO (Example 2 graph) — Theorem 1 cannot help")

	// The planner keeps the written order here. The GOJ plan is the
	// identity 15 rewrite planned as written; which of the two the cost
	// model prefers is compared below, next to what each one costs to run.
	fixed, err := o.PlanFixed(q)
	if err != nil {
		return err
	}
	rw, ok, err := core.GOJReassociate(q, cat)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("identity 15 should apply to %s", q)
	}
	p, err := o.PlanFixed(rw)
	if err != nil {
		return err
	}
	_, tf, df, err := runPlan(o, fixed)
	if err != nil {
		return err
	}
	_, tg, dg, err := runPlan(o, p)
	if err != nil {
		return err
	}
	out, _, text, err := o.ExplainAnalyze(nil, p, nil, nil)
	if err != nil {
		return err
	}
	want, err := q.Eval(cat)
	if err != nil {
		return err
	}
	preferred := "fixed order"
	if p.Cost < fixed.Cost {
		preferred = "GOJ"
	}
	fmt.Printf("\n%-20s %-24s cost=%-8.0f tuples=%-6d time=%s\n", "fixed order:", fixed.Tree(), fixed.Cost, tf, df.Round(time.Microsecond))
	fmt.Printf("%-20s %-24s cost=%-8.0f tuples=%-6d time=%s\n", "GOJ (identity 15):", p.Tree(), p.Cost, tg, dg.Round(time.Microsecond))
	fmt.Printf("cost model prefers: %s\n", preferred)
	fmt.Printf("results equal: %v (%d rows)\n", out.EqualBag(want), out.Len())
	fmt.Printf("\nper-operator breakdown of the GOJ plan:\n%s", text)
	fmt.Println("\npaper §6.2: \"Reassociation for general graphs is still possible using generalized outerjoin\"")
	return nil
}

func randomTree(rnd *rand.Rand, rels []string) *expr.Node {
	if len(rels) == 1 {
		return expr.NewLeaf(rels[0])
	}
	k := 1 + rnd.Intn(len(rels)-1)
	left := randomTree(rnd, rels[:k])
	right := randomTree(rnd, rels[k:])
	p := predicate.Eq(
		relation.A(rels[rnd.Intn(k)], "a"),
		relation.A(rels[k:][rnd.Intn(len(rels)-k)], "a"))
	switch rnd.Intn(3) {
	case 0:
		return expr.NewJoin(left, right, p)
	case 1:
		return expr.NewOuter(left, right, p)
	default:
		return expr.NewRightOuter(left, right, p)
	}
}
