package main

import (
	"fmt"
	"math/rand"
	"time"

	"freejoin/internal/exec"
	"freejoin/internal/expr"
	"freejoin/internal/optimizer"
	"freejoin/internal/predicate"
	"freejoin/internal/relation"
	"freejoin/internal/storage"
	"freejoin/internal/workload"
)

func init() {
	register("E1", "Example 1 — reordering cuts tuples retrieved from ~2N+1 to 3", runE1)
	register("E2", "Example 1 follow-up — outerjoin-first wins under a non-selective join", runE2)
	register("E15", "Optimizer value — DP reordering vs fixed order on chain workloads", runE15)
	register("E16", "Plan-space size — implementing trees per topology", runE16)
}

// example1Catalog builds R1 (1 row), R2, R3 (n rows, key column "a"
// indexed) with R1.a matching one R2 key and R2.a = R3.a keys.
func example1Catalog(n int) *storage.Catalog {
	rnd := rand.New(rand.NewSource(1))
	cat := storage.NewCatalog()
	r1 := relation.New(relation.SchemeOf("R1", "a", "b"))
	r1.AppendRaw([]relation.Value{relation.Int(int64(n / 2)), relation.Int(0)})
	cat.AddRelation("R1", r1)
	cat.AddRelation("R2", workload.UniformRelation(rnd, "R2", n, 1<<40))
	cat.AddRelation("R3", workload.UniformRelation(rnd, "R3", n, 1<<40))
	for _, t := range []string{"R2", "R3"} {
		tb, _ := cat.Table(t)
		if _, err := tb.BuildHashIndex("a"); err != nil {
			panic(err)
		}
	}
	return cat
}

func eqKey(u, v string) predicate.Predicate {
	return predicate.Eq(relation.A(u, "a"), relation.A(v, "a"))
}

func runPlan(o *optimizer.Optimizer, p *optimizer.Plan) (rows int, retrieved int64, d time.Duration, err error) {
	start := time.Now()
	var c exec.Counters
	it, err := o.Build(p, &c)
	if err != nil {
		return 0, 0, 0, err
	}
	out, err := exec.CollectCtx(nil, it, &c)
	if err != nil {
		return 0, 0, 0, err
	}
	return out.Len(), c.TuplesRetrieved(), time.Since(start), nil
}

func runE1(cfg config) error {
	n := cfg.n
	cat := example1Catalog(n)
	o := optimizer.New(cat)

	// The paper's two associations of the freely reorderable query
	// R1 —[key] R2 →[key] R3.
	outerFirst := expr.NewJoin(expr.NewLeaf("R1"),
		expr.NewOuter(expr.NewLeaf("R2"), expr.NewLeaf("R3"), eqKey("R2", "R3")),
		eqKey("R1", "R2"))
	joinFirst := expr.NewOuter(
		expr.NewJoin(expr.NewLeaf("R1"), expr.NewLeaf("R2"), eqKey("R1", "R2")),
		expr.NewLeaf("R3"), eqKey("R2", "R3"))

	fmt.Printf("N = %d rows in R2 and R3; R1 has 1 row; key indexes on R2.a, R3.a\n\n", n)
	fmt.Printf("%-34s %12s %12s %12s\n", "plan", "rows", "tuples", "time")

	for _, tc := range []struct {
		name string
		q    *expr.Node
	}{
		{"fixed: R1 - (R2 -> R3)  [paper bad]", outerFirst},
		{"fixed: (R1 - R2) -> R3  [paper good]", joinFirst},
	} {
		p, err := o.PlanFixed(tc.q)
		if err != nil {
			return err
		}
		rows, got, d, err := runPlan(o, p)
		if err != nil {
			return err
		}
		fmt.Printf("%-34s %12d %12d %12s\n", tc.name, rows, got, d.Round(time.Microsecond))
	}

	p, tr, err := o.PlanQueryTrace(outerFirst)
	if err != nil {
		return err
	}
	rows, got, d, err := runPlan(o, p)
	if err != nil {
		return err
	}
	fmt.Printf("%-34s %12d %12d %12s\n", "optimizer (DP over the graph)", rows, got, d.Round(time.Microsecond))
	fmt.Printf("\nreordered=%v, chosen plan: %s\n", tr.Reordered(), p.Tree())

	_, _, text, err := o.ExplainAnalyze(nil, p, tr, nil)
	if err != nil {
		return err
	}
	fmt.Printf("\nper-operator breakdown (EXPLAIN ANALYZE of the chosen plan):\n%s", text)
	fmt.Printf("\npaper: bad order retrieves 2N+1, good order 3 (shape check, scaled N)\n")
	return nil
}

func runE2(cfg config) error {
	// Same reorderable shape, but the join predicate R1.b > R2.b is not
	// selective while the outerjoin predicate stays a key equijoin.
	// Sweeping the fraction of R2 rows passing the join shows the
	// crossover: when the join output explodes, doing the outerjoin first
	// becomes the better order — the paper's point that join-first is not
	// universally optimal.
	n := cfg.n / 10
	if n < 1000 {
		n = 1000
	}
	const r1Rows = 100
	fmt.Printf("N = %d, |R1| = %d; join predicate R1.b > R2.b with varying selectivity; outerjoin on keys\n", n, r1Rows)
	fmt.Printf("(intermediate = rows the second operator consumes)\n\n")
	fmt.Printf("%10s %15s %15s %12s %12s %12s\n",
		"join sel", "joinFirst mid", "outerFirst mid", "jf time", "of time", "winner")
	for _, selPerMille := range []int{1, 5, 10, 50, 250, 1000} {
		rnd := rand.New(rand.NewSource(2))
		cat := storage.NewCatalog()
		r1 := relation.New(relation.SchemeOf("R1", "a", "b"))
		// r1Rows driving rows whose b admits selPerMille/1000 of R2: the
		// join output is |R1|·|R2|·sel, so a non-selective predicate
		// multiplies the work the later outerjoin must do.
		for i := 0; i < r1Rows; i++ {
			r1.AppendRaw([]relation.Value{relation.Int(int64(i)), relation.Int(int64(selPerMille))})
		}
		cat.AddRelation("R1", r1)
		r2 := relation.New(relation.SchemeOf("R2", "a", "b"))
		for i := 0; i < n; i++ {
			r2.AppendRaw([]relation.Value{relation.Int(int64(i)), relation.Int(rnd.Int63n(1000))})
		}
		cat.AddRelation("R2", r2)
		cat.AddRelation("R3", workload.UniformRelation(rnd, "R3", n, 1<<40))
		for _, t := range []string{"R2", "R3"} {
			tb, _ := cat.Table(t)
			if _, err := tb.BuildHashIndex("a"); err != nil {
				return err
			}
		}
		o := optimizer.New(cat)
		gt := predicate.Cmp(predicate.GtOp,
			predicate.Col(relation.A("R1", "b")), predicate.Col(relation.A("R2", "b")))

		joinFirst := expr.NewOuter(
			expr.NewJoin(expr.NewLeaf("R1"), expr.NewLeaf("R2"), gt),
			expr.NewLeaf("R3"), eqKey("R2", "R3"))
		outerFirst := expr.NewJoin(expr.NewLeaf("R1"),
			expr.NewOuter(expr.NewLeaf("R2"), expr.NewLeaf("R3"), eqKey("R2", "R3")),
			gt)

		// The discriminating quantity is the size of the intermediate
		// result the second operator must consume.
		interJoin, err := joinFirst.Left.Eval(cat)
		if err != nil {
			return err
		}
		interOuter, err := outerFirst.Right.Eval(cat)
		if err != nil {
			return err
		}
		pj, err := o.PlanFixed(joinFirst)
		if err != nil {
			return err
		}
		_, _, dj, err := runPlan(o, pj)
		if err != nil {
			return err
		}
		po, err := o.PlanFixed(outerFirst)
		if err != nil {
			return err
		}
		_, _, do, err := runPlan(o, po)
		if err != nil {
			return err
		}
		winner := "join first"
		if do < dj {
			winner = "outer first"
		}
		fmt.Printf("%8.1f%% %15d %15d %12s %12s %12s\n", float64(selPerMille)/10,
			interJoin.Len(), interOuter.Len(),
			dj.Round(time.Microsecond), do.Round(time.Microsecond), winner)
	}
	fmt.Println("\npaper: \"the optimal strategy in this case is to do the outerjoin first\"")
	return nil
}

func runE15(cfg config) error {
	// Chains: join core of k relations with an outerjoin tail, tables of
	// decreasing size so that order matters. Compare the user's
	// right-deep order (fixed) with the DP optimizer.
	fmt.Printf("%8s %22s %22s %8s\n", "chain n", "fixed tuples", "optimized tuples", "gain")
	for _, n := range []int{3, 4, 5, 6} {
		g := workload.CoreWithTreesGraph(n-1, 1)
		rnd := rand.New(rand.NewSource(3))
		cat := storage.NewCatalog()
		// Sizes descending: A biggest ... so the worst order starts big.
		nodes := g.Nodes()
		for i, node := range nodes {
			size := cfg.n / 100
			if size < 100 {
				size = 100
			}
			size = size / (1 << i)
			if size < 10 {
				size = 10
			}
			cat.AddRelation(node, workload.UniformRelation(rnd, node, size, 1<<30))
			tb, _ := cat.Table(node)
			if _, err := tb.BuildHashIndex("a"); err != nil {
				return err
			}
		}
		o := optimizer.New(cat)
		its, err := expr.EnumerateITs(g, true)
		if err != nil {
			return err
		}
		// Fixed plan: the worst-cost IT (a pessimal user ordering).
		var worst *optimizer.Plan
		for _, it := range its {
			p, err := o.PlanFixed(it)
			if err != nil {
				return err
			}
			if worst == nil || p.Cost > worst.Cost {
				worst = p
			}
		}
		_, tf, _, err := runPlan(o, worst)
		if err != nil {
			return err
		}
		opt, tr, err := o.PlanQueryTrace(its[0])
		if err != nil {
			return err
		}
		_, to, _, err := runPlan(o, opt)
		if err != nil {
			return err
		}
		gain := float64(tf) / float64(to)
		fmt.Printf("%8d %22d %22d %7.1fx\n", n, tf, to, gain)
		if n == 6 {
			_, _, text, err := o.ExplainAnalyze(nil, opt, tr, nil)
			if err != nil {
				return err
			}
			fmt.Printf("\nper-operator breakdown of the optimized chain-%d plan:\n%s\n", n, text)
		}
	}
	fmt.Println("\npaper §6.1: freely-reorderable queries need no extra analysis — the DP just fills in join or outerjoin")
	return nil
}

func init() {
	register("E20", "Section 4 pipeline — simplify + pushdown + DP on restricted queries", runE20)
}

func runE20(cfg config) error {
	n := cfg.n / 10
	if n < 1000 {
		n = 1000
	}
	rnd := rand.New(rand.NewSource(4))
	cat := storage.NewCatalog()
	for _, name := range []string{"R", "S", "T"} {
		cat.AddRelation(name, workload.UniformRelation(rnd, name, n, 1<<40))
		tb, _ := cat.Table(name)
		if _, err := tb.BuildHashIndex("a"); err != nil {
			return err
		}
	}
	o := optimizer.New(cat)

	// σ[S.a = k](R -> (S -> T)): the restriction is strong on the
	// null-supplied S, so §4 converts both outerjoins; pushdown then
	// sinks it onto S's scan, and the DP drives the join from the 1-row
	// filtered S.
	q := expr.NewRestrict(
		expr.NewOuter(expr.NewLeaf("R"),
			expr.NewOuter(expr.NewLeaf("S"), expr.NewLeaf("T"), eqKey("S", "T")),
			eqKey("R", "S")),
		predicate.EqConst(relation.A("S", "a"), relation.Int(int64(n/2))))
	fmt.Printf("query: sigma[S.a = %d](R -> (S -> T)),  N = %d per table, key indexes\n\n", n/2, n)

	// A non-§4 planner evaluates the block as written and filters at the
	// end.
	naive, err := o.PlanFixed(q)
	if err != nil {
		return err
	}
	rows, got, d, err := runPlan(o, naive)
	if err != nil {
		return err
	}
	fmt.Printf("%-44s rows=%d tuples=%-9d time=%s\n", "naive (filter atop fixed order):", rows, got, d.Round(time.Microsecond))

	p, tr, err := o.PlanQueryTrace(q)
	if err != nil {
		return err
	}
	rows, got, d, err = runPlan(o, p)
	if err != nil {
		return err
	}
	fmt.Printf("%-44s rows=%d tuples=%-9d time=%s\n",
		fmt.Sprintf("PlanQueryTrace (reordered=%v): %s", tr.Reordered(), p.Tree()), rows, got, d.Round(time.Microsecond))

	_, _, text, err := o.ExplainAnalyze(nil, p, tr, nil)
	if err != nil {
		return err
	}
	fmt.Printf("\nper-operator breakdown of the pipeline plan:\n%s", text)
	fmt.Println("\npaper §4: simplify before graph creation, \"do restrictions as early as possible\"")
	return nil
}

func runE16(cfg config) error {
	fmt.Printf("%-24s %8s %20s %20s\n", "topology", "n", "ITs (mod reversal)", "ITs (full)")
	for n := 2; n <= 10; n++ {
		g := workload.JoinChainGraph(n)
		m, _ := expr.CountITs(g, true)
		f, _ := expr.CountITs(g, false)
		fmt.Printf("%-24s %8d %20d %20d\n", "join chain", n, m, f)
	}
	for n := 2; n <= 8; n++ {
		g := workload.StarGraph(n - 1)
		m, _ := expr.CountITs(g, true)
		f, _ := expr.CountITs(g, false)
		fmt.Printf("%-24s %8d %20d %20d\n", "join star", n, m, f)
	}
	for n := 2; n <= 10; n++ {
		g := workload.OuterChainGraph(n)
		m, _ := expr.CountITs(g, true)
		f, _ := expr.CountITs(g, false)
		fmt.Printf("%-24s %8d %20d %20d\n", "outerjoin chain", n, m, f)
	}
	for n := 4; n <= 10; n += 2 {
		g := workload.CoreWithTreesGraph(n/2, n-n/2)
		m, _ := expr.CountITs(g, true)
		f, _ := expr.CountITs(g, false)
		fmt.Printf("%-24s %8d %20d %20d\n", "core+outer tail", n, m, f)
	}
	return nil
}
