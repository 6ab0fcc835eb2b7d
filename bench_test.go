// Package freejoin's root benchmark harness: one benchmark per
// table/figure-equivalent artifact of the paper (see EXPERIMENTS.md) plus
// ablations for the design decisions called out in DESIGN.md §6.
//
// Run with:
//
//	go test -bench=. -benchmem .
package freejoin

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"freejoin/internal/algebra"
	"freejoin/internal/core"
	"freejoin/internal/entity"
	"freejoin/internal/exec"
	"freejoin/internal/expr"
	"freejoin/internal/graph"
	"freejoin/internal/lang"
	"freejoin/internal/optimizer"
	"freejoin/internal/plancache"
	"freejoin/internal/predicate"
	"freejoin/internal/relation"
	"freejoin/internal/storage"
	"freejoin/internal/workload"
)

func keyPred(u, v string) predicate.Predicate {
	return predicate.Eq(relation.A(u, "a"), relation.A(v, "a"))
}

// example1Catalog builds R1 (1 row), R2 and R3 (n rows, indexed keys).
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

const example1N = 50000

// BenchmarkExample1OuterjoinFirst (E1, paper's bad order): R1 - (R2 -> R3)
// evaluated as written — retrieves ~2N+1 tuples.
func BenchmarkExample1OuterjoinFirst(b *testing.B) {
	cat := example1Catalog(example1N)
	o := optimizer.New(cat)
	q := expr.NewJoin(expr.NewLeaf("R1"),
		expr.NewOuter(expr.NewLeaf("R2"), expr.NewLeaf("R3"), keyPred("R2", "R3")),
		keyPred("R1", "R2"))
	p, err := o.PlanFixed(q)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := o.Execute(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExample1JoinFirst (E1, paper's good order): (R1 - R2) -> R3 —
// retrieves 3 tuples via indexes.
func BenchmarkExample1JoinFirst(b *testing.B) {
	cat := example1Catalog(example1N)
	o := optimizer.New(cat)
	q := expr.NewOuter(
		expr.NewJoin(expr.NewLeaf("R1"), expr.NewLeaf("R2"), keyPred("R1", "R2")),
		expr.NewLeaf("R3"), keyPred("R2", "R3"))
	p, err := o.PlanFixed(q)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := o.Execute(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExample1Optimized (E1): DP over the graph — must match the
// good order's speed, including planning time.
func BenchmarkExample1Optimized(b *testing.B) {
	cat := example1Catalog(example1N)
	o := optimizer.New(cat)
	q := expr.NewJoin(expr.NewLeaf("R1"),
		expr.NewOuter(expr.NewLeaf("R2"), expr.NewLeaf("R3"), keyPred("R2", "R3")),
		keyPred("R1", "R2"))
	if _, _, _, err := o.Run(q); err != nil { // warm the statistics cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := o.Run(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExample1Crossover (E2): both orders of the reorderable query
// with a non-selective theta join — at high selectivity the outerjoin-
// first order wins, at low selectivity join-first does.
func BenchmarkExample1Crossover(b *testing.B) {
	const n, r1Rows = 2000, 100
	for _, selPerMille := range []int{1, 100, 1000} {
		rnd := rand.New(rand.NewSource(2))
		cat := storage.NewCatalog()
		r1 := relation.New(relation.SchemeOf("R1", "a", "b"))
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
				b.Fatal(err)
			}
		}
		o := optimizer.New(cat)
		gt := predicate.Cmp(predicate.GtOp,
			predicate.Col(relation.A("R1", "b")), predicate.Col(relation.A("R2", "b")))
		joinFirst := expr.NewOuter(
			expr.NewJoin(expr.NewLeaf("R1"), expr.NewLeaf("R2"), gt),
			expr.NewLeaf("R3"), keyPred("R2", "R3"))
		outerFirst := expr.NewJoin(expr.NewLeaf("R1"),
			expr.NewOuter(expr.NewLeaf("R2"), expr.NewLeaf("R3"), keyPred("R2", "R3")), gt)
		for _, tc := range []struct {
			name string
			q    *expr.Node
		}{{"joinFirst", joinFirst}, {"outerFirst", outerFirst}} {
			p, err := o.PlanFixed(tc.q)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("sel=%.1f%%/%s", float64(selPerMille)/10, tc.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := o.Execute(p); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkEnumerateITs (E16): materializing the implementing-tree space.
func BenchmarkEnumerateITs(b *testing.B) {
	for _, n := range []int{4, 6, 8} {
		g := workload.JoinChainGraph(n)
		b.Run(fmt.Sprintf("chain-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := expr.EnumerateITs(g, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, k := range []int{3, 5} {
		g := workload.StarGraph(k)
		b.Run(fmt.Sprintf("star-%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := expr.EnumerateITs(g, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCountITs (E16): counting without materializing.
func BenchmarkCountITs(b *testing.B) {
	for _, n := range []int{8, 12, 16} {
		g := workload.JoinChainGraph(n)
		b.Run(fmt.Sprintf("chain-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := expr.CountITs(g, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBTClosure (E11): BFS over basic transforms on a nice graph.
func BenchmarkBTClosure(b *testing.B) {
	g := workload.CoreWithTreesGraph(3, 2)
	its, err := expr.EnumerateITs(g, true)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := expr.Closure(its[0], 100000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerifyTheorem (E10): exhaustive all-ITs evaluation.
func BenchmarkVerifyTheorem(b *testing.B) {
	rnd := rand.New(rand.NewSource(3))
	g := workload.CoreWithTreesGraph(2, 2)
	db := workload.RandomDB(rnd, g, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Verify(g, db)
		if err != nil || !res.AllEqual {
			b.Fatalf("%v %v", res, err)
		}
	}
}

// BenchmarkNiceCheck (E9): the two niceness checkers.
func BenchmarkNiceCheck(b *testing.B) {
	rnd := rand.New(rand.NewSource(4))
	graphs := make([]*graph.Graph, 0, 64)
	for i := 0; i < 64; i++ {
		graphs = append(graphs, workload.RandomConnectedGraph(rnd, 8))
	}
	b.Run("lemma1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			graphs[i%len(graphs)].IsNiceLemma1()
		}
	})
	b.Run("definitional", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			graphs[i%len(graphs)].IsNiceDefinitional()
		}
	})
}

// BenchmarkOptimizerDP (E15): dynamic programming over connected subsets
// vs fixed-order planning.
func BenchmarkOptimizerDP(b *testing.B) {
	rnd := rand.New(rand.NewSource(5))
	for _, n := range []int{4, 6, 8} {
		g := workload.CoreWithTreesGraph(n/2, n-n/2)
		cat := storage.NewCatalog()
		for _, node := range g.Nodes() {
			cat.AddRelation(node, workload.UniformRelation(rnd, node, 500, 100))
		}
		o := optimizer.New(cat)
		b.Run(fmt.Sprintf("dp-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := o.OptimizeGraph(g); err != nil {
					b.Fatal(err)
				}
			}
		})
		its, err := expr.EnumerateITs(g, true)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("fixed-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := o.PlanFixed(its[0]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPlanCacheHit: a warm plan-cache lookup (fingerprint the graph,
// find the resident plan) vs re-running the cold DP for the same query.
// The hit path must beat the cold path by at least 5x for the cache to
// carry its weight in a prepared-query pipeline.
func BenchmarkPlanCacheHit(b *testing.B) {
	rnd := rand.New(rand.NewSource(15))
	g := workload.CoreWithTreesGraph(4, 3)
	cat := storage.NewCatalog()
	for _, node := range g.Nodes() {
		cat.AddRelation(node, workload.UniformRelation(rnd, node, 500, 100))
	}
	b.Run("cold", func(b *testing.B) {
		o := optimizer.New(cat)
		for i := 0; i < b.N; i++ {
			if _, err := o.OptimizeGraph(g); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		o := optimizer.New(cat)
		o.Cache = plancache.New(16)
		if _, err := o.OptimizeGraph(g); err != nil { // populate
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := o.OptimizeGraph(g); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFingerprint: cost of canonicalizing and hashing a query graph
// — the fixed overhead every cache lookup pays.
func BenchmarkFingerprint(b *testing.B) {
	g := workload.CoreWithTreesGraph(4, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fp := plancache.Of(g); fp.Hash == 0 {
			b.Fatal("degenerate fingerprint")
		}
	}
}

// BenchmarkLeftDeepVsBushy: DP planning time and plan cost under the
// classic left-deep restriction vs full bushy search.
func BenchmarkLeftDeepVsBushy(b *testing.B) {
	rnd := rand.New(rand.NewSource(14))
	g := workload.CoreWithTreesGraph(5, 3)
	cat := storage.NewCatalog()
	for i, node := range g.Nodes() {
		cat.AddRelation(node, workload.UniformRelation(rnd, node, 2000/(i+1), 200))
	}
	for _, leftDeep := range []bool{false, true} {
		name := "bushy"
		if leftDeep {
			name = "leftdeep"
		}
		b.Run(name, func(b *testing.B) {
			o := optimizer.New(cat)
			o.LeftDeepOnly = leftDeep
			var cost float64
			for i := 0; i < b.N; i++ {
				p, err := o.OptimizeGraph(g)
				if err != nil {
					b.Fatal(err)
				}
				cost = p.Cost
			}
			b.ReportMetric(cost, "plancost")
		})
	}
}

// BenchmarkJoinAlgorithms (DESIGN.md ablation 2): the physical join
// algorithms on the same equijoin.
func BenchmarkJoinAlgorithms(b *testing.B) {
	const n = 20000
	rnd := rand.New(rand.NewSource(6))
	lrel := workload.UniformRelation(rnd, "L", n, int64(n))
	rrel := workload.UniformRelation(rnd, "R", n, int64(n))
	lt := storage.NewTable("L", lrel)
	rt := storage.NewTable("R", rrel)
	if _, err := rt.BuildHashIndex("a"); err != nil {
		b.Fatal(err)
	}
	la, ra := relation.A("L", "a"), relation.A("R", "a")

	b.Run("hash", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hj, err := exec.NewBatchHashJoin(exec.NewBatchScan(lt, nil, 0), exec.NewBatchScan(rt, nil, 0),
				[]relation.Attr{la}, []relation.Attr{ra}, nil, exec.InnerMode, 0)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := exec.Collect(hj, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("index", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ij, err := exec.NewBatchIndexJoin(exec.NewBatchScan(lt, nil, 0), rt, "a", la, nil, exec.InnerMode, nil, 0)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := exec.Collect(ij, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("nestedloop-1k", func(b *testing.B) {
		small := workload.UniformRelation(rand.New(rand.NewSource(7)), "L", 1000, 1000)
		st := storage.NewTable("L", small)
		smallR := workload.UniformRelation(rand.New(rand.NewSource(8)), "R", 1000, 1000)
		srt := storage.NewTable("R", smallR)
		p := predicate.Eq(la, ra)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			nl, err := exec.NewBatchNestedLoopJoin(exec.NewBatchScan(st, nil, 0), exec.NewBatchScan(srt, nil, 0), p, exec.InnerMode, 0)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := exec.Collect(nl, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTupleRepresentation (DESIGN.md ablation 1): positional rows
// (the library's representation) vs map-based tuples for a restrict-and-
// project loop.
func BenchmarkTupleRepresentation(b *testing.B) {
	const n = 50000
	rnd := rand.New(rand.NewSource(9))
	rel := workload.UniformRelation(rnd, "R", n, 100)
	attr := relation.A("R", "b")
	b.Run("positional", func(b *testing.B) {
		pos := rel.Scheme().IndexOf(attr)
		for i := 0; i < b.N; i++ {
			count := 0
			for r := 0; r < rel.Len(); r++ {
				if v := rel.RawRow(r)[pos]; !v.IsNull() && v.AsInt() < 50 {
					count++
				}
			}
			if count == 0 {
				b.Fatal("empty")
			}
		}
	})
	b.Run("map", func(b *testing.B) {
		// Simulate the rejected design: a map per tuple.
		maps := make([]map[relation.Attr]relation.Value, rel.Len())
		for r := 0; r < rel.Len(); r++ {
			m := make(map[relation.Attr]relation.Value, rel.Scheme().Len())
			for c := 0; c < rel.Scheme().Len(); c++ {
				m[rel.Scheme().At(c)] = rel.RawRow(r)[c]
			}
			maps[r] = m
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			count := 0
			for _, m := range maps {
				if v := m[attr]; !v.IsNull() && v.AsInt() < 50 {
					count++
				}
			}
			if count == 0 {
				b.Fatal("empty")
			}
		}
	})
}

// BenchmarkSimplify (E12): the §4 rewrite on a deep outerjoin chain.
func BenchmarkSimplify(b *testing.B) {
	inner := expr.NewOuter(expr.NewLeaf("S"), expr.NewLeaf("T"), keyPred("S", "T"))
	q := expr.NewRestrict(
		expr.NewOuter(expr.NewLeaf("R"), inner, keyPred("R", "S")),
		predicate.EqConst(relation.A("T", "a"), relation.Int(1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, n := core.Simplify(q, core.SimplifyOptions{}); n != 2 {
			b.Fatalf("conversions = %d", n)
		}
	}
}

// BenchmarkIdentity12 (E6): one associativity check on mid-sized inputs,
// via the reference algebra.
func BenchmarkIdentity12(b *testing.B) {
	rnd := rand.New(rand.NewSource(10))
	x := workload.UniformRelation(rnd, "X", 2000, 500)
	y := workload.UniformRelation(rnd, "Y", 2000, 500)
	z := workload.UniformRelation(rnd, "Z", 2000, 500)
	pxy, pyz := keyPred("X", "Y"), keyPred("Y", "Z")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		la, err := algebra.LeftOuterJoin(x, y, pxy)
		if err != nil {
			b.Fatal(err)
		}
		l, err := algebra.LeftOuterJoin(la, z, pyz)
		if err != nil {
			b.Fatal(err)
		}
		ra, err := algebra.LeftOuterJoin(y, z, pyz)
		if err != nil {
			b.Fatal(err)
		}
		r, err := algebra.LeftOuterJoin(x, ra, pxy)
		if err != nil {
			b.Fatal(err)
		}
		if !l.EqualBag(r) {
			b.Fatal("identity 12 violated")
		}
	}
}

// BenchmarkGOJ (E14): the generalized outerjoin operator.
func BenchmarkGOJ(b *testing.B) {
	rnd := rand.New(rand.NewSource(11))
	x := workload.UniformRelation(rnd, "X", 5000, 1000)
	y := workload.UniformRelation(rnd, "Y", 5000, 1000)
	p := keyPred("X", "Y")
	s := x.Scheme().Attrs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := algebra.GeneralizedOuterJoin(x, y, p, s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGOJPlan (E19): Example 2's non-reorderable query, fixed order
// vs the §6.2 GOJ-reassociated plan.
func BenchmarkGOJPlan(b *testing.B) {
	const n = 20000
	rnd := rand.New(rand.NewSource(12))
	cat := storage.NewCatalog()
	x := relation.New(relation.SchemeOf("X", "a", "b"))
	x.AppendRaw([]relation.Value{relation.Int(n / 2), relation.Int(0)})
	cat.AddRelation("X", x)
	cat.AddRelation("Y", workload.UniformRelation(rnd, "Y", n, 1<<40))
	cat.AddRelation("Z", workload.UniformRelation(rnd, "Z", n, 1<<40))
	for _, tn := range []string{"Y", "Z"} {
		tb, _ := cat.Table(tn)
		if _, err := tb.BuildHashIndex("a"); err != nil {
			b.Fatal(err)
		}
	}
	o := optimizer.New(cat)
	q := expr.NewOuter(expr.NewLeaf("X"),
		expr.NewJoin(expr.NewLeaf("Y"), expr.NewLeaf("Z"), keyPred("Y", "Z")),
		keyPred("X", "Y"))
	fixed, err := o.PlanFixed(q)
	if err != nil {
		b.Fatal(err)
	}
	gp, strategy, err := o.OptimizeWithGOJ(q)
	if err != nil || strategy != "goj" {
		b.Fatalf("strategy %q err %v", strategy, err)
	}
	b.Run("fixed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := o.Execute(fixed); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("goj", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := o.Execute(gp); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkLangTranslate (E13): parse + translate + reorderability check
// of the §5 prosecutor query.
func BenchmarkLangTranslate(b *testing.B) {
	store := entity.NewStore()
	mustDef := func(d entity.TypeDef) {
		if err := store.Define(d); err != nil {
			b.Fatal(err)
		}
	}
	mustDef(entity.TypeDef{Name: "EMPLOYEE", Scalars: []string{"Name", "D#", "Rank"}, Sets: []string{"ChildName"}})
	mustDef(entity.TypeDef{Name: "REPORT", Scalars: []string{"Title"}})
	mustDef(entity.TypeDef{Name: "DEPARTMENT", Scalars: []string{"D#", "Location"},
		Refs: map[string]string{"Manager": "EMPLOYEE", "Audit": "REPORT"}})
	for i := 0; i < 200; i++ {
		oid, err := store.New("EMPLOYEE", map[string]relation.Value{
			"Name": relation.Str(fmt.Sprintf("e%d", i)),
			"D#":   relation.Int(int64(i % 20)), "Rank": relation.Int(int64(i % 15))})
		if err != nil {
			b.Fatal(err)
		}
		if i%3 == 0 {
			if err := store.AddToSet(oid, "ChildName", relation.Str("kid")); err != nil {
				b.Fatal(err)
			}
		}
	}
	for i := 0; i < 20; i++ {
		if _, err := store.New("DEPARTMENT", map[string]relation.Value{
			"D#": relation.Int(int64(i)), "Location": relation.Str("Zurich")}); err != nil {
			b.Fatal(err)
		}
	}
	src := `Select All From EMPLOYEE*ChildName, DEPARTMENT-->Manager-->Audit
		Where EMPLOYEE.D# = DEPARTMENT.D# and DEPARTMENT.Location = 'Zurich' and EMPLOYEE.Rank > 10`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, err := lang.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		tr, err := lang.Translate(store, q)
		if err != nil {
			b.Fatal(err)
		}
		if !tr.Analysis.Free {
			b.Fatal("block must be free")
		}
	}
}

// BenchmarkGraceHashJoin measures the grace hash join against the
// in-memory build on the same inputs.
func BenchmarkGraceHashJoin(b *testing.B) {
	const n = 10000
	rnd := rand.New(rand.NewSource(33))
	lt := storage.NewTable("L", workload.UniformRelation(rnd, "L", n, int64(n/4)))
	rt := storage.NewTable("R", workload.UniformRelation(rnd, "R", n, int64(n/4)))
	lk := []relation.Attr{relation.A("L", "a")}
	rk := []relation.Attr{relation.A("R", "a")}
	for _, bc := range []struct {
		name  string
		bytes int64
	}{
		{"in-memory", 0},
		{"grace-64KB", 64 << 10},
		{"grace-8KB", 8 << 10},
	} {
		b.Run(bc.name, func(b *testing.B) {
			dir := b.TempDir()
			for i := 0; i < b.N; i++ {
				h, err := exec.NewBatchHashJoin(exec.NewBatchScan(lt, nil, 0), exec.NewBatchScan(rt, nil, 0), lk, rk, nil, exec.InnerMode, 0)
				if err != nil {
					b.Fatal(err)
				}
				var ec *exec.ExecContext
				if bc.bytes > 0 {
					ec = exec.NewExecContext(context.Background(), exec.NewGovernor(0, bc.bytes))
					ec.EnableSpill(exec.SpillConfig{Dir: dir})
				}
				if _, err := exec.CollectCtx(ec, h, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkYannakakisDangling pits the Yannakakis full reducer against
// the classic DP plan on the fast path's home turf: a join chain
// A - B - C where 90% of every relation is dead weight that no complete
// result can use, but which no single join can see. A and B share a hot
// key absent from C; B and C share another hot key absent from A — so
// EVERY join order's first join explodes to ~10^6 rows before the third
// relation kills them all. The full reducer deletes both hot groups
// with O(input) semijoin passes and joins only the 10% that survives.
func BenchmarkYannakakisDangling(b *testing.B) {
	const (
		hot      = 1000 // rows per hot group
		backbone = 400  // joinable rows per relation (1:1 across the chain)
		hotAB    = int64(5_000_001)
		hotBC    = int64(5_000_002)
	)
	rnd := rand.New(rand.NewSource(31))
	g := workload.JoinChainGraph(3)
	cat := storage.NewCatalog()
	for i, node := range g.Nodes() {
		r := relation.New(relation.SchemeOf(node, "a", "b"))
		add := func(key int64, count int) {
			for j := 0; j < count; j++ {
				r.AppendRaw([]relation.Value{relation.Int(key), relation.Int(rnd.Int63n(1 << 20))})
			}
		}
		switch node {
		case "A":
			add(hotAB, hot)
		case "B":
			add(hotAB, hot)
			add(hotBC, hot)
		case "C":
			add(hotBC, hot)
		}
		for j := 0; j < backbone; j++ {
			add(int64(j*10), 1) // shared across all three relations
		}
		// Pad to 4000 rows with per-relation unique keys; with the hot
		// groups (dead past their one edge) that is ~90% dangling.
		offset := int64(100_000 * (i + 1))
		for r.Len() < 4000 {
			add(offset+int64(r.Len()), 1)
		}
		cat.AddRelation(node, r)
	}
	for _, strat := range []string{"dp", "yannakakis"} {
		o := optimizer.New(cat)
		o.Strategy = strat
		p, err := o.OptimizeGraph(g)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(strat, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := o.Execute(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
