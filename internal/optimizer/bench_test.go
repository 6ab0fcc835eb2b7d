package optimizer

import (
	"fmt"
	"math/rand"
	"testing"

	"freejoin/internal/expr"
	"freejoin/internal/plancache"
	"freejoin/internal/storage"
	"freejoin/internal/workload"
)

// The planner benchmarks time the graph planner itself — the DP, or the
// plan-cache lookup in front of it — without the §4 simplification,
// pushdown and analysis that PlanQueryTrace runs first. The hit-query
// case of BenchmarkPlanCacheHit adds that served-path front end back.

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
		o := New(cat)
		b.Run(fmt.Sprintf("dp-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := o.optimizeGraphCached(g, nil, nil); err != nil {
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
// carry its weight in a prepared-query pipeline. hit-query is the same
// hit as the served path pays it, through PlanQueryTrace.
func BenchmarkPlanCacheHit(b *testing.B) {
	rnd := rand.New(rand.NewSource(15))
	g := workload.CoreWithTreesGraph(4, 3)
	cat := storage.NewCatalog()
	for _, node := range g.Nodes() {
		cat.AddRelation(node, workload.UniformRelation(rnd, node, 500, 100))
	}
	b.Run("cold", func(b *testing.B) {
		o := New(cat)
		for i := 0; i < b.N; i++ {
			if _, err := o.optimizeGraphCached(g, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		o := New(cat)
		o.Cache = plancache.New(16)
		if _, err := o.optimizeGraphCached(g, nil, nil); err != nil { // populate
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := o.optimizeGraphCached(g, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hit-query", func(b *testing.B) {
		its, err := expr.EnumerateITs(g, true)
		if err != nil {
			b.Fatal(err)
		}
		o := New(cat)
		o.Cache = plancache.New(16)
		if _, _, err := o.PlanQueryTrace(its[0]); err != nil { // populate
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, tr, err := o.PlanQueryTrace(its[0]); err != nil || tr.CacheOutcome != "hit" {
				b.Fatalf("cache outcome %q, err %v", tr.CacheOutcome, err)
			}
		}
	})
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
			o := New(cat)
			o.LeftDeepOnly = leftDeep
			var cost float64
			for i := 0; i < b.N; i++ {
				p, err := o.optimizeGraphCached(g, nil, nil)
				if err != nil {
					b.Fatal(err)
				}
				cost = p.Cost
			}
			b.ReportMetric(cost, "plancost")
		})
	}
}
