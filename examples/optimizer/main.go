// Optimizer: the paper's Example 1 at scale. The freely-reorderable
// query R1 —[key] R2 →[key] R3 has two associations; with 1 row in R1,
// N rows in R2 and R3, and key indexes, the order determines whether the
// engine touches 3 tuples or ~2N+1.
package main

import (
	"flag"
	"fmt"
	"log"
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

func main() {
	n := flag.Int("n", 500000, "rows in R2 and R3")
	flag.Parse()

	rnd := rand.New(rand.NewSource(1))
	cat := storage.NewCatalog()
	r1 := relation.New(relation.SchemeOf("R1", "a", "b"))
	r1.AppendRaw([]relation.Value{relation.Int(int64(*n / 2)), relation.Int(0)})
	cat.AddRelation("R1", r1)
	cat.AddRelation("R2", workload.UniformRelation(rnd, "R2", *n, 1<<40))
	cat.AddRelation("R3", workload.UniformRelation(rnd, "R3", *n, 1<<40))
	for _, t := range []string{"R2", "R3"} {
		tb, err := cat.Table(t)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := tb.BuildHashIndex("a"); err != nil {
			log.Fatal(err)
		}
	}

	key := func(u, v string) predicate.Predicate {
		return predicate.Eq(relation.A(u, "a"), relation.A(v, "a"))
	}
	// The user writes the expensive association: R1 - (R2 -> R3).
	q := expr.NewJoin(expr.NewLeaf("R1"),
		expr.NewOuter(expr.NewLeaf("R2"), expr.NewLeaf("R3"), key("R2", "R3")),
		key("R1", "R2"))
	fmt.Printf("user query: %s   (N = %d)\n\n", q, *n)

	o := optimizer.New(cat)

	show := func(label string, p *optimizer.Plan) {
		start := time.Now()
		var c exec.Counters
		it, err := o.Build(p, &c)
		if err != nil {
			log.Fatal(err)
		}
		out, err := exec.CollectCtx(nil, it, &c)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s %-22s rows=%d  tuples=%-9d time=%s\n",
			label, p.Tree(), out.Len(), c.TuplesRetrieved(), time.Since(start).Round(time.Microsecond))
	}

	fixed, err := o.PlanFixed(q)
	if err != nil {
		log.Fatal(err)
	}
	show("as written (fixed order):", fixed)

	opt, tr, err := o.PlanQueryTrace(q)
	if err != nil {
		log.Fatal(err)
	}
	if !tr.Reordered() {
		log.Fatal("query should be freely reorderable")
	}
	show("after free reordering:", opt)

	fmt.Printf("\nchosen plan:\n%s", opt.Explain())
	fmt.Println("paper's Example 1: the bad order retrieves 2N+1 tuples, the good one 3.")
}
