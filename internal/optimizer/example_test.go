package optimizer_test

import (
	"fmt"
	"log"

	"freejoin/internal/exec"
	"freejoin/internal/expr"
	"freejoin/internal/optimizer"
	"freejoin/internal/predicate"
	"freejoin/internal/relation"
	"freejoin/internal/storage"
)

// The §6.1 recipe: a freely-reorderable query gets the full DP treatment
// — the optimizer picks the cheap association regardless of how the user
// wrote the query.
func ExampleOptimizer_PlanQueryTrace() {
	cat := storage.NewCatalog()
	one := relation.New(relation.SchemeOf("R1", "a"))
	one.MustAppend(relation.Int(500))
	cat.AddRelation("R1", one)
	big := func(name string) {
		r := relation.New(relation.SchemeOf(name, "a"))
		for i := 0; i < 1000; i++ {
			r.MustAppend(relation.Int(int64(i)))
		}
		cat.AddRelation(name, r)
		t, _ := cat.Table(name)
		if _, err := t.BuildHashIndex("a"); err != nil {
			log.Fatal(err)
		}
	}
	big("R2")
	big("R3")

	key := func(u, v string) predicate.Predicate {
		return predicate.Eq(relation.A(u, "a"), relation.A(v, "a"))
	}
	// The user writes the expensive association of Example 1.
	q := expr.NewJoin(expr.NewLeaf("R1"),
		expr.NewOuter(expr.NewLeaf("R2"), expr.NewLeaf("R3"), key("R2", "R3")),
		key("R1", "R2"))

	o := optimizer.New(cat)
	plan, tr, err := o.PlanQueryTrace(q)
	if err != nil {
		log.Fatal(err)
	}
	var counters exec.Counters
	it, err := o.Build(plan, &counters)
	if err != nil {
		log.Fatal(err)
	}
	out, err := exec.CollectCtx(nil, it, &counters)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("reordered:", tr.Reordered())
	fmt.Println("plan:", plan.Tree())
	fmt.Println("rows:", out.Len(), "tuples retrieved:", counters.TuplesRetrieved())
	// Output:
	// reordered: true
	// plan: ((R1 - R2) -> R3)
	// rows: 1 tuples retrieved: 3
}
