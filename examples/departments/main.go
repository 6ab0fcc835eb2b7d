// Departments: the paper's motivating workload — "when we want a listing
// of departments and their employees, we often want to see all
// departments, even those without employees". The outerjoin expresses it
// directly, the analysis proves the query block reorderable, and the
// optimizer picks the cheap order.
package main

import (
	"fmt"
	"log"

	"freejoin/internal/core"
	"freejoin/internal/exec"
	"freejoin/internal/expr"
	"freejoin/internal/optimizer"
	"freejoin/internal/predicate"
	"freejoin/internal/relation"
	"freejoin/internal/storage"
)

func main() {
	cat := storage.NewCatalog()
	cat.AddRelation("Dept", relation.FromRows("Dept", []string{"dno", "name"},
		[]any{1, "Engineering"},
		[]any{2, "Sales"},
		[]any{3, "Archives"}, // no employees: must still appear
	))
	cat.AddRelation("Emp", relation.FromRows("Emp", []string{"dno", "name", "badge"},
		[]any{1, "ada", 7001},
		[]any{1, "bob", 7002},
		[]any{2, "eve", 7003},
	))
	cat.AddRelation("Badge", relation.FromRows("Badge", []string{"badge", "issued"},
		[]any{7001, "2019"},
		[]any{7003, "2022"}, // bob's badge record is missing
	))
	for _, t := range []string{"Emp", "Badge"} {
		tb, err := cat.Table(t)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := tb.BuildHashIndex("badge"); err != nil {
			log.Fatal(err)
		}
	}

	// Dept -> Emp -> Badge: all departments, employees if any, badge
	// records if any — an outerjoin chain, freely reorderable.
	q := expr.NewOuter(
		expr.NewOuter(expr.NewLeaf("Dept"), expr.NewLeaf("Emp"),
			predicate.Eq(relation.A("Dept", "dno"), relation.A("Emp", "dno"))),
		expr.NewLeaf("Badge"),
		predicate.Eq(relation.A("Emp", "badge"), relation.A("Badge", "badge")))

	fmt.Println("query:", q)
	if ok, reason := core.FreelyReorderable(q); !ok {
		log.Fatalf("unexpectedly not reorderable: %s", reason)
	}
	fmt.Println("freely reorderable: yes (outerjoin chain, strong key predicates)")

	o := optimizer.New(cat)
	plan, tr, err := o.PlanQueryTrace(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\noptimizer (reordered=%v) chose: %s\n%s", tr.Reordered(), plan.Tree(), plan.Explain())

	var counters exec.Counters
	it, err := o.Build(plan, &counters)
	if err != nil {
		log.Fatal(err)
	}
	out, err := exec.CollectCtx(nil, it, &counters)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tuples retrieved: %d\n\n", counters.TuplesRetrieved())
	fmt.Println(out)
	fmt.Println("note: Archives appears with null employee columns, and bob with a null badge record —")
	fmt.Println("the rows a plain join would silently drop.")
}
