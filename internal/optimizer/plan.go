// Package optimizer is a cost-based join/outerjoin optimizer built on the
// paper's result (§6.1): when a query is freely reorderable, a
// conventional dynamic-programming optimizer may enumerate every
// implementing tree of the query graph — filling in Join or Outerjoin
// (preserving the edge direction) — with no additional legality analysis.
// Queries that are not freely reorderable fall back to a fixed-order plan
// that keeps the user's association and only selects physical algorithms.
package optimizer

import (
	"fmt"
	"strings"

	"freejoin/internal/expr"
	"freejoin/internal/predicate"
	"freejoin/internal/relation"
)

// Algo is the physical algorithm implementing a join operator.
type Algo uint8

// Physical join algorithms.
const (
	AlgoScan Algo = iota // leaves
	AlgoHash
	AlgoIndex
	AlgoNL
	// AlgoMerge names the sort-merge join. No planner emits it and Build
	// rejects it; the value stays because the served benchmark's trace
	// attribution still names it.
	AlgoMerge
	AlgoIndexScan  // leaf fetched through a hash index on a constant key
	AlgoSemiReduce // semijoin filter step of the Yannakakis full reducer
)

// String returns the algorithm name.
func (a Algo) String() string {
	switch a {
	case AlgoScan:
		return "scan"
	case AlgoHash:
		return "hash"
	case AlgoIndex:
		return "index"
	case AlgoNL:
		return "nestedloop"
	case AlgoMerge:
		return "sortmerge"
	case AlgoIndexScan:
		return "indexscan"
	case AlgoSemiReduce:
		return "semireduce"
	default:
		return fmt.Sprintf("Algo(%d)", uint8(a))
	}
}

// Plan is a physical plan node: a base-table scan or a binary join-family
// operator with a chosen algorithm and cost/cardinality estimates.
type Plan struct {
	// Leaves.
	Table string

	// Internal nodes.
	Left, Right *Plan
	Op          expr.Op // Join, LeftOuter (left side preserved), or GOJ
	Pred        predicate.Predicate
	Algo        Algo
	IndexCol    string          // AlgoIndex / AlgoIndexScan: the indexed column
	IndexVal    relation.Value  // AlgoIndexScan: the constant key
	GOJAttrs    []relation.Attr // Op == GOJ: the S attribute set

	// Estimates.
	Scheme  *relation.Scheme
	EstRows float64
	Cost    float64
}

// IsLeaf reports whether the plan is a base-table scan.
func (p *Plan) IsLeaf() bool { return p.Table != "" }

// Tree renders the plan as its logical expression string.
func (p *Plan) Tree() string {
	if p.IsLeaf() {
		if p.Algo == AlgoIndexScan {
			return "sigma(" + p.Table + ")"
		}
		return p.Table
	}
	if p.Op == expr.Restrict {
		return "sigma(" + p.Left.Tree() + ")"
	}
	op := "-"
	switch p.Op {
	case expr.LeftOuter:
		op = "->"
	case expr.GOJ:
		op = "goj"
	case expr.Semijoin:
		op = "semi"
	}
	return "(" + p.Left.Tree() + " " + op + " " + p.Right.Tree() + ")"
}

// Explain renders the plan as an indented operator tree with estimates.
func (p *Plan) Explain() string {
	var b strings.Builder
	p.explainTo(&b, 0)
	return b.String()
}

func (p *Plan) explainTo(b *strings.Builder, depth int) {
	indent := strings.Repeat("  ", depth)
	if p.IsLeaf() {
		if p.Algo == AlgoIndexScan {
			fmt.Fprintf(b, "%sindexscan %s.%s = %s (rows=%.0f cost=%.0f)\n",
				indent, p.Table, p.IndexCol, p.IndexVal, p.EstRows, p.Cost)
			return
		}
		fmt.Fprintf(b, "%sscan %s (rows=%.0f cost=%.0f)\n", indent, p.Table, p.EstRows, p.Cost)
		return
	}
	if p.Op == expr.Restrict {
		fmt.Fprintf(b, "%sfilter on %s (rows=%.0f cost=%.0f)\n", indent, p.Pred, p.EstRows, p.Cost)
		p.Left.explainTo(b, depth+1)
		return
	}
	opName := "join"
	switch p.Op {
	case expr.LeftOuter:
		opName = "leftouterjoin"
	case expr.GOJ:
		opName = "generalizedouterjoin"
	case expr.Semijoin:
		opName = "semireduce"
	}
	algo := p.Algo.String()
	switch {
	case p.Algo == AlgoIndex:
		algo = fmt.Sprintf("index(%s.%s)", p.Right.Table, p.IndexCol)
	case p.Algo == AlgoSemiReduce:
		if _, _, ok := predicate.EquiParts(p.Pred, p.Left.Scheme, p.Right.Scheme); ok {
			algo = "hash"
		} else {
			algo = "scan"
		}
	}
	fmt.Fprintf(b, "%s%s [%s] on %s (rows=%.0f cost=%.0f)\n", indent, opName, algo, p.Pred, p.EstRows, p.Cost)
	p.Left.explainTo(b, depth+1)
	p.Right.explainTo(b, depth+1)
}

// ToExpr converts the plan back to a logical expression tree (for
// verification against the reference algebra).
func (p *Plan) ToExpr() *expr.Node {
	if p.IsLeaf() {
		leaf := expr.NewLeaf(p.Table)
		if p.Algo == AlgoIndexScan {
			return expr.NewRestrict(leaf, predicate.EqConst(
				relation.A(p.Table, p.IndexCol), p.IndexVal))
		}
		return leaf
	}
	if p.Op == expr.Restrict {
		return expr.NewRestrict(p.Left.ToExpr(), p.Pred)
	}
	l, r := p.Left.ToExpr(), p.Right.ToExpr()
	switch p.Op {
	case expr.LeftOuter:
		return expr.NewOuter(l, r, p.Pred)
	case expr.GOJ:
		return expr.NewGOJ(l, r, p.Pred, p.GOJAttrs)
	case expr.Semijoin:
		return expr.NewSemi(l, r, p.Pred)
	default:
		return expr.NewJoin(l, r, p.Pred)
	}
}
