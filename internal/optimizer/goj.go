package optimizer

import (
	"freejoin/internal/exec"
	"freejoin/internal/expr"
	"freejoin/internal/predicate"
	"freejoin/internal/relation"
)

// Generalized-outerjoin planning (§6.2). Example 2's shape X → (Y — Z)
// is not freely reorderable, so the DP cannot touch it; identity 15
// nevertheless allows (X → Y) GOJ[sch(X)] Z, letting the engine evaluate
// the cheap X → Y side first. core.GOJReassociate performs that rewrite
// and PlanFixed plans its result: the Plan/Build layers carry a GOJ
// operator (over the hash join when the predicate is a pure equijoin,
// the nested-loop join otherwise). The planner itself never chooses the
// rewrite; callers that want the GOJ plan compare its cost themselves.

// planGOJ builds a plan node for GOJ[S][pred](l, r).
func (o *Optimizer) planGOJ(l, r *Plan, pred predicate.Predicate, s []relation.Attr) (*Plan, error) {
	scheme, err := l.Scheme.Concat(r.Scheme)
	if err != nil {
		return nil, err
	}
	// Cardinality: the join rows plus at most one row per distinct
	// S-projection; approximate with the outerjoin-style floor.
	sp := expr.Split{Op: expr.LeftOuter, Pred: pred, S1Preserved: true}
	outRows := o.estimateJoinRows(sp, l, r)
	cost := l.EstRows*costProbePerRow + r.EstRows*costBuildPerRow
	return &Plan{
		Left: l, Right: r, Op: expr.GOJ, Pred: pred, GOJAttrs: s,
		Scheme: scheme, EstRows: outRows,
		Cost: l.Cost + r.Cost + cost + outRows*costOutputPerRow,
	}, nil
}

// buildGOJ lowers a GOJ plan node to exec.GOJ, which runs the join
// rows through the hash join (equi predicate) or the nested-loop join
// (any other). Its stats node keeps the left and right subplans as its
// two children.
func (o *Optimizer) buildGOJ(p *Plan, c *exec.Counters, ins bool, tr *Trace) (exec.Iterator, *exec.StatsNode, error) {
	left, lnode, err := o.build(p.Left, c, ins, tr)
	if err != nil {
		return nil, nil, err
	}
	right, rnode, err := o.build(p.Right, c, ins, tr)
	if err != nil {
		return nil, nil, err
	}
	it, err := exec.NewGOJ(left, right, p.Pred, p.GOJAttrs, 0)
	if err != nil {
		return nil, nil, err
	}
	wrapped, node := wrapNode(it, p, c, ins, lnode, rnode)
	return wrapped, node, nil
}
