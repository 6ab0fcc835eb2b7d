package optimizer

import (
	"freejoin/internal/core"
	"freejoin/internal/exec"
	"freejoin/internal/expr"
	"freejoin/internal/predicate"
	"freejoin/internal/relation"
)

// Generalized-outerjoin planning (§6.2). Example 2's shape X → (Y — Z)
// is not freely reorderable, so the DP cannot touch it; identity 15
// nevertheless allows (X → Y) GOJ[sch(X)] Z, letting the engine evaluate
// the cheap X → Y side first. OptimizeWithGOJ extends Optimize with that
// rewrite, and the Plan/Build layers gain a GOJ operator (over the hash
// join when the predicate is a pure equijoin, the nested-loop join
// otherwise).

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

// OptimizeWithGOJ plans q like Optimize, but when q is not freely
// reorderable it additionally tries the §6.2 GOJ reassociation at the
// root and keeps whichever of {fixed-order plan, GOJ plan} the cost model
// prefers. The string result names the strategy used: "reordered",
// "fixed", or "goj".
func (o *Optimizer) OptimizeWithGOJ(q *expr.Node) (*Plan, string, error) {
	p, tr, err := o.OptimizeWithGOJTrace(q)
	if tr == nil {
		return p, "", err
	}
	return p, tr.Strategy, err
}

// OptimizeWithGOJTrace is OptimizeWithGOJ with the decision record
// attached; on strategy "goj" the trace keeps the not-free verdict that
// made the reassociation worth trying.
func (o *Optimizer) OptimizeWithGOJTrace(q *expr.Node) (*Plan, *Trace, error) {
	// Uses the unrecorded optimizeTrace so the strategy metric counts the
	// final decision, not the intermediate "fixed" verdict a successful
	// GOJ upgrade replaces.
	p, tr, err := o.optimizeTrace(q)
	if err != nil {
		return nil, nil, err
	}
	defer func() { recordTrace(tr) }()
	if tr.Reordered() {
		return p, tr, nil
	}
	rw, ok, err := core.GOJReassociate(q, o.cat)
	if err != nil || !ok {
		return p, tr, err
	}
	gp, err := o.planExprWithGOJ(rw)
	if err != nil {
		// The rewrite exists but cannot be planned; keep the fixed plan.
		return p, tr, nil
	}
	if gp.Cost < p.Cost {
		tr.Strategy = "goj"
		return gp, tr, nil
	}
	return p, tr, nil
}

// planForcedGOJ applies the §6.2 rewrite when it matches and plans it
// regardless of estimated cost (an exploration hook used by tests and the
// experiment harness).
func (o *Optimizer) planForcedGOJ(q *expr.Node) (*Plan, bool, error) {
	rw, ok, err := core.GOJReassociate(q, o.cat)
	if err != nil || !ok {
		return nil, ok, err
	}
	p, err := o.planExprWithGOJ(rw)
	if err != nil {
		return nil, false, err
	}
	return p, true, nil
}

// planExprWithGOJ is PlanFixed extended with GOJ nodes.
func (o *Optimizer) planExprWithGOJ(q *expr.Node) (*Plan, error) {
	if q.Op != expr.GOJ {
		return o.PlanFixed(q)
	}
	l, err := o.planExprWithGOJ(q.Left)
	if err != nil {
		return nil, err
	}
	r, err := o.planExprWithGOJ(q.Right)
	if err != nil {
		return nil, err
	}
	return o.planGOJ(l, r, q.Pred, q.GOJAttrs)
}
