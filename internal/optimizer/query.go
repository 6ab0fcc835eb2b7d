package optimizer

import (
	"fmt"
	"time"

	"freejoin/internal/core"
	"freejoin/internal/exec"
	"freejoin/internal/expr"
	"freejoin/internal/graph"
	"freejoin/internal/predicate"
	"freejoin/internal/relation"
)

// PlanQueryTrace is the optimizer's planner (§6.1), with the §4
// pipeline in front for queries that carry restrictions:
//
//  1. Simplify: strong restrictions convert outerjoins to joins;
//  2. PushRestrictions: conjuncts sink to the base tables they cover;
//  3. if the remaining operator block (restrictions now only at leaves
//     or on top) is freely reorderable, plan its graph with the
//     configured Strategy (DP over the implementing trees, or the
//     Yannakakis fast path) with the leaf filters folded into the scans;
//     otherwise keep the written order (PlanFixed). Residual top-level
//     restrictions become Filter operators.
//
// The trace records the decision. An undefined query graph is not an
// error: the query keeps its written order and the trace records why.
// An unknown Strategy is an error, before any planning.
func (o *Optimizer) PlanQueryTrace(q *expr.Node) (*Plan, *Trace, error) {
	switch o.Strategy {
	case "", "dp", "yannakakis", "auto":
	default:
		return nil, nil, fmt.Errorf("optimizer: unknown strategy %q", o.Strategy)
	}
	q, _ = core.Simplify(q, core.SimplifyOptions{})
	q = core.PushRestrictions(q)

	// Peel restrictions that stayed on top.
	var top []predicate.Predicate
	for q.Op == expr.Restrict {
		top = append(top, q.Pred)
		q = q.Left
	}

	plan, tr, err := o.planBlock(q)
	if err != nil {
		return nil, nil, err
	}
	for i := len(top) - 1; i >= 0; i-- {
		plan = o.filterPlan(plan, top[i])
	}
	recordTrace(tr)
	return plan, tr, nil
}

// planBlock plans a join/outerjoin block whose only restrictions sit
// directly over leaves.
func (o *Optimizer) planBlock(q *expr.Node) (*Plan, *Trace, error) {
	tr := &Trace{Strategy: "fixed"}
	stripped, filters, pure := stripLeafFilters(q)
	aStart := time.Now()
	if !pure {
		tr.FallbackReason = "block is not a pure join/outerjoin tree over (filtered) base tables"
	} else if a, err := analyzeTimed(stripped, tr, aStart); err != nil {
		tr.FallbackReason = "query graph undefined: " + err.Error()
	} else if !a.Free {
		tr.FallbackReason = a.String()
	} else if a.SemiExtension {
		tr.FallbackReason = "freely reorderable only under the §6.3 semijoin extension (no physical semijoin operators)"
	} else {
		p, err := o.optimizeGraphCached(a.Graph, filters, tr)
		if err == nil {
			tr.Strategy = strategyFor(p)
			return p, tr, nil
		}
		tr.FallbackReason = "DP failed: " + err.Error()
	}
	p, err := o.PlanFixed(q)
	return p, tr, err
}

// analyzeTimed runs the free-reorderability analysis and records its
// duration (measured from start, which callers take before any
// pre-analysis work they want attributed to the phase) into the trace.
func analyzeTimed(q *expr.Node, tr *Trace, start time.Time) (*core.Analysis, error) {
	a, err := core.Analyze(q)
	tr.AnalyzeTime = time.Since(start)
	return a, err
}

// stripLeafFilters removes σ-over-leaf wrappers, returning the bare tree,
// the per-relation filter map, and whether the remainder is a pure
// join/outerjoin tree (no interior restrictions or other operators).
func stripLeafFilters(q *expr.Node) (*expr.Node, map[string]predicate.Predicate, bool) {
	filters := map[string]predicate.Predicate{}
	var walk func(n *expr.Node) (*expr.Node, bool)
	walk = func(n *expr.Node) (*expr.Node, bool) {
		switch n.Op {
		case expr.Leaf:
			return n, true
		case expr.Restrict:
			inner, ok := walk(n.Left)
			if ok && inner.Op == expr.Leaf {
				rel := inner.Rel
				if prev, ok := filters[rel]; ok {
					filters[rel] = predicate.NewAnd(prev, n.Pred)
				} else {
					filters[rel] = n.Pred
				}
				return inner, true
			}
			return n, false
		case expr.Join, expr.LeftOuter, expr.RightOuter:
			l, okL := walk(n.Left)
			if !okL {
				return n, false
			}
			r, okR := walk(n.Right)
			if !okR {
				return n, false
			}
			return &expr.Node{Op: n.Op, Left: l, Right: r, Pred: n.Pred}, true
		default:
			return n, false
		}
	}
	out, ok := walk(q)
	return out, filters, ok
}

// optimizeGraph finds the cheapest plan among all implementing trees of a
// connected query graph, by dynamic programming over connected node
// subsets (the classic DP, with outerjoin edges handled like join edges
// but orientation-pinned), with per-relation filters folded into the
// leaf plans. When tr is non-nil the search statistics
// (subsets, splits, candidates, pruned) are recorded into it.
func (o *Optimizer) optimizeGraph(g *graph.Graph, filters map[string]predicate.Predicate, tr *Trace) (*Plan, error) {
	if g.NumNodes() == 0 {
		return nil, fmt.Errorf("optimizer: empty graph")
	}
	if !g.Connected() {
		return nil, fmt.Errorf("optimizer: graph is not connected")
	}
	best := make(map[graph.NodeSet]*Plan)
	for _, name := range g.Nodes() {
		p, err := o.leafPlan(name, filters[name])
		if err != nil {
			return nil, err
		}
		s, err := g.SetOf(name)
		if err != nil {
			return nil, err
		}
		best[s] = p
	}
	all := g.AllNodes()
	// One ascending pass over the subset masks suffices: every proper
	// subset of s is numerically smaller than s, so both halves of any
	// split are planned before s itself is reached. The SplitMemo shares
	// connectivity flood fills and split lists across subsets — the same
	// half recurs under many supersets (Trace.MemoHits counts the wins).
	sm := expr.NewSplitMemo(g)
	for s := graph.NodeSet(1); s <= all; s++ {
		if s&all != s || s.Count() < 2 || !sm.Connected(s) {
			continue
		}
		splits := sm.Splits(s)
		if tr != nil {
			tr.Subsets++
			tr.Splits += len(splits)
		}
		var bestPlan *Plan
		cands := 0
		for _, sp := range splits {
			p1, p2 := best[sp.S1], best[sp.S2]
			if p1 == nil || p2 == nil {
				continue
			}
			for _, cand := range o.joinPlans(sp, p1, p2) {
				cands++
				if bestPlan == nil || cand.Cost < bestPlan.Cost {
					bestPlan = cand
				}
			}
		}
		if tr != nil {
			tr.Candidates += cands
		}
		if bestPlan != nil {
			best[s] = bestPlan
			if tr != nil {
				tr.Pruned += cands - 1
			}
		}
	}
	if tr != nil {
		tr.MemoHits += sm.Hits()
	}
	p := best[all]
	if p == nil {
		return nil, fmt.Errorf("optimizer: no plan (graph admits no implementing tree)")
	}
	return p, nil
}

// leafPlan plans a base-table access under an optional pushed-down
// filter. A conjunct of the form col = const over a hash-indexed column
// upgrades the access path to an index scan; remaining conjuncts apply as
// a residual filter.
func (o *Optimizer) leafPlan(name string, filter predicate.Predicate) (*Plan, error) {
	scan, err := o.scanPlan(name)
	if err != nil {
		return nil, err
	}
	if filter == nil {
		return scan, nil
	}
	t, err := o.cat.Table(name)
	if err != nil {
		return nil, err
	}
	conjuncts := predicate.Conjuncts(filter)
	for i, c := range conjuncts {
		col, val, ok := constEquality(c, name)
		if !ok {
			continue
		}
		if _, hasIdx := t.HashIndexOn(col); !hasIdx {
			continue
		}
		rows := float64(t.Stats().Rows) / ndvOf(t, col)
		if rows < 1 {
			rows = 1
		}
		p := &Plan{
			Table: name, Algo: AlgoIndexScan, IndexCol: col, IndexVal: val,
			Scheme: scan.Scheme, EstRows: rows,
			Cost: rows * costLookup,
		}
		rest := append(append([]predicate.Predicate(nil), conjuncts[:i]...), conjuncts[i+1:]...)
		if len(rest) > 0 {
			return o.filterPlan(p, predicate.NewAnd(rest...)), nil
		}
		return p, nil
	}
	return o.filterPlan(scan, filter), nil
}

// constEquality matches "rel.col = const" (either operand order).
func constEquality(p predicate.Predicate, rel string) (string, relation.Value, bool) {
	cmp, ok := p.(*predicate.Comparison)
	if !ok || cmp.Op != predicate.EqOp {
		return "", relation.Value{}, false
	}
	a, b := cmp.Left, cmp.Right
	if a.IsConst() {
		a, b = b, a
	}
	if a.IsConst() || !b.IsConst() {
		return "", relation.Value{}, false
	}
	if a.Attr().Rel != rel || b.Value().IsNull() {
		return "", relation.Value{}, false
	}
	return a.Attr().Name, b.Value(), true
}

// filterPlan wraps a plan in a Filter with a selectivity-scaled estimate.
func (o *Optimizer) filterPlan(child *Plan, pred predicate.Predicate) *Plan {
	sel := 1.0
	for _, c := range predicate.Conjuncts(pred) {
		sel *= o.conjunctSelectivity(c, child, child)
	}
	rows := child.EstRows * sel
	if rows < 1 {
		rows = 1
	}
	return &Plan{
		Op: expr.Restrict, Left: child, Pred: pred,
		Scheme: child.Scheme, EstRows: rows,
		Cost: child.Cost + child.EstRows + rows*costOutputPerRow,
	}
}

// buildFilter lowers a Restrict plan node.
func (o *Optimizer) buildFilter(p *Plan, c *exec.Counters, ins bool, tr *Trace) (exec.Iterator, *exec.StatsNode, error) {
	child, cnode, err := o.build(p.Left, c, ins, tr)
	if err != nil {
		return nil, nil, err
	}
	it, err := exec.NewBatchFilter(child, p.Pred, 0)
	if err != nil {
		return nil, nil, err
	}
	wrapped, node := wrapNode(it, p, c, ins, cnode)
	return wrapped, node, nil
}
