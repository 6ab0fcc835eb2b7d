package optimizer

import (
	"fmt"

	"freejoin/internal/exec"
	"freejoin/internal/expr"
	"freejoin/internal/predicate"
	"freejoin/internal/relation"
	"freejoin/internal/storage"
)

// Build lowers a plan to a physical iterator tree, wiring the counter
// through scans and index lookups. No instrumentation is attached: the
// returned tree is exactly the operators themselves (the zero-overhead
// path measured by BenchmarkStatsOverhead).
func (o *Optimizer) Build(p *Plan, c *exec.Counters) (exec.Iterator, error) {
	it, _, err := o.build(p, c, false, nil)
	return it, err
}

// BuildInstrumented lowers p like Build but wraps every operator in an
// exec.Instrument stats collector, returning the root of the parallel
// StatsNode tree. Estimates (rows, cost) are copied onto each node so
// EXPLAIN ANALYZE can report estimation error next to actuals.
func (o *Optimizer) BuildInstrumented(p *Plan, c *exec.Counters) (exec.Iterator, *exec.StatsNode, error) {
	return o.build(p, c, true, nil)
}

// BuildInstrumentedTraced is BuildInstrumented recording lowering
// decisions — which degradation path hash joins were wired with — into
// tr (which may be nil).
func (o *Optimizer) BuildInstrumentedTraced(p *Plan, c *exec.Counters, tr *Trace) (exec.Iterator, *exec.StatsNode, error) {
	return o.build(p, c, true, tr)
}

// build is the shared lowering; when ins is set every operator is wrapped
// and the second result is its stats node (nil otherwise).
func (o *Optimizer) build(p *Plan, c *exec.Counters, ins bool, tr *Trace) (exec.Iterator, *exec.StatsNode, error) {
	if p.IsLeaf() {
		t, err := o.cat.Table(p.Table)
		if err != nil {
			return nil, nil, err
		}
		var it exec.Iterator
		if p.Algo == AlgoIndexScan {
			if it, err = exec.NewIndexScan(t, p.IndexCol, p.IndexVal, c); err != nil {
				return nil, nil, err
			}
		} else {
			it = exec.NewBatchScan(t, c, 0)
		}
		wrapped, node := wrapNode(it, p, c, ins)
		return wrapped, node, nil
	}
	if p.Op == expr.GOJ {
		return o.buildGOJ(p, c, ins, tr)
	}
	if p.Op == expr.Restrict {
		return o.buildFilter(p, c, ins, tr)
	}
	left, lnode, err := o.build(p.Left, c, ins, tr)
	if err != nil {
		return nil, nil, err
	}
	mode := exec.InnerMode
	if p.Op == expr.LeftOuter {
		mode = exec.LeftOuterMode
	}
	switch p.Algo {
	case AlgoIndex:
		t, err := o.cat.Table(p.Right.Table)
		if err != nil {
			return nil, nil, err
		}
		lk, rk, ok := predicate.EquiParts(p.Pred, p.Left.Scheme, p.Right.Scheme)
		if !ok || len(lk) != 1 || rk[0].Name != p.IndexCol {
			return nil, nil, fmt.Errorf("optimizer: index plan predicate mismatch: %v", p.Pred)
		}
		it, err := exec.NewBatchIndexJoin(left, t, p.IndexCol, lk[0], nil, mode, c, 0)
		if err != nil {
			return nil, nil, err
		}
		var kids []*exec.StatsNode
		if ins {
			// The inner table is never opened as an iterator — the join
			// fetches its rows through the index. A phantom entry keeps the
			// rendered tree congruent with the plan.
			kids = []*exec.StatsNode{lnode, {Label: nodeLabel(p.Right), EstRows: p.Right.EstRows}}
		}
		wrapped, node := wrapNode(it, p, c, ins, kids...)
		return wrapped, node, nil
	case AlgoHash:
		right, rnode, err := o.build(p.Right, c, ins, tr)
		if err != nil {
			return nil, nil, err
		}
		lk, rk, ok := predicate.EquiParts(p.Pred, p.Left.Scheme, p.Right.Scheme)
		if !ok {
			return nil, nil, fmt.Errorf("optimizer: hash plan predicate mismatch: %v", p.Pred)
		}
		it, err := exec.NewBatchHashJoin(left, right, lk, rk, nil, mode, 0)
		if err != nil {
			return nil, nil, err
		}
		o.attachFallback(it, p, lk, rk, mode, c, tr)
		wrapped, node := wrapNode(it, p, c, ins, lnode, rnode)
		return wrapped, node, nil
	case AlgoNL:
		right, rnode, err := o.build(p.Right, c, ins, tr)
		if err != nil {
			return nil, nil, err
		}
		it, err := exec.NewBatchNestedLoopJoin(left, right, p.Pred, mode, 0)
		if err != nil {
			return nil, nil, err
		}
		wrapped, node := wrapNode(it, p, c, ins, lnode, rnode)
		return wrapped, node, nil
	case AlgoSemiReduce:
		// A Yannakakis reducer step shares its source subplan with other
		// occurrences in the plan DAG; each occurrence lowers to its own
		// iterator subtree, so sharing stays read-only.
		right, rnode, err := o.build(p.Right, c, ins, tr)
		if err != nil {
			return nil, nil, err
		}
		it, err := exec.NewSemiJoin(left, right, p.Pred, 0)
		if err != nil {
			return nil, nil, err
		}
		wrapped, node := wrapNode(it, p, c, ins, lnode, rnode)
		return wrapped, node, nil
	default:
		return nil, nil, fmt.Errorf("optimizer: cannot build algorithm %s", p.Algo)
	}
}

// attachFallback marks a graceful-degradation path on a hash join when
// one is available: if the build side is a plain scan of a base table
// with a hash index on the single equi-key, a memory-budget trip during
// the build can be served by an index join over the same left input
// instead of aborting. Both strategies produce the same bag (null keys
// never match in either).
//
// When the optimizer runs with spilling enabled, the grace hash join is
// the preferred degradation — it keeps the planned hash strategy and
// needs no index — and the executor picks it over the index fallback at
// trip time. The index fallback is still wired as the path for
// spill-disabled contexts; the trace records whichever path this
// session would actually take.
func (o *Optimizer) attachFallback(it *exec.BatchHashJoin, p *Plan, lk, rk []relation.Attr, mode exec.JoinMode, c *exec.Counters, tr *Trace) {
	if o.Spill && tr != nil && tr.Degradation == "" {
		tr.Degradation = "grace-hash spill"
	}
	if len(lk) != 1 || !p.Right.IsLeaf() || p.Right.Algo != AlgoScan {
		return
	}
	t, err := o.cat.Table(p.Right.Table)
	if err != nil {
		return
	}
	if _, ok := t.HashIndexOn(rk[0].Name); !ok {
		return
	}
	if !o.Spill && tr != nil && tr.Degradation == "" {
		tr.Degradation = fmt.Sprintf("index join via %s.%s", p.Right.Table, rk[0].Name)
	}
	it.SetFallback(func(left exec.Iterator) (exec.Iterator, error) {
		return exec.NewBatchIndexJoin(left, t, rk[0].Name, lk[0], nil, mode, c, 0)
	})
}

// wrapNode instruments it as the physical realization of plan node p.
func wrapNode(it exec.Iterator, p *Plan, c *exec.Counters, ins bool, kids ...*exec.StatsNode) (exec.Iterator, *exec.StatsNode) {
	if !ins {
		return it, nil
	}
	w := exec.Instrument(it, nodeLabel(p), c, kids...)
	n := w.Node()
	n.EstRows = p.EstRows
	n.EstCost = p.Cost
	return w, n
}

// nodeLabel renders a plan node's one-line operator description (the same
// vocabulary as Plan.Explain).
func nodeLabel(p *Plan) string {
	if p.IsLeaf() {
		if p.Algo == AlgoIndexScan {
			return fmt.Sprintf("indexscan %s.%s = %s", p.Table, p.IndexCol, p.IndexVal)
		}
		return "scan " + p.Table
	}
	if p.Op == expr.Restrict {
		return fmt.Sprintf("filter on %v", p.Pred)
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
	case p.Op == expr.GOJ:
		if _, _, ok := predicate.EquiParts(p.Pred, p.Left.Scheme, p.Right.Scheme); ok {
			algo = "hash"
		} else {
			algo = "nestedloop"
		}
	}
	return fmt.Sprintf("%s [%s] on %v", opName, algo, p.Pred)
}

// Execute lowers and runs a plan ungoverned, returning the result
// relation and the execution counters (tuples retrieved, rows produced).
func (o *Optimizer) Execute(p *Plan) (*relation.Relation, *exec.Counters, error) {
	return o.ExecuteCtx(nil, p)
}

// ExecuteCtx runs p under an execution context carrying cancellation,
// deadline and memory budgets; ec may be nil for ungoverned execution.
func (o *Optimizer) ExecuteCtx(ec *exec.ExecContext, p *Plan) (*relation.Relation, *exec.Counters, error) {
	var c exec.Counters
	out, err := o.ExecuteCtxCounted(ec, p, &c)
	return out, &c, err
}

// ExecuteCtxCounted is ExecuteCtx with caller-owned counters: the
// caller allocates c before execution and may read it concurrently
// while the query runs (Counters is atomic), which is how the server's
// live-progress view streams rows-so-far for in-flight queries.
func (o *Optimizer) ExecuteCtxCounted(ec *exec.ExecContext, p *Plan, c *exec.Counters) (*relation.Relation, error) {
	it, err := o.Build(p, c)
	if err != nil {
		return nil, err
	}
	return exec.CollectCtx(ec, it, c)
}

// ExecuteAnalyzed lowers p with instrumentation, runs it, and returns the
// result, the counters, and the root of the collected per-operator stats
// tree — the data behind EXPLAIN ANALYZE.
func (o *Optimizer) ExecuteAnalyzed(p *Plan) (*relation.Relation, *exec.Counters, *exec.StatsNode, error) {
	return o.ExecuteAnalyzedCtx(nil, p)
}

// ExecuteAnalyzedCtx is ExecuteAnalyzed under an execution context. On
// error the partially-filled stats tree is still returned so EXPLAIN
// ANALYZE can render what ran and name the failing operator.
func (o *Optimizer) ExecuteAnalyzedCtx(ec *exec.ExecContext, p *Plan) (*relation.Relation, *exec.Counters, *exec.StatsNode, error) {
	var c exec.Counters
	it, root, err := o.BuildInstrumented(p, &c)
	if err != nil {
		return nil, nil, nil, err
	}
	out, err := exec.CollectCtx(ec, it, &c)
	if err != nil {
		return nil, &c, root, err
	}
	return out, &c, root, nil
}

// Run optimizes and executes a query in one call, reporting whether
// reordering applied.
func (o *Optimizer) Run(q *expr.Node) (*relation.Relation, *exec.Counters, bool, error) {
	p, reordered, err := o.Optimize(q)
	if err != nil {
		return nil, nil, false, err
	}
	out, c, err := o.Execute(p)
	return out, c, reordered, err
}

// CatalogOf exposes the optimizer's catalog (a storage.Catalog implements
// both expr.Source and core.SchemeSource, which callers often need
// alongside planning).
func (o *Optimizer) CatalogOf() *storage.Catalog { return o.cat }
