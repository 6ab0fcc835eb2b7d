package optimizer

import (
	"fmt"

	"freejoin/internal/expr"
	"freejoin/internal/plancache"
	"freejoin/internal/predicate"
	"freejoin/internal/relation"
	"freejoin/internal/storage"
)

// Cost model constants: everything is measured in "tuples touched", the
// unit of the paper's Example 1.
const (
	costScanPerRow   = 1.0
	costBuildPerRow  = 1.0
	costProbePerRow  = 1.0
	costLookup       = 1.0 // per index probe
	costNLPerPair    = 1.0
	costOutputPerRow = 0.2
	defaultNDV       = 10.0
	defaultSel       = 1.0 / 3.0
)

// Optimizer plans queries over a catalog.
type Optimizer struct {
	cat *storage.Catalog

	// LeftDeepOnly restricts the DP to left-deep trees (every right
	// operand a base table), the classic System R search-space trade-off.
	// Bushy plans are searched by default; the flag exists for the
	// ablation in BenchmarkLeftDeepVsBushy.
	LeftDeepOnly bool

	// Spill declares that plans from this optimizer run on execution
	// contexts with spill-to-disk enabled, so blocking operators degrade
	// to external algorithms (grace hash join, spilled nested-loop and
	// semijoin scans) instead of index fallbacks or aborts on a
	// memory-budget trip. The flag is
	// planner-side configuration: it selects the degradation path
	// recorded in the trace and keys the plan cache (a plan whose
	// fallback wiring assumed spilling must not be served to a
	// non-spilling session, and vice versa). The execution context's
	// EnableSpill carries the actual directory and fan-out.
	Spill bool

	// Strategy selects how freely-reorderable graphs are planned:
	//
	//	""            — classic DP over implementing trees (the default);
	//	"dp"          — same, spelled out;
	//	"yannakakis"  — force the acyclic fast path (a semijoin full
	//	                reducer over the join tree followed by the reduced
	//	                join) whenever the graph is a tree, falling back to
	//	                the DP otherwise;
	//	"auto"        — plan both and keep whichever the cost model says
	//	                is cheaper (ties go to the DP).
	//
	// The strategy keys the plan cache: toggling it never aliases plans.
	Strategy string

	// Cache, when set, is consulted before the reordering DP: queries
	// whose canonical graph fingerprint is resident skip optimization
	// entirely and share the cached plan (Theorem 1 makes the graph the
	// correct key — every implementing tree has the same result). Nil
	// disables caching. Several optimizers may share one cache; it is
	// safe for concurrent use.
	Cache *plancache.Cache
}

// New returns an optimizer over the catalog.
func New(cat *storage.Catalog) *Optimizer { return &Optimizer{cat: cat} }

// PlanFixed produces a physical plan honoring q's own operator order:
// only algorithm selection, no reordering. It plans leaves, restrictions,
// join and outerjoin operators (the IT operator set) and §6.2
// generalized outerjoins, so a GOJ plan is core.GOJReassociate followed
// by PlanFixed.
func (o *Optimizer) PlanFixed(q *expr.Node) (*Plan, error) {
	switch q.Op {
	case expr.Leaf:
		return o.scanPlan(q.Rel)
	case expr.Restrict:
		child, err := o.PlanFixed(q.Left)
		if err != nil {
			return nil, err
		}
		return o.filterPlan(child, q.Pred), nil
	case expr.Join, expr.LeftOuter, expr.RightOuter, expr.GOJ:
	default:
		return nil, fmt.Errorf("optimizer: cannot plan operator %s", q.Op)
	}
	l, err := o.PlanFixed(q.Left)
	if err != nil {
		return nil, err
	}
	r, err := o.PlanFixed(q.Right)
	if err != nil {
		return nil, err
	}
	op := q.Op
	switch op {
	case expr.GOJ:
		return o.planGOJ(l, r, q.Pred, q.GOJAttrs)
	case expr.RightOuter:
		// Normalize to left-preserved by swapping operands.
		l, r = r, l
		op = expr.LeftOuter
	}
	sp := expr.Split{Op: op, Pred: q.Pred, S1Preserved: true}
	return cheapest(o.fixedJoinPlans(sp, l, r))
}

// cheapest picks the lowest-cost candidate. An empty slice is an error
// (the operand schemes overlap, so no physical operator applies), not a
// panic: fixedJoinPlans legitimately returns nothing for e.g. a query
// that names the same relation on both sides.
func cheapest(cands []*Plan) (*Plan, error) {
	if len(cands) == 0 {
		return nil, fmt.Errorf("optimizer: no physical candidate (operand schemes overlap?)")
	}
	best := cands[0]
	for _, c := range cands[1:] {
		if c.Cost < best.Cost {
			best = c
		}
	}
	return best, nil
}

// scanPlan builds a leaf plan for a base table.
func (o *Optimizer) scanPlan(name string) (*Plan, error) {
	t, err := o.cat.Table(name)
	if err != nil {
		return nil, err
	}
	rows := float64(t.Stats().Rows)
	return &Plan{
		Table:   name,
		Scheme:  t.Scheme(),
		EstRows: rows,
		Cost:    rows * costScanPerRow,
	}, nil
}

// joinPlans generates candidate physical plans for a DP split: for a join
// both operand orders, for an outerjoin only the preserved-left order.
func (o *Optimizer) joinPlans(sp expr.Split, p1, p2 *Plan) []*Plan {
	var out []*Plan
	if sp.Op != expr.Join && sp.Op != expr.LeftOuter {
		// Semijoin splits (the §6.3 extension) have no physical operators
		// in this optimizer yet; such graphs simply get no DP plan.
		return nil
	}
	if o.LeftDeepOnly && sp.S1.Count() > 1 && sp.S2.Count() > 1 {
		return nil // bushy split excluded
	}
	if sp.Op == expr.Join {
		out = append(out, o.fixedJoinPlans(sp, p1, p2)...)
		out = append(out, o.fixedJoinPlans(sp, p2, p1)...)
	} else if sp.S1Preserved {
		// Outerjoin: the preserved side drives (left).
		out = o.fixedJoinPlans(sp, p1, p2)
	} else {
		out = o.fixedJoinPlans(sp, p2, p1)
	}
	if o.LeftDeepOnly {
		// Keep only candidates whose right operand is a single (possibly
		// filtered) base table.
		kept := out[:0]
		for _, c := range out {
			if singleTable(c.Right) {
				kept = append(kept, c)
			}
		}
		return kept
	}
	return out
}

// singleTable reports whether a plan reads exactly one base table.
func singleTable(p *Plan) bool {
	if p.IsLeaf() {
		return true
	}
	return p.Op == expr.Restrict && p.Left.IsLeaf()
}

// fixedJoinPlans generates the applicable algorithm candidates for l ⋈ r.
func (o *Optimizer) fixedJoinPlans(sp expr.Split, l, r *Plan) []*Plan {
	scheme, err := l.Scheme.Concat(r.Scheme)
	if err != nil {
		// Overlapping schemes cannot occur for well-formed queries; skip.
		return nil
	}
	outRows := o.estimateJoinRows(sp, l, r)
	mk := func(algo Algo, idxCol string, cost float64) *Plan {
		return &Plan{
			Left: l, Right: r, Op: sp.Op, Pred: sp.Pred,
			Algo: algo, IndexCol: idxCol,
			Scheme: scheme, EstRows: outRows,
			Cost: l.Cost + r.Cost + cost + outRows*costOutputPerRow,
		}
	}
	var out []*Plan
	_, rk, equi := predicate.EquiParts(sp.Pred, l.Scheme, r.Scheme)
	if equi {
		out = append(out, mk(AlgoHash, "", l.EstRows*costProbePerRow+r.EstRows*costBuildPerRow))
		// Index join: right side must be an unfiltered base table with a
		// hash index on a single equi column. Its cost does NOT scan the
		// right table — the Example 1 effect. (A filtered leaf cannot use
		// this path: the index fetch would bypass the filter.)
		if r.IsLeaf() && r.Algo == AlgoScan && len(rk) == 1 {
			if t, err := o.cat.Table(r.Table); err == nil {
				if _, ok := t.HashIndexOn(rk[0].Name); ok {
					matches := r.EstRows / ndvOf(t, rk[0].Name)
					// The index plan does not pay the right scan cost.
					cost := l.EstRows * (costLookup + matches)
					p := mk(AlgoIndex, rk[0].Name, cost)
					p.Cost -= r.Cost // right table never scanned
					out = append(out, p)
				}
			}
		}
	}
	out = append(out, mk(AlgoNL, "", l.EstRows*r.EstRows*costNLPerPair))
	return out
}

// estimateJoinRows estimates the operator's output cardinality.
func (o *Optimizer) estimateJoinRows(sp expr.Split, l, r *Plan) float64 {
	sel := 1.0
	for _, c := range predicate.Conjuncts(sp.Pred) {
		sel *= o.conjunctSelectivity(c, l, r)
	}
	rows := l.EstRows * r.EstRows * sel
	if sp.Op == expr.LeftOuter && rows < l.EstRows {
		rows = l.EstRows // every preserved tuple appears at least once
	}
	if rows < 1 {
		rows = 1
	}
	return rows
}

func (o *Optimizer) conjunctSelectivity(c predicate.Predicate, l, r *Plan) float64 {
	cmp, ok := c.(*predicate.Comparison)
	if !ok {
		return defaultSel
	}
	if cmp.Op != predicate.EqOp {
		return defaultSel
	}
	ndv := 1.0
	for _, term := range []predicate.Term{cmp.Left, cmp.Right} {
		if term.IsConst() {
			continue
		}
		if d := o.attrNDV(term.Attr()); d > ndv {
			ndv = d
		}
	}
	if ndv < 1 {
		ndv = defaultNDV
	}
	return 1.0 / ndv
}

// attrNDV looks up the base-table distinct count for an attribute.
func (o *Optimizer) attrNDV(a relation.Attr) float64 {
	t, err := o.cat.Table(a.Rel)
	if err != nil {
		return defaultNDV
	}
	return ndvOf(t, a.Name)
}

func ndvOf(t *storage.Table, col string) float64 {
	d := t.Stats().Distinct[col]
	if d <= 0 {
		return 1
	}
	return float64(d)
}
