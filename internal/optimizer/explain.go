package optimizer

import (
	"fmt"
	"strings"
	"time"

	"freejoin/internal/exec"
	"freejoin/internal/obs"
	"freejoin/internal/relation"
)

// Trace records how the optimizer arrived at a plan: which strategy was
// chosen, why reordering was skipped when it was, and the size of the DP
// search the reordering path explored. EXPLAIN renders it under the plan
// tree so a surprising join order can be traced back to the decision that
// produced it.
type Trace struct {
	// Strategy is "reordered" (DP over the query graph), "yannakakis"
	// (the acyclic fast path: semijoin full reducer plus reduced join),
	// "fixed" (the written association, algorithm selection only), or
	// "goj" (the §6.2 generalized-outerjoin reassociation).
	Strategy string
	// FallbackReason explains a non-"reordered" strategy: the analysis
	// verdict, an undefined query graph, or a DP failure.
	FallbackReason string

	// DP search statistics (zero unless the reordering path ran).
	Subsets    int // connected subsets of size ≥ 2 considered
	Splits     int // valid splits enumerated across those subsets
	Candidates int // physical candidates generated
	Pruned     int // candidates discarded by cost comparison

	// MemoHits counts split/connectivity lookups answered by the DP's
	// SplitMemo instead of recomputed flood fills.
	MemoHits int64

	// CacheOutcome is "hit", "miss" or "coalesced" when a plan cache was
	// consulted, empty when no cache is attached. Fingerprint is the
	// compact hex form of the canonical query-graph fingerprint the
	// lookup used.
	CacheOutcome string
	Fingerprint  string

	// AnalyzeTime is the time spent in the free-reorderability analysis
	// (the nice-graph check), so the tracer can split an optimize call
	// into its analyze and DP phases.
	AnalyzeTime time.Duration

	// Degradation names the budget-pressure escape hatch wired into the
	// plan's hash joins at lowering time: "grace-hash spill" when
	// spilling is enabled (preferred — it keeps the hash strategy), or
	// the index alternative otherwise. Empty when a memory trip would
	// simply abort. Filled by BuildInstrumentedTraced, not by planning.
	Degradation string
}

// Reordered reports whether the optimizer chose the operator order (the
// DP over the query graph, or the Yannakakis fast path over its join
// tree) rather than keeping the query's written association.
func (tr *Trace) Reordered() bool {
	return tr.Strategy == "reordered" || tr.Strategy == "yannakakis"
}

// String renders the trace as indented "-- " comment lines.
func (tr *Trace) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "-- strategy: %s\n", tr.Strategy)
	if tr.FallbackReason != "" {
		fmt.Fprintf(&b, "-- fallback: %s\n", tr.FallbackReason)
	}
	if tr.Subsets > 0 {
		fmt.Fprintf(&b, "-- dp: %d connected subsets, %d splits, %d candidates (%d pruned)\n",
			tr.Subsets, tr.Splits, tr.Candidates, tr.Pruned)
	}
	if tr.MemoHits > 0 {
		fmt.Fprintf(&b, "-- memo: %d split/connectivity lookups served from the DP memo\n", tr.MemoHits)
	}
	if tr.CacheOutcome != "" {
		fmt.Fprintf(&b, "-- plancache: %s (fp %s)\n", tr.CacheOutcome, tr.Fingerprint)
	}
	if tr.Degradation != "" {
		fmt.Fprintf(&b, "-- degradation: %s\n", tr.Degradation)
	}
	return b.String()
}

// Explain renders a plan with its estimates followed by the optimizer
// trace (when one is supplied) — the static half of EXPLAIN.
func Explain(p *Plan, tr *Trace) string {
	var b strings.Builder
	b.WriteString(p.Explain())
	if tr != nil {
		b.WriteString(tr.String())
	}
	return b.String()
}

// ExplainAnalyze executes p with per-operator instrumentation and renders
// the plan tree with estimates AND actuals side by side: rows emitted,
// base tuples retrieved by each operator itself, peak buffered rows, wall
// time, and the q-error of the row estimate. The result relation and the
// global counters are returned alongside the rendering.
func (o *Optimizer) ExplainAnalyze(p *Plan, tr *Trace) (*relation.Relation, *exec.Counters, string, error) {
	return o.ExplainAnalyzeCtx(nil, p, tr)
}

// ExplainAnalyzeCtx is ExplainAnalyze under an execution context. When a
// resource limit aborts the run, the partial stats tree is still
// rendered — with the tripping operator marked — followed by governor
// events and an "aborted" trailer, and the error is returned alongside
// the text so callers can show both.
func (o *Optimizer) ExplainAnalyzeCtx(ec *exec.ExecContext, p *Plan, tr *Trace) (*relation.Relation, *exec.Counters, string, error) {
	return o.ExplainAnalyzeTraced(ec, p, tr, nil)
}

// ExplainAnalyzeTraced is ExplainAnalyzeCtx feeding a query trace: the
// build and execute phases become spans, the executed stats tree is
// synthesized into per-operator spans, and the trace's record is filled
// with the chosen implementing tree, the optimizer's strategy and
// fallback reason, the effort counters, the root q-error, and any
// governor events — everything the slow-query log and /debug/queries
// report. qt may be nil (plain ExplainAnalyzeCtx behavior).
func (o *Optimizer) ExplainAnalyzeTraced(ec *exec.ExecContext, p *Plan, tr *Trace, qt *obs.QueryTrace) (*relation.Relation, *exec.Counters, string, error) {
	var c exec.Counters
	buildStart := time.Now()
	it, root, err := o.BuildInstrumentedTraced(p, &c, tr)
	qt.AddSpan(obs.Span{Name: "build", Cat: "phase", Start: buildStart, Dur: time.Since(buildStart)})
	if err != nil {
		return nil, nil, "", err // build failed; nothing ran
	}
	execStart := time.Now()
	out, err := exec.CollectCtx(ec, it, &c)
	qt.AddSpan(obs.Span{Name: "execute", Cat: "phase", Start: execStart, Dur: time.Since(execStart)})
	qt.AddSpans(exec.SpanTree(root, execStart))
	if qt != nil {
		rec := &qt.Rec
		if tr != nil {
			rec.Strategy = tr.Strategy
			rec.FallbackReason = tr.FallbackReason
		}
		rec.PlanTree = p.Tree()
		rec.Rows = c.RowsProduced()
		rec.Tuples = c.TuplesRetrieved()
		if p.EstRows >= 0 && root.Executed() {
			rec.QError = qerr(p.EstRows, root.Stats.RowsOut)
		}
		rec.GovernorEvents = ec.Governor().Events()
	}
	var b strings.Builder
	b.WriteString(RenderStats(root))
	if tr != nil {
		b.WriteString(tr.String())
	}
	for _, ev := range ec.Governor().Events() {
		fmt.Fprintf(&b, "-- governor: %s\n", ev)
	}
	if err != nil {
		fmt.Fprintf(&b, "-- aborted: %v\n", err)
		return nil, &c, b.String(), err
	}
	fmt.Fprintf(&b, "-- totals: %d rows, %d base tuples retrieved\n",
		c.RowsProduced(), c.TuplesRetrieved())
	return out, &c, b.String(), nil
}

// RenderStats renders an executed stats tree, one indented line per
// operator.
func RenderStats(root *exec.StatsNode) string {
	var b strings.Builder
	root.Walk(func(depth int, n *exec.StatsNode) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(n.Label)
		if n.EstRows >= 0 {
			fmt.Fprintf(&b, " (est rows=%.0f cost=%.0f)", n.EstRows, n.EstCost)
		}
		if !n.Executed() {
			// e.g. an index join's inner table: present in the plan, fetched
			// through the index rather than opened as an iterator.
			b.WriteString(" (not separately executed)\n")
			return
		}
		fmt.Fprintf(&b, " (actual rows=%d next=%d tuples=%d", n.Stats.RowsOut, n.Stats.NextCalls, n.SelfTuples())
		if n.Stats.PeakBuffered > 0 {
			fmt.Fprintf(&b, " peak=%d", n.Stats.PeakBuffered)
		}
		if sp := n.Stats.Spill; sp.Spilled() {
			fmt.Fprintf(&b, " spill-runs=%d spill-bytes=%d", sp.Runs, sp.Bytes)
			if sp.Partitions > 0 {
				fmt.Fprintf(&b, " spill-partitions=%d", sp.Partitions)
			}
		}
		fmt.Fprintf(&b, " time=%s", n.Stats.WallTime.Round(time.Microsecond))
		if n.EstRows >= 0 {
			fmt.Fprintf(&b, " q-err=%.2f", qerr(n.EstRows, n.Stats.RowsOut))
		}
		b.WriteString(")")
		if n.Err != nil && !childErrored(n) {
			// Mark the deepest errored node: that operator tripped; its
			// ancestors merely propagated.
			fmt.Fprintf(&b, " <-- error: %v", n.Err)
		}
		b.WriteString("\n")
	})
	return b.String()
}

// childErrored reports whether any child of n recorded an error (the
// error then originated below n, not at n).
func childErrored(n *exec.StatsNode) bool {
	for _, c := range n.Children {
		if c.Err != nil {
			return true
		}
	}
	return false
}

// qerr is the q-error of a cardinality estimate: max(est/actual,
// actual/est), with both sides floored at one row so empty results do not
// divide by zero.
func qerr(est float64, actual int64) float64 {
	a := float64(actual)
	if a < 1 {
		a = 1
	}
	if est < 1 {
		est = 1
	}
	if est > a {
		return est / a
	}
	return a / est
}
