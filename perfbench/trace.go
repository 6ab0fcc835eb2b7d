package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime/metrics"
	"sort"
	"time"

	"freejoin/internal/core"
	"freejoin/internal/exec"
	"freejoin/internal/expr"
	"freejoin/internal/optimizer"
	"freejoin/internal/parse"
	"freejoin/internal/plancache"
	"freejoin/internal/predicate"
	"freejoin/internal/server"
)

// selfAlgos are the groups exec.self_ms splits operator self time into,
// one per Plan.Algo (plus filter and goj, which have their own nodes).
var selfAlgos = []string{"scan", "indexscan", "filter", "hash", "index", "nestedloop", "sortmerge", "semireduce", "goj"}

// tracedReplay replays the first n requests of the stream twice, single-
// threaded, each time from an emptied plan cache warmed as at set-up:
//
//  1. untraced, through Session.SafeExec (server.session_us);
//  2. traced, through the public function of each layer in the order the
//     session calls them, timing every call from here.
//
// After each traced request a second, instrumented execution of the same
// plan splits operator self time by algorithm and reads the spill
// counters. The returned map holds every per-layer metric; the ones
// about the wire, the runtime and failures come from the untraced loop.
func tracedReplay(out io.Writer, c *server.Core, ds *dataset, refs []answer, n int, spillDir string, loop *window) (map[string]float64, int64, error) {
	ctx := context.Background()
	var failed int64
	reqs := make([]int32, n)
	for i := range reqs {
		reqs[i] = ds.stream[i%len(ds.stream)]
	}

	// Pass 1: the session, untraced.
	c.Plans().Invalidate()
	sess := server.NewSession(c)
	for _, line := range ds.sessionLines() {
		if resp := sess.SafeExec(ctx, line); !resp.OK {
			return nil, 0, fmt.Errorf("%s: %s", line, resp.Error)
		}
	}
	for _, i := range ds.warm {
		if resp := sess.SafeExec(ctx, "query "+ds.texts[i]); !resp.OK {
			return nil, 0, fmt.Errorf("warm-up: %s", resp.Error)
		}
	}
	session := make([]float64, n)
	var untraced time.Duration
	perText := map[int32][]float64{}
	for k, i := range reqs {
		t0 := time.Now()
		resp := sess.SafeExec(ctx, "query "+ds.texts[i])
		d := time.Since(t0)
		untraced += d
		session[k] = us(d)
		perText[i] = append(perText[i], us(d))
		if got, err := parseAnswer(resp.Output); !resp.OK || err != nil || got != refs[i] {
			failed++
		}
	}
	if len(perText) <= 8 {
		for i, text := range ds.texts {
			if ts := perText[int32(i)]; len(ts) > 0 {
				fmt.Fprintf(out, "  session p50 %9.1f us, %6d rows: %s\n", median(ts), refs[i].rows, text)
			}
		}
	}

	// Pass 2: layer by layer.
	c.Plans().Invalidate()
	r := &replay{core: c, ds: ds, spillDir: spillDir, sums: map[string]float64{}}
	for _, i := range ds.warm {
		if _, err := r.step(ds.texts[i], false); err != nil {
			return nil, 0, err
		}
	}
	var traced time.Duration
	for _, i := range reqs {
		res, err := r.step(ds.texts[i], true)
		if err != nil {
			return nil, 0, err
		}
		traced += res.wall
		if res.answer != refs[i] {
			failed++
		}
	}

	m := map[string]float64{}
	per := func(name string) float64 { return r.sums[name] / float64(n) }
	perOf := func(name, count string) float64 {
		if r.sums[count] == 0 {
			return 0
		}
		return r.sums[name] / r.sums[count]
	}
	m["server.session_us"] = us(untraced) / float64(n)
	m["server.wire_us"] = us(loop.p50) - median(session)
	m["failed_frac"] = loop.failedFrac()
	m["runtime.gc_cpu_frac"] = loop.gcCPUFrac
	m["runtime.gc_cycles_per_kquery"] = loop.gcCyclesPerKQuery
	for _, name := range []string{"server.encode_us", "server.response_bytes", "parse.expr_us",
		"core.analyze_us", "optimizer.dp_subsets", "optimizer.dp_candidates", "optimizer.dp_pruned",
		"optimizer.build_us", "optimizer.root_q_error", "exec.collect_ms", "exec.peak_buffered_rows",
		"exec.alloc_kb", "spill.bytes", "spill.runs", "spill.partitions", "spill.merge_passes",
		"relation.render_us"} {
		m[name] = per(name)
	}
	for _, a := range selfAlgos {
		m["exec.self_ms."+a] = per("exec.self_ms." + a)
	}
	for _, s := range []string{"reordered", "yannakakis", "fixed"} {
		m["optimizer.strategy_share."+s] = per("strategy." + s)
	}
	m["plancache.fingerprint_us"] = perOf("plancache.fingerprint_us", "fingerprints")
	m["plancache.hit_ratio"] = perOf("cache.hit", "cache.lookups")
	m["optimizer.plan_miss_us"] = perOf("plan_miss_us", "cache.miss")
	m["optimizer.plan_hit_us"] = perOf("plan_hit_us", "cache.hit")
	m["exec.tuples_per_row"] = perOf("tuples", "rows")
	layers := r.sums["parse.expr_us"] + r.sums["plan_us"] + r.sums["optimizer.build_us"] +
		r.sums["exec.collect_ms"]*1e3 + r.sums["relation.render_us"]
	m["trace.coverage"] = layers / us(untraced)
	m["trace.overhead_frac"] = traced.Seconds()/untraced.Seconds() - 1
	return m, failed, nil
}

// replay runs requests layer by layer, accumulating per-layer sums.
type replay struct {
	core     *server.Core
	ds       *dataset
	spillDir string
	sums     map[string]float64
}

type stepResult struct {
	wall   time.Duration // the layered calls alone, probes excluded
	answer answer
}

// optimizer mirrors the session's: the shared catalog and plan cache, the
// session's spill setting, and the server's default strategy and batch
// size.
func (r *replay) optimizer() *optimizer.Optimizer {
	o := optimizer.New(r.core.Catalog())
	o.Cache = r.core.Plans()
	o.Spill = r.ds.spill
	return o
}

// execContext mirrors the one the session builds for a query.
func (r *replay) execContext() *exec.ExecContext {
	var gov *exec.Governor
	if r.ds.memLimit > 0 {
		gov = exec.NewGovernor(0, r.ds.memLimit)
	}
	ec := exec.NewExecContext(context.Background(), gov)
	if r.ds.spill {
		ec.EnableSpill(exec.SpillConfig{Dir: r.spillDir})
	}
	return ec
}

func (r *replay) step(text string, record bool) (stepResult, error) {
	add := func(name string, v float64) {
		if record {
			r.sums[name] += v
		}
	}
	o := r.optimizer()

	t0 := time.Now()
	q, err := parse.Expr(text)
	t1 := time.Now()
	if err != nil {
		return stepResult{}, err
	}
	p, tr, err := o.PlanQueryTrace(q)
	t2 := time.Now()
	if err != nil {
		return stepResult{}, err
	}
	var c exec.Counters
	it, err := o.Build(p, &c)
	t3 := time.Now()
	if err != nil {
		return stepResult{}, err
	}
	ec := r.execContext()
	a0 := heapAllocs()
	t4 := time.Now()
	out, err := exec.CollectCtx(ec, it, &c)
	t5 := time.Now()
	a1 := heapAllocs()
	if err != nil {
		return stepResult{}, err
	}
	rendered := out.String()
	t6 := time.Now()
	buf, err := json.Marshal(server.Response{OK: true, Output: rendered, Rows: int64(out.Len()),
		Tuples: c.TuplesRetrieved(), Cache: tr.CacheOutcome})
	t7 := time.Now()
	if err != nil {
		return stepResult{}, err
	}
	res := stepResult{wall: t3.Sub(t0) + t7.Sub(t4), answer: answerOf(out)}

	add("parse.expr_us", us(t1.Sub(t0)))
	add("plan_us", us(t2.Sub(t1)))
	switch tr.CacheOutcome {
	case "":
	case "hit":
		add("cache.lookups", 1)
		add("cache.hit", 1)
		add("plan_hit_us", us(t2.Sub(t1)))
	default:
		add("cache.lookups", 1)
		add("cache.miss", 1)
		add("plan_miss_us", us(t2.Sub(t1)))
	}
	add("strategy."+tr.Strategy, 1)
	add("optimizer.dp_subsets", float64(tr.Subsets))
	add("optimizer.dp_candidates", float64(tr.Candidates))
	add("optimizer.dp_pruned", float64(tr.Pruned))
	add("optimizer.build_us", us(t3.Sub(t2)))
	add("exec.collect_ms", us(t5.Sub(t4))/1e3)
	add("exec.alloc_kb", float64(a1-a0)/1024)
	add("tuples", float64(c.TuplesRetrieved()))
	add("rows", float64(c.RowsProduced()))
	add("relation.render_us", us(t6.Sub(t5)))
	add("server.encode_us", us(t7.Sub(t6)))
	add("server.response_bytes", float64(len(buf)+1))
	if !record {
		return res, nil
	}

	// Probes: the nice-graph check and the fingerprint, timed on their
	// own. PlanQueryTrace ran both inside the plan time above.
	if err := r.probe(q, add); err != nil {
		return stepResult{}, err
	}

	// The instrumented pass, on a fresh execution context.
	out2, _, root, err := o.ExecuteAnalyzedCtx(r.execContext(), p)
	if err != nil {
		return stepResult{}, err
	}
	if answerOf(out2) != res.answer {
		res.answer = answer{} // the two executions disagree: a failure
	}
	self := map[string]time.Duration{}
	attribute(p, root, self)
	for a, d := range self {
		add("exec.self_ms."+a, d.Seconds()*1e3)
	}
	var peak int64
	var sp exec.SpillStats
	root.Walk(func(_ int, n *exec.StatsNode) {
		peak = max(peak, n.Stats.PeakBuffered)
		sp.Bytes += n.Stats.Spill.Bytes
		sp.Runs += n.Stats.Spill.Runs
		sp.Partitions += n.Stats.Spill.Partitions
		sp.MergePasses += n.Stats.Spill.MergePasses
	})
	add("exec.peak_buffered_rows", float64(peak))
	add("spill.bytes", float64(sp.Bytes))
	add("spill.runs", float64(sp.Runs))
	add("spill.partitions", float64(sp.Partitions))
	add("spill.merge_passes", float64(sp.MergePasses))
	add("optimizer.root_q_error", qError(root.EstRows, root.Stats.RowsOut))
	return res, nil
}

// probe times core.Analyze and plancache.Of on the operator block the
// planner analyzes: the query after simplification and restriction
// pushdown, with restrictions left on top peeled off and those on leaves
// stripped into per-relation filters.
func (r *replay) probe(q *expr.Node, add func(string, float64)) error {
	q, _ = core.Simplify(q, core.SimplifyOptions{})
	q = core.PushRestrictions(q)
	for q.Op == expr.Restrict {
		q = q.Left
	}
	filters := map[string]predicate.Predicate{}
	block, ok := stripLeafFilters(q, filters)
	if !ok {
		return nil
	}
	t0 := time.Now()
	a, err := core.Analyze(block)
	add("core.analyze_us", us(time.Since(t0)))
	if err != nil || !a.Free || a.SemiExtension {
		return nil
	}
	// The extras the optimizer adds to the fingerprint for these settings.
	var extras []string
	for rel, p := range filters {
		extras = append(extras, "filter "+rel+": "+plancache.CanonPred(p))
	}
	sort.Strings(extras)
	if r.ds.spill {
		extras = append(extras, "config: spill")
	}
	t1 := time.Now()
	plancache.Of(a.Graph, extras...)
	add("plancache.fingerprint_us", us(time.Since(t1)))
	add("fingerprints", 1)
	return nil
}

// stripLeafFilters removes restrictions that sit directly on leaves into
// filters, reporting false if a restriction sits anywhere else.
func stripLeafFilters(n *expr.Node, filters map[string]predicate.Predicate) (*expr.Node, bool) {
	switch {
	case n.Op == expr.Leaf:
		return n, true
	case n.Op == expr.Restrict && n.Left.Op == expr.Leaf:
		filters[n.Left.Rel] = n.Pred
		return n.Left, true
	case n.Op == expr.Restrict || n.Left == nil || n.Right == nil:
		return nil, false
	}
	l, ok := stripLeafFilters(n.Left, filters)
	if !ok {
		return nil, false
	}
	rr, ok := stripLeafFilters(n.Right, filters)
	if !ok {
		return nil, false
	}
	cp := *n
	cp.Left, cp.Right = l, rr
	return &cp, true
}

// attribute adds each operator's self time to its plan node's algorithm
// group, walking the plan and its parallel stats tree together.
func attribute(p *optimizer.Plan, n *exec.StatsNode, self map[string]time.Duration) {
	if p == nil || n == nil {
		return
	}
	self[algoGroup(p)] += n.SelfTime()
	kid := func(i int) *exec.StatsNode {
		if i < len(n.Children) {
			return n.Children[i]
		}
		return nil
	}
	switch {
	case p.IsLeaf():
	case p.Op == expr.Restrict:
		attribute(p.Left, kid(0), self)
	case p.Algo == optimizer.AlgoIndex:
		// The second child is the inner table's placeholder: the join
		// fetches its rows through the index.
		attribute(p.Left, kid(0), self)
	case p.Algo == optimizer.AlgoMerge:
		// The children are the sorts the merge join inserts.
		for i, side := range []*optimizer.Plan{p.Left, p.Right} {
			if s := kid(i); s != nil {
				self["sortmerge"] += s.SelfTime()
				if len(s.Children) > 0 {
					attribute(side, s.Children[0], self)
				}
			}
		}
	default:
		attribute(p.Left, kid(0), self)
		attribute(p.Right, kid(1), self)
	}
}

func algoGroup(p *optimizer.Plan) string {
	switch {
	case p.IsLeaf() && p.Algo == optimizer.AlgoIndexScan:
		return "indexscan"
	case p.IsLeaf():
		return "scan"
	case p.Op == expr.Restrict:
		return "filter"
	case p.Op == expr.GOJ:
		return "goj"
	default:
		return p.Algo.String()
	}
}

// qError is max(est/actual, actual/est), each side floored at one row.
func qError(est float64, actual int64) float64 {
	e, a := max(est, 1), max(float64(actual), 1)
	return max(e/a, a/e)
}

func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: mAllocs}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func us(d time.Duration) float64 { return d.Seconds() * 1e6 }
