// Command reorder analyzes a join/outerjoin expression: it derives the
// query graph, checks the free-reorderability theorem's preconditions,
// counts and optionally lists the implementing trees, and can emit the
// graph in Graphviz dot format.
//
// Usage:
//
//	reorder -q "(R -[R.a = S.a] S) ->[S.a = T.a] T" [-all] [-dot] [-modulo]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"freejoin/internal/core"
	"freejoin/internal/exec"
	"freejoin/internal/expr"
	"freejoin/internal/graph"
	"freejoin/internal/obs"
	"freejoin/internal/optimizer"
	"freejoin/internal/parse"
	"freejoin/internal/plancache"
	"freejoin/internal/relation"
	"freejoin/internal/storage"
)

func main() {
	var (
		query       = flag.String("q", "", "expression to analyze (required)")
		all         = flag.Bool("all", false, "list every implementing tree")
		dot         = flag.Bool("dot", false, "print the query graph in Graphviz dot syntax")
		modulo      = flag.Bool("modulo", true, "count trees modulo reversal")
		limit       = flag.Int64("limit", 100000, "maximum trees to list with -all")
		explain     = flag.Bool("explain", false, "plan over a synthetic catalog, execute with per-operator statistics, and print both")
		planCache   = flag.Bool("plan-cache", false, "with -explain: attach a plan cache and re-plan to show the fingerprint hit")
		timeout     = flag.Duration("timeout", 0, "deadline for the -explain execution (e.g. 500ms; 0 = none)")
		memLimit    = flag.Int64("mem-limit", 0, "memory budget in bytes for the -explain execution (0 = none)")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /debug/queries and /healthz on this address while the command runs")
		traceOut    = flag.String("trace-out", "", "write the -explain run's spans as Chrome trace JSON to this file")
		slowQuery   = flag.Duration("slow-query", 0, "log -explain executions slower than this to stderr (0 = off)")
		spillDir    = flag.String("spill-dir", "", "enable spill-to-disk for the -explain execution, writing run files to this directory (\"tmp\" = OS temp dir)")
		strategy    = flag.String("strategy", "", "planner strategy for -explain: dp, yannakakis or auto (empty = dp)")
		pprofOn     = flag.Bool("pprof", false, "mount /debug/pprof on the metrics address (needs -metrics-addr)")
	)
	flag.Parse()
	if *query == "" {
		fmt.Fprintln(os.Stderr, "usage: reorder -q \"(R -[R.a = S.a] S) ->[S.a = T.a] T\" [-all] [-dot] [-explain] [-timeout 500ms] [-mem-limit 65536]")
		os.Exit(2)
	}
	tracer := obs.NewTracer()
	if *traceOut != "" {
		tracer.Enable(*traceOut)
	}
	if *slowQuery > 0 {
		tracer.Slow().SetThreshold(*slowQuery)
		tracer.Slow().SetText(os.Stderr)
	}
	var srv *obs.Server
	if *metricsAddr != "" {
		s, err := obs.StartServerOpts(*metricsAddr, obs.ServerOptions{Tracer: tracer, Pprof: *pprofOn})
		if err != nil {
			fmt.Fprintln(os.Stderr, "reorder:", err)
			os.Exit(1)
		}
		srv = s
		fmt.Fprintln(os.Stderr, "reorder: serving metrics on", srv.Addr())
	}
	err := run(os.Stdout, *query, *all, *dot, *modulo, *limit, *explain, *planCache, *timeout, *memLimit, *spillDir, *strategy, tracer)
	if ferr := tracer.Disable(); err == nil && ferr != nil {
		err = ferr
	}
	if srv != nil {
		srv.Close()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "reorder:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, query string, all, dot, modulo bool, limit int64, explain, planCache bool, timeout time.Duration, memLimit int64, spillDir, strategy string, tracer *obs.Tracer) error {
	q, err := parse.Expr(query)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "expression:", q.StringWithPreds())

	analysis, err := core.Analyze(q)
	if err != nil {
		return fmt.Errorf("graph undefined: %w", err)
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, analysis.Graph)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "analysis:", analysis)

	count, err := expr.CountITs(analysis.Graph, modulo)
	if err != nil {
		return err
	}
	suffix := ""
	if modulo {
		suffix = " (modulo reversal)"
	}
	fmt.Fprintf(w, "implementing trees: %d%s\n", count, suffix)

	if all {
		if count > limit {
			return fmt.Errorf("%d trees exceed -limit %d", count, limit)
		}
		its, err := expr.EnumerateITs(analysis.Graph, modulo)
		if err != nil {
			return err
		}
		fmt.Fprintln(w)
		for i, it := range its {
			marker := " "
			if it.Equal(q) {
				marker = "*"
			}
			fmt.Fprintf(w, "%s %3d: %s\n", marker, i+1, it)
		}
	}
	if dot {
		fmt.Fprintln(w)
		fmt.Fprint(w, analysis.Graph.DOT())
	}
	if explain {
		if err := explainPlan(w, q, analysis.Graph, planCache, timeout, memLimit, spillDir, strategy, tracer); err != nil {
			return err
		}
	}
	return nil
}

// explainPlan plans the query over a synthetic catalog — every relation
// gets 1000 rows over the columns its predicates mention, each hash
// indexed — prints the chosen plan with the optimizer's decision trace,
// then executes it instrumented under the given resource limits (zero
// means unlimited) so a runaway implementing tree aborts with a typed
// resource error instead of running without bound.
func explainPlan(w io.Writer, q *expr.Node, g *graph.Graph, planCache bool, timeout time.Duration, memLimit int64, spillDir, strategy string, tracer *obs.Tracer) error {
	cols := map[string]map[string]struct{}{}
	for _, n := range g.Nodes() {
		cols[n] = map[string]struct{}{}
	}
	var walk func(n *expr.Node)
	walk = func(n *expr.Node) {
		if n == nil {
			return
		}
		if n.Pred != nil {
			for a := range n.Pred.Attrs() {
				if m, ok := cols[a.Rel]; ok {
					m[a.Name] = struct{}{}
				}
			}
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(q)

	cat := storage.NewCatalog()
	for rel, m := range cols {
		names := make([]string, 0, len(m))
		for c := range m {
			names = append(names, c)
		}
		sort.Strings(names)
		if len(names) == 0 {
			names = []string{"a"}
		}
		r := relation.New(relation.SchemeOf(rel, names...))
		for i := 0; i < 1000; i++ {
			row := make([]relation.Value, len(names))
			for j := range row {
				row[j] = relation.Int(int64(i % 50))
			}
			r.AppendRaw(row)
		}
		t := cat.AddRelation(rel, r)
		for _, c := range names {
			if _, err := t.BuildHashIndex(c); err != nil {
				return err
			}
		}
	}
	o := optimizer.New(cat)
	o.Spill = spillDir != ""
	o.Strategy = strategy
	if planCache {
		o.Cache = plancache.New(plancache.DefaultCapacity)
	}
	var qt *obs.QueryTrace
	if tracer != nil {
		qt = tracer.Start(q.StringWithPreds())
	}
	t0 := time.Now()
	p, tr, err := o.PlanQueryTrace(q)
	if err != nil {
		qt.Finish(err)
		return err
	}
	qt.AddSpans(optimizer.PhaseSpans(tr, t0, time.Since(t0)))
	fmt.Fprintln(w)
	fmt.Fprintln(w, "plan (synthetic catalog, 1000 rows per relation):")
	fmt.Fprint(w, optimizer.Explain(p, tr))

	if planCache {
		// Re-plan the same query: the canonical fingerprint must find the
		// plan just cached, skipping the DP entirely.
		p2, tr2, err := o.PlanQueryTrace(q)
		if err != nil {
			return err
		}
		if tr2.CacheOutcome == "" {
			// A fixed-order plan keeps the written association; there is
			// no graph-keyed plan to cache.
			fmt.Fprintf(w, "\nre-plan: not cached (strategy %s)\n", tr2.Strategy)
		} else {
			reused := "reused"
			if p2 != p {
				reused = "NOT reused"
			}
			fmt.Fprintf(w, "\nre-plan: plan cache %s (fp %s), plan object %s\n", tr2.CacheOutcome, tr2.Fingerprint, reused)
		}
	}

	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	var gov *exec.Governor
	if memLimit > 0 {
		gov = exec.NewGovernor(0, memLimit)
	}
	var ec *exec.ExecContext
	if timeout > 0 || memLimit > 0 || spillDir != "" {
		ec = exec.NewExecContext(ctx, gov)
	}
	if spillDir != "" {
		dir := spillDir
		if dir == "tmp" {
			dir = "" // spill.SpillConfig default: the OS temp dir
		}
		ec.EnableSpill(exec.SpillConfig{Dir: dir})
	}
	// The optimizer trace was already printed above; the nil tr keeps the
	// analyze text unchanged, so stamp the strategy into the record here.
	if qt != nil {
		qt.Rec.Strategy = tr.Strategy
		qt.Rec.FallbackReason = tr.FallbackReason
	}
	_, _, text, err := o.ExplainAnalyze(ec, p, nil, qt)
	qt.Finish(err)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "execution (explain analyze):")
	fmt.Fprint(w, text)
	return err
}
