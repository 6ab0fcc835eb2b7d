package optimizer

import (
	"context"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"freejoin/internal/core"
	"freejoin/internal/exec"
	"freejoin/internal/expr"
	"freejoin/internal/obs"
	"freejoin/internal/parse"
	"freejoin/internal/plancache"
	"freejoin/internal/workload"
)

// Spilling through the planner: cache keying, trace annotation, EXPLAIN
// ANALYZE counters, and the metamorphic spill oracle.

// TestSpillToggleMissesPlanCache: a plan built with spilling enabled has
// different degradation wiring than one built without; toggling the
// optimizer's spill mode must never serve the other mode's cached plan.
func TestSpillToggleMissesPlanCache(t *testing.T) {
	o, q := cacheFixture(t, 77)

	_, tr1, err := o.PlanQueryTrace(q)
	if err != nil {
		t.Fatal(err)
	}
	if tr1.CacheOutcome != "miss" {
		t.Fatalf("first optimize outcome %q; want miss", tr1.CacheOutcome)
	}

	o.Spill = true
	_, tr2, err := o.PlanQueryTrace(q)
	if err != nil {
		t.Fatal(err)
	}
	if tr2.CacheOutcome != "miss" {
		t.Fatalf("spill-enabled optimize outcome %q; want miss (must not reuse the spill-off plan)", tr2.CacheOutcome)
	}
	if tr1.Fingerprint == tr2.Fingerprint {
		t.Fatalf("spill toggle did not change the fingerprint: %s", tr1.Fingerprint)
	}

	// Each mode hits its own entry on repeat.
	_, tr3, err := o.PlanQueryTrace(q)
	if err != nil {
		t.Fatal(err)
	}
	if tr3.CacheOutcome != "hit" || tr3.Fingerprint != tr2.Fingerprint {
		t.Fatalf("spill-enabled repeat: outcome %q fp %q; want hit on %q", tr3.CacheOutcome, tr3.Fingerprint, tr2.Fingerprint)
	}
	o.Spill = false
	_, tr4, err := o.PlanQueryTrace(q)
	if err != nil {
		t.Fatal(err)
	}
	if tr4.CacheOutcome != "hit" || tr4.Fingerprint != tr1.Fingerprint {
		t.Fatalf("spill-off repeat: outcome %q fp %q; want hit on %q", tr4.CacheOutcome, tr4.Fingerprint, tr1.Fingerprint)
	}
	if o.Cache.Len() != 2 {
		t.Fatalf("cache holds %d entries; want one per spill mode", o.Cache.Len())
	}
}

// TestTraceDegradationAnnotation: lowering records which budget-pressure
// path the plan's hash joins were wired with — grace-hash when spilling,
// the index alternative otherwise.
func TestTraceDegradationAnnotation(t *testing.T) {
	cat := governorCatalog(t)
	tb, err := cat.Table("S")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.BuildHashIndex("a"); err != nil {
		t.Fatal(err)
	}
	q, err := parse.Expr("R -[R.a = S.a] S")
	if err != nil {
		t.Fatal(err)
	}
	o := New(cat)
	p, _, err := o.PlanQueryTrace(q)
	if err != nil {
		t.Fatal(err)
	}
	if p.Algo != AlgoHash {
		t.Skipf("planner chose %v, not a hash join", p.Algo)
	}
	var c exec.Counters
	tr := &Trace{}
	if _, _, err := o.build(p, &c, true, tr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tr.Degradation, "index join via S.a") {
		t.Errorf("spill-off degradation = %q; want the index fallback", tr.Degradation)
	}
	if !strings.Contains(tr.String(), "-- degradation:") {
		t.Errorf("trace rendering must carry the degradation line:\n%s", tr.String())
	}

	o.Spill = true
	tr = &Trace{}
	if _, _, err := o.build(p, &c, true, tr); err != nil {
		t.Fatal(err)
	}
	if tr.Degradation != "grace-hash spill" {
		t.Errorf("spill-on degradation = %q; want grace-hash spill", tr.Degradation)
	}
}

// TestExplainAnalyzeSpillCounters: a governed run that spills must
// complete, match the ungoverned bag, render nonzero spill counters in
// the stats tree, note the degradation in governor events, and move the
// process-wide oj_spill_* metrics.
func TestExplainAnalyzeSpillCounters(t *testing.T) {
	o, p := governorQuery(t)
	want, _, err := execute(nil, o, p)
	if err != nil {
		t.Fatal(err)
	}

	runs0, bytes0 := obs.SpillRuns.Value(), obs.SpillBytes.Value()
	dir := t.TempDir()
	gov := exec.NewGovernor(0, 600)
	ec := exec.NewExecContext(context.Background(), gov)
	ec.EnableSpill(exec.SpillConfig{Dir: dir})
	o.Spill = true

	got, _, text, err := o.ExplainAnalyze(ec, p, &Trace{}, nil)
	if err != nil {
		t.Fatalf("spilling EXPLAIN ANALYZE failed: %v\n%s", err, text)
	}
	if !want.EqualBag(got) {
		t.Error("spilled execution changed the result bag")
	}
	if !strings.Contains(text, "spill-runs=") || !strings.Contains(text, "spill-bytes=") {
		t.Errorf("stats tree must render spill counters:\n%s", text)
	}
	if !strings.Contains(text, "-- governor:") {
		t.Errorf("spill degradation must surface as a governor event:\n%s", text)
	}
	if obs.SpillRuns.Value() == runs0 {
		t.Error("oj_spill_runs_total did not move")
	}
	if obs.SpillBytes.Value() == bytes0 {
		t.Error("oj_spill_bytes_total did not move")
	}
	if gov.UsedRows() != 0 || gov.UsedBytes() != 0 || gov.UsedSpillBytes() != 0 {
		t.Errorf("governor not drained: rows=%d bytes=%d spill=%d",
			gov.UsedRows(), gov.UsedBytes(), gov.UsedSpillBytes())
	}
	files, err := filepath.Glob(filepath.Join(dir, "ojspill-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 0 {
		t.Errorf("run files leaked: %v", files)
	}
}

// TestMetamorphicSpillOracle is the spill edition of the metamorphic
// free-reorderability suite: for every random nice-graph instance, the
// optimized plan — run unbudgeted, and again under a byte budget small
// enough to force every blocking operator to disk — must produce
// exactly the bag of the algebra reference.
func TestMetamorphicSpillOracle(t *testing.T) {
	runs0 := obs.SpillRuns.Value()
	success := 0
	for attempt := 0; success < metamorphicInstances; attempt++ {
		if attempt >= metamorphicInstances*10 {
			t.Fatalf("only %d/%d instances after %d attempts", success, metamorphicInstances, attempt)
		}
		seed := metamorphicBaseSeed + 200_000 + int64(attempt)
		rnd := rand.New(rand.NewSource(seed))
		g := workload.RandomNiceGraph(rnd, 1+rnd.Intn(3), rnd.Intn(3))
		count, err := expr.CountITs(g, true)
		if err != nil {
			t.Fatalf("seed %d: CountITs: %v", seed, err)
		}
		if count < 2 || count > metamorphicITCap {
			continue
		}
		its, err := expr.EnumerateITs(g, true)
		if err != nil {
			t.Fatalf("seed %d: EnumerateITs: %v", seed, err)
		}
		if a := core.AnalyzeGraph(g); !a.Free {
			t.Fatalf("seed %d: nice graph not certified free: %s", seed, a)
		}

		// Alternate plain and dangling-heavy databases: spilled runs must
		// agree with the in-memory bag whether or not most tuples dangle.
		db := workload.RandomDB(rnd, g, 6)
		if attempt%2 == 1 {
			db = workload.RandomDanglingDB(rnd, g, 6, 0.5+rnd.Float64()*0.4)
		}
		o := New(catalogFor(db))
		o.Cache = plancache.New(metamorphicITCap)
		o.Spill = true

		ref, err := its[0].Eval(db)
		if err != nil {
			t.Fatalf("seed %d: Eval: %v", seed, err)
		}
		p, _, err := o.PlanQueryTrace(its[0])
		if err != nil {
			t.Fatalf("seed %d: PlanQueryTrace: %v", seed, err)
		}
		mem, _, err := execute(nil, o, p)
		if err != nil {
			t.Fatalf("seed %d: unbudgeted execute: %v", seed, err)
		}
		if !mem.EqualBag(ref) {
			t.Fatalf("seed %d: in-memory execution differs from the algebra\ngraph:\n%s", seed, g)
		}

		// 96 bytes admits one ~80-byte row and trips on the second: every
		// blocking operator in the plan is forced through its spill path.
		dir := t.TempDir()
		gov := exec.NewGovernor(0, 96)
		ec := exec.NewExecContext(context.Background(), gov)
		ec.EnableSpill(exec.SpillConfig{Dir: dir})
		got, _, err := execute(ec, o, p)
		if err != nil {
			t.Fatalf("seed %d: spilled execute: %v\ngraph:\n%s", seed, err, g)
		}
		if !got.EqualBag(ref) {
			t.Fatalf("seed %d: spilled execution differs from the algebra\ngraph:\n%s", seed, g)
		}
		if gov.UsedRows() != 0 || gov.UsedBytes() != 0 || gov.UsedSpillBytes() != 0 {
			t.Fatalf("seed %d: governor not drained: rows=%d bytes=%d spill=%d",
				seed, gov.UsedRows(), gov.UsedBytes(), gov.UsedSpillBytes())
		}
		if files, _ := filepath.Glob(filepath.Join(dir, "ojspill-*")); len(files) != 0 {
			t.Fatalf("seed %d: run files leaked: %v", seed, files)
		}
		success++
	}
	if obs.SpillRuns.Value() == runs0 {
		t.Error("the suite never actually spilled; the budget is not forcing the disk path")
	}
	t.Logf("verified %d spilled instances", success)
}
