package exec

import (
	"fmt"
	"sync"
	"testing"

	"freejoin/internal/relation"
)

// TestInstrumentStats checks the per-operator accounting: rows out, base
// tuples attributed by counter deltas (inclusive at the join, exclusive
// via SelfTuples), and peak buffered rows on a blocking operator.
func TestInstrumentStats(t *testing.T) {
	rt, st := contractTables(t)
	var c Counters
	rk, sk := relation.A("R", "k"), relation.A("S", "k")

	wrapR := Instrument(NewBatchScan(rt, &c, 0), "scan R", &c)
	wrapS := Instrument(NewBatchScan(st, &c, 0), "scan S", &c)
	hj, err := NewBatchHashJoin(wrapR, wrapS, []relation.Attr{rk}, []relation.Attr{sk}, nil, InnerMode, 0)
	if err != nil {
		t.Fatal(err)
	}
	root := Instrument(hj, "join", &c, wrapR.Node(), wrapS.Node())

	out, err := Collect(root, &c)
	if err != nil {
		t.Fatal(err)
	}
	n := root.Node()
	if got := n.Stats.RowsOut; got != int64(out.Len()) {
		t.Errorf("join RowsOut = %d, want %d", got, out.Len())
	}
	if got := wrapR.Node().Stats.TuplesRetrieved; got != int64(rt.Relation().Len()) {
		t.Errorf("scan R tuples = %d, want %d", got, rt.Relation().Len())
	}
	if got := wrapS.Node().Stats.TuplesRetrieved; got != int64(st.Relation().Len()) {
		t.Errorf("scan S tuples = %d, want %d", got, st.Relation().Len())
	}
	// Inclusive at the root covers both scans; the join itself touches no
	// base table.
	if got, want := n.Stats.TuplesRetrieved, int64(rt.Relation().Len()+st.Relation().Len()); got != want {
		t.Errorf("join inclusive tuples = %d, want %d", got, want)
	}
	if got := n.SelfTuples(); got != 0 {
		t.Errorf("hash join SelfTuples = %d, want 0", got)
	}
	if got, want := n.RowsIn(), wrapR.Node().Stats.RowsOut+wrapS.Node().Stats.RowsOut; got != want {
		t.Errorf("join RowsIn = %d, want %d", got, want)
	}
	if n.Stats.PeakBuffered == 0 {
		t.Error("hash join PeakBuffered = 0, want > 0 (it materializes the build side)")
	}
	if !n.Executed() || n.Stats.Opens != 1 {
		t.Errorf("join Opens = %d, want 1", n.Stats.Opens)
	}
	// The join rows fit one default-size batch: NextCalls counts that
	// batch and the end-of-stream call.
	if got := n.Stats.NextCalls; got != 2 {
		t.Errorf("join NextCalls = %d, want 2", got)
	}
}

// TestInstrumentIndexJoinAttribution checks that an index join's lookups
// are attributed to the join itself, not to any child — the paper's
// Example 1 effect made visible per operator.
func TestInstrumentIndexJoinAttribution(t *testing.T) {
	rt, st := contractTables(t)
	var c Counters
	rk := relation.A("R", "k")

	wrapR := Instrument(NewBatchScan(rt, &c, 0), "scan R", &c)
	ij, err := NewBatchIndexJoin(wrapR, st, "k", rk, nil, InnerMode, &c, 0)
	if err != nil {
		t.Fatal(err)
	}
	root := Instrument(ij, "indexjoin", &c, wrapR.Node())
	out, err := Collect(root, &c)
	if err != nil {
		t.Fatal(err)
	}
	// Matches: R keys 2,2,3 hit S rows {2a,2b,3c} → 2+2+1 lookups retrieved.
	if got := root.Node().SelfTuples(); got != int64(out.Len()) {
		t.Errorf("index join SelfTuples = %d, want %d (one per fetched match)", got, out.Len())
	}
	if got := wrapR.Node().Stats.TuplesRetrieved; got != int64(rt.Relation().Len()) {
		t.Errorf("outer scan tuples = %d, want %d", got, rt.Relation().Len())
	}
}

// TestInstrumentedParallelRace runs several instrumented hash-join trees
// concurrently (each with its own Counters). Under `go test -race` this
// proves the instrumentation and the operators share no unsynchronized
// state (the batch slab pool and the process metrics are shared).
func TestInstrumentedParallelRace(t *testing.T) {
	rt, st := contractTables(t)
	rk, sk := relation.A("R", "k"), relation.A("S", "k")
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var c Counters
			wrapR := Instrument(NewBatchScan(rt, &c, 0), "scan R", &c)
			wrapS := Instrument(NewBatchScan(st, &c, 0), "scan S", &c)
			pj, err := NewBatchHashJoin(wrapR, wrapS, []relation.Attr{rk}, []relation.Attr{sk}, nil, InnerMode, 2)
			if err != nil {
				errs <- err
				return
			}
			root := Instrument(pj, "join", &c, wrapR.Node(), wrapS.Node())
			out, err := Collect(root, &c)
			if err != nil {
				errs <- err
				return
			}
			if root.Node().Stats.RowsOut != int64(out.Len()) {
				errs <- fmt.Errorf("RowsOut = %d, want %d", root.Node().Stats.RowsOut, out.Len())
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestInstrumentStatsResetOnReopen drives an instrumented hash join
// into the grace-hash degradation (a tiny byte budget with spill on)
// and re-opens it: the second cycle's stats — NextCalls, RowsOut,
// TuplesRetrieved, and SpillStats — must describe that cycle alone, not
// accumulate onto the first. Opens stays cumulative: it counts cycles.
func TestInstrumentStatsResetOnReopen(t *testing.T) {
	rt, st := contractTables(t)
	var c Counters
	rk, sk := relation.A("R", "k"), relation.A("S", "k")
	hj, err := NewBatchHashJoin(NewBatchScan(rt, &c, 0), NewBatchScan(st, &c, 0), []relation.Attr{rk}, []relation.Attr{sk}, nil, InnerMode, 0)
	if err != nil {
		t.Fatal(err)
	}
	root := Instrument(hj, "join", &c)
	ec, gov, dir := spillCtx(t, 120)

	drain := func() int {
		t.Helper()
		rows := 0
		if err := root.Open(ec); err != nil {
			t.Fatal(err)
		}
		for {
			b, ok, err := root.NextBatch()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			rows += b.Len()
		}
		if err := root.Close(); err != nil {
			t.Fatal(err)
		}
		return rows
	}

	rows1 := drain()
	first := root.Node().Stats
	if rows1 == 0 {
		t.Fatal("join produced no rows")
	}
	if !first.Spill.Spilled() {
		t.Fatalf("budget of 120 bytes did not force the grace-hash path: %+v", first.Spill)
	}
	rows2 := drain()
	second := root.Node().Stats
	if rows2 != rows1 {
		t.Fatalf("re-opened join changed its output: %d rows then %d", rows1, rows2)
	}
	if second.Opens != 2 {
		t.Errorf("Opens = %d, want 2 (cumulative across cycles)", second.Opens)
	}
	// Everything else is per-cycle: equal to the first run, not doubled.
	first.Opens, second.Opens = 0, 0
	first.WallTime, second.WallTime = 0, 0
	if first != second {
		t.Errorf("re-Open accumulated stats instead of resetting:\nfirst  %+v\nsecond %+v", first, second)
	}
	checkSpillDrained(t, gov, dir)
}
