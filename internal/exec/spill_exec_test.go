package exec

import (
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"testing"

	"freejoin/internal/predicate"
	"freejoin/internal/relation"
	"freejoin/internal/storage"
)

// Spill-to-disk correctness: every blocking operator run under a byte
// budget that previously produced MemoryExceeded must now complete by
// spilling, produce a bag identical to the unbudgeted run, report its
// spill activity through SpillStats, return every spill-budget byte,
// and leave no run files behind.

// spillCtx builds a governed context with a tiny byte budget and
// spilling directed at a per-test temp dir.
func spillCtx(t *testing.T, limitBytes int64) (*ExecContext, *Governor, string) {
	t.Helper()
	dir := t.TempDir()
	gov := NewGovernor(0, limitBytes)
	ec := NewExecContext(context.Background(), gov)
	ec.EnableSpill(SpillConfig{Dir: dir})
	return ec, gov, dir
}

// checkSpillDrained asserts the post-Close spill obligations: memory and
// spill budgets fully returned, no ojspill-* files left in dir.
func checkSpillDrained(t *testing.T, gov *Governor, dir string) {
	t.Helper()
	if n := gov.UsedRows(); n != 0 {
		t.Errorf("governor holds %d rows after Close", n)
	}
	if n := gov.UsedBytes(); n != 0 {
		t.Errorf("governor holds %d bytes after Close", n)
	}
	if n := gov.UsedSpillBytes(); n != 0 {
		t.Errorf("governor holds %d spill bytes after Close", n)
	}
	files, err := filepath.Glob(filepath.Join(dir, "ojspill-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 0 {
		t.Errorf("%d run files leaked in %s: %v", len(files), dir, files)
	}
}

// spillTables builds R(k,v) and S(k,w) with duplicate keys, nulls, and
// enough rows that a few-hundred-byte budget cannot hold either side.
func spillTables(t *testing.T, nr, ns int) (*storage.Table, *storage.Table) {
	t.Helper()
	rnd := rand.New(rand.NewSource(41))
	r := relation.New(relation.SchemeOf("R", "k", "v"))
	for i := 0; i < nr; i++ {
		k := relation.Int(int64(rnd.Intn(12)))
		if rnd.Intn(9) == 0 {
			k = relation.Null()
		}
		r.AppendRaw([]relation.Value{k, relation.Int(int64(i))})
	}
	s := relation.New(relation.SchemeOf("S", "k", "w"))
	for i := 0; i < ns; i++ {
		k := relation.Int(int64(rnd.Intn(12)))
		if rnd.Intn(9) == 0 {
			k = relation.Null()
		}
		s.AppendRaw([]relation.Value{k, relation.Str("w" + string(rune('a'+i%26)))})
	}
	return storage.NewTable("R", r), storage.NewTable("S", s)
}

// spiller digs the operator out of wrappers to read its SpillStats.
func spillInfo(t *testing.T, it Iterator) SpillStats {
	t.Helper()
	sp, ok := it.(Spiller)
	if !ok {
		t.Fatalf("%T does not implement Spiller", it)
	}
	return sp.SpillInfo()
}

func TestGraceHashJoinSpill(t *testing.T) {
	rt, st := spillTables(t, 300, 300)
	for _, mode := range []JoinMode{InnerMode, LeftOuterMode, SemiMode, AntiMode} {
		t.Run(mode.String(), func(t *testing.T) {
			// A small batch size trips with rows already in the arena; the
			// default one trips on the first build batch.
			for _, size := range []int{0, 16} {
				graceCase(t, rt, st, mode, size)
			}
		})
	}
}

func graceCase(t *testing.T, rt, st *storage.Table, mode JoinMode, size int) {
	t.Helper()
	rk := relation.A("R", "k")
	sk := relation.A("S", "k")
	mk := func() *BatchHashJoin {
		h, err := NewBatchHashJoin(NewBatchScan(rt, nil, size), NewBatchScan(st, nil, size),
			[]relation.Attr{rk}, []relation.Attr{sk}, nil, mode, size)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	want := refFor(t, mode, rt.Relation(), st.Relation(), predicate.Eq(rk, sk))

	ec, gov, dir := spillCtx(t, 600)
	h := mk()
	got, err := CollectCtx(ec, h, nil)
	if err != nil {
		t.Fatalf("grace hash join failed: %v", err)
	}
	if !want.EqualBag(got) {
		t.Errorf("grace bag differs: want %d rows, got %d\nwant:\n%vgot:\n%v",
			want.Len(), got.Len(), want, got)
	}
	sp := h.SpillInfo()
	if !sp.Spilled() || sp.Partitions == 0 {
		t.Errorf("grace join should report runs and partitions, got %+v", sp)
	}
	checkSpillDrained(t, gov, dir)

	if !hasEvent(gov, "grace hash join spilling") {
		t.Error("grace degradation should be noted as a governor event")
	}
}

// TestGraceHashJoinSkew: every row shares one key, so no amount of
// re-partitioning shrinks the partition. The join must bottom out in the
// block-nested streaming fallback and still complete correctly.
func TestGraceHashJoinSkew(t *testing.T) {
	r := relation.New(relation.SchemeOf("R", "k", "v"))
	s := relation.New(relation.SchemeOf("S", "k", "w"))
	for i := 0; i < 120; i++ {
		r.AppendRaw([]relation.Value{relation.Int(7), relation.Int(int64(i))})
		s.AppendRaw([]relation.Value{relation.Int(7), relation.Int(int64(i * 2))})
	}
	// A null-key probe row exercises the outer/anti null-key pair.
	r.AppendRaw([]relation.Value{relation.Null(), relation.Int(-1)})
	rt, st := storage.NewTable("R", r), storage.NewTable("S", s)
	rk := relation.A("R", "k")
	sk := relation.A("S", "k")
	for _, mode := range []JoinMode{InnerMode, LeftOuterMode, SemiMode, AntiMode} {
		t.Run(mode.String(), func(t *testing.T) {
			const size = 8
			mk := func() *BatchHashJoin {
				h, err := NewBatchHashJoin(NewBatchScan(rt, nil, size), NewBatchScan(st, nil, size),
					[]relation.Attr{rk}, []relation.Attr{sk}, nil, mode, size)
				if err != nil {
					t.Fatal(err)
				}
				return h
			}
			want := refFor(t, mode, r, s, predicate.Eq(rk, sk))
			ec, gov, dir := spillCtx(t, 400)
			h := mk()
			got, err := CollectCtx(ec, h, nil)
			if err != nil {
				t.Fatalf("skewed grace join failed: %v", err)
			}
			if !want.EqualBag(got) {
				t.Errorf("skewed grace bag differs: want %d rows, got %d", want.Len(), got.Len())
			}
			if !hasEvent(gov, "block-nested streaming") {
				t.Errorf("skewed partition should bottom out in the run scan; events %v", gov.Events())
			}
			checkSpillDrained(t, gov, dir)
		})
	}
}

func TestNestedLoopJoinSpill(t *testing.T) {
	rt, st := spillTables(t, 60, 200)
	pred := predicate.Eq(relation.A("R", "k"), relation.A("S", "k"))
	for _, mode := range []JoinMode{InnerMode, LeftOuterMode, SemiMode, AntiMode} {
		t.Run(mode.String(), func(t *testing.T) {
			for _, size := range []int{0, 16} {
				nestedLoopSpillCase(t, rt, st, pred, mode, size)
			}
		})
	}
}

func nestedLoopSpillCase(t *testing.T, rt, st *storage.Table, pred predicate.Predicate, mode JoinMode, size int) {
	t.Helper()
	mk := func() *BatchNestedLoopJoin {
		n, err := NewBatchNestedLoopJoin(NewBatchScan(rt, nil, size), NewBatchScan(st, nil, size), pred, mode, size)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	want := refFor(t, mode, rt.Relation(), st.Relation(), pred)
	ec, gov, dir := spillCtx(t, 500)
	n := mk()
	got, err := CollectCtx(ec, n, nil)
	if err != nil {
		t.Fatalf("spilled nested loop failed: %v", err)
	}
	if !want.EqualBag(got) {
		t.Errorf("spilled NL bag differs: want %d rows, got %d", want.Len(), got.Len())
	}
	if sp := n.SpillInfo(); !sp.Spilled() {
		t.Errorf("nested loop should report its spilled inner run, got %+v", sp)
	}
	checkSpillDrained(t, gov, dir)
}

// TestSpillBudgetExceeded: the spill-bytes budget is itself governed;
// when it is too small the run must abort with a typed SpillExceeded
// error and still clean up every file and reservation.
func TestSpillBudgetExceeded(t *testing.T) {
	rt, st := spillTables(t, 1000, 1000)
	h, err := NewBatchHashJoin(NewBatchScan(rt, nil, 0), NewBatchScan(st, nil, 0),
		[]relation.Attr{relation.A("R", "k")}, []relation.Attr{relation.A("S", "k")}, nil, InnerMode, 0)
	if err != nil {
		t.Fatal(err)
	}
	ec, gov, dir := spillCtx(t, 512)
	gov.SetSpillLimit(2048) // a fraction of what 1000 build rows need
	_, cerr := CollectCtx(ec, h, nil)
	var re *ResourceError
	if !errors.As(cerr, &re) || re.Kind != SpillExceeded {
		t.Fatalf("want SpillExceeded, got %v", cerr)
	}
	checkSpillDrained(t, gov, dir)
}

// TestFailedOpenDrainsGovernor is the regression for the hash-join
// partial-build leak: when any child fault makes an operator's Open
// fail, every governor charge taken during that Open must already be
// released when Open returns — before Close runs — across the whole
// operator inventory and every child position.
func TestFailedOpenDrainsGovernor(t *testing.T) {
	rt, st := contractTables(t)
	var c Counters
	faults := []struct {
		name string
		f    Fault
	}{
		{"open", Fault{FailOpen: true}},
		{"next-first", Fault{FailNext: true, FailAfter: 0}},
		{"next-midstream", Fault{FailNext: true, FailAfter: 2}},
	}
	for name, fc := range operatorRegistry(t, rt, st, &c) {
		for pos := 0; pos < fc.children; pos++ {
			for _, fault := range faults {
				t.Run(name+"/"+fault.name, func(t *testing.T) {
					ch, _ := buildChildren(rt, st, fc.children, pos, fault.f)
					it := fc.build(t, ch)
					gov := NewGovernor(0, 0)
					err := it.Open(NewExecContext(context.Background(), gov))
					if err == nil {
						// Streaming operators defer the fault to Next; that
						// path is covered by TestErrorPathContract.
						it.Close()
						return
					}
					if n := gov.UsedRows(); n != 0 {
						t.Errorf("failed Open left %d rows charged before Close", n)
					}
					if n := gov.UsedBytes(); n != 0 {
						t.Errorf("failed Open left %d bytes charged before Close", n)
					}
					it.Close()
					if gov.UsedRows() != 0 || gov.UsedBytes() != 0 {
						t.Error("Close re-acquired or failed to keep governor drained")
					}
				})
			}
		}
	}
}

// TestTripDuringOpenCloseSafe: every buffering operator whose Open (or
// first NextBatch) trips a 1-row budget must survive Close — twice —
// with buffers released and the governor drained.
func TestTripDuringOpenCloseSafe(t *testing.T) {
	const size = 0
	rt, st := contractTables(t)
	rk := relation.A("R", "k")
	sk := relation.A("S", "k")
	builders := map[string]func(t *testing.T) Iterator{
		"nestedloop": func(t *testing.T) Iterator {
			n, err := NewBatchNestedLoopJoin(NewBatchScan(rt, nil, size), NewBatchScan(st, nil, size),
				predicate.Eq(rk, sk), InnerMode, size)
			if err != nil {
				t.Fatal(err)
			}
			return n
		},
		"goj": func(t *testing.T) Iterator {
			g, err := NewGOJ(NewBatchScan(rt, nil, size), NewBatchScan(st, nil, size),
				predicate.Eq(rk, sk), []relation.Attr{rk}, size)
			if err != nil {
				t.Fatal(err)
			}
			return g
		},
	}
	for _, mode := range []JoinMode{InnerMode, LeftOuterMode, SemiMode, AntiMode} {
		mode := mode
		builders["hashjoin-"+mode.String()] = func(t *testing.T) Iterator {
			h, err := NewBatchHashJoin(NewBatchScan(rt, nil, size), NewBatchScan(st, nil, size),
				[]relation.Attr{rk}, []relation.Attr{sk}, nil, mode, size)
			if err != nil {
				t.Fatal(err)
			}
			return h
		}
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			it := build(t)
			gov := NewGovernor(1, 0)
			err := it.Open(NewExecContext(context.Background(), gov))
			if err == nil {
				// Streaming operators trip at Next instead.
				for {
					_, ok, nerr := it.NextBatch()
					if nerr != nil {
						err = nerr
						break
					}
					if !ok {
						break
					}
				}
			}
			var re *ResourceError
			if !errors.As(err, &re) || re.Kind != MemoryExceeded {
				t.Fatalf("want a MemoryExceeded trip, got %v", err)
			}
			if cerr := it.Close(); cerr != nil {
				t.Fatalf("Close after trip: %v", cerr)
			}
			if cerr := it.Close(); cerr != nil {
				t.Fatalf("second Close after trip: %v", cerr)
			}
			if b, ok := it.(Buffered); ok && b.BufferedRows() != 0 {
				t.Errorf("BufferedRows = %d after Close", b.BufferedRows())
			}
			if gov.UsedRows() != 0 || gov.UsedBytes() != 0 {
				t.Errorf("governor not drained: rows=%d bytes=%d", gov.UsedRows(), gov.UsedBytes())
			}
		})
	}
}

// TestSpillFaultOracle reruns the fault-injection matrix with spilling
// enabled under a tiny byte budget: whatever faults are injected, a
// governed spilled run either fails with the injected error or produces
// exactly the bag of the clean in-memory run — and always tears down
// files and reservations.
func TestSpillFaultOracle(t *testing.T) {
	rt, st := contractTables(t)
	var c Counters
	faults := []Fault{
		{},
		{FailOpen: true},
		{FailNext: true, FailAfter: 0},
		{FailNext: true, FailAfter: 2},
		{FailClose: true},
		{Prob: 0.4, Seed: 3},
		{Prob: 0.4, Seed: 9},
	}
	for name, fc := range operatorRegistry(t, rt, st, &c) {
		// Clean reference bag, in memory and ungoverned.
		chRef, _ := buildChildren(rt, st, fc.children, -1, Fault{})
		ref, err := Collect(fc.build(t, chRef), nil)
		if err != nil {
			t.Fatalf("%s: clean run failed: %v", name, err)
		}
		for pos := 0; pos < fc.children; pos++ {
			for fi, fault := range faults {
				t.Run(name, func(t *testing.T) {
					ch, fis := buildChildren(rt, st, fc.children, pos, fault)
					it := fc.build(t, ch)
					ec, gov, dir := spillCtx(t, 300)
					got, err := CollectCtx(ec, it, nil)
					var re *ResourceError
					if err == nil {
						if !ref.EqualBag(got) {
							t.Errorf("fault %d: spilled bag differs from clean in-memory run\nwant %d rows, got %d",
								fi, ref.Len(), got.Len())
						}
					} else if !errors.Is(err, errInjected) &&
						!(errors.As(err, &re) && re.Kind == MemoryExceeded) {
						// State without a spill path (the GOJ's projection
						// set) may trip the budget; that is a typed, clean
						// failure, not an oracle violation.
						t.Errorf("fault %d: error is neither injected nor a typed trip: %v", fi, err)
					}
					checkInvariants(t, it, fis, gov)
					checkSpillDrained(t, gov, dir)
				})
			}
		}
	}
}
