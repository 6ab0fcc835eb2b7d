package spill

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"freejoin/internal/relation"
	"freejoin/internal/resource"
)

func randomValue(rnd *rand.Rand) relation.Value {
	switch rnd.Intn(6) {
	case 0:
		return relation.Null()
	case 1:
		return relation.Bool(rnd.Intn(2) == 0)
	case 2:
		return relation.Int(rnd.Int63() - rnd.Int63())
	case 3:
		return relation.Float(math.Float64frombits(rnd.Uint64()))
	case 4:
		return relation.Str("")
	default:
		b := make([]byte, rnd.Intn(40))
		rnd.Read(b)
		return relation.Str(string(b))
	}
}

// identical is Value.Identical plus bit-exact NaN equality (NaN != NaN
// under ==, but the codec must still round-trip the bits).
func identical(a, b relation.Value) bool {
	if a.Kind() == relation.KindFloat && b.Kind() == relation.KindFloat {
		return math.Float64bits(a.AsFloat()) == math.Float64bits(b.AsFloat())
	}
	return a.Identical(b)
}

func spillCtx(t *testing.T, gov *resource.Governor) *resource.ExecContext {
	t.Helper()
	ec := resource.NewContext(nil, gov)
	ec.EnableSpill(resource.SpillConfig{Dir: t.TempDir()})
	return ec
}

// Every value kind must round-trip exactly through a run file,
// including NaN floats, empty and binary strings, and zero-arity rows.
func TestRunRoundTrip(t *testing.T) {
	rnd := rand.New(rand.NewSource(27))
	ec := spillCtx(t, nil)
	var want [][]relation.Value
	w, err := NewWriter(ec, "test")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		row := make([]relation.Value, rnd.Intn(6))
		for j := range row {
			row[j] = randomValue(rnd)
		}
		if err := w.Append(row); err != nil {
			t.Fatal(err)
		}
		want = append(want, row)
	}
	run, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if run.Rows != int64(len(want)) {
		t.Fatalf("run.Rows = %d, want %d", run.Rows, len(want))
	}
	// Two sequential scans must both see the full content.
	for scan := 0; scan < 2; scan++ {
		rd, err := run.Open()
		if err != nil {
			t.Fatal(err)
		}
		for i, wrow := range want {
			row, ok, err := rd.Next(nil)
			if err != nil || !ok {
				t.Fatalf("scan %d row %d: ok=%v err=%v", scan, i, ok, err)
			}
			if len(row) != len(wrow) {
				t.Fatalf("scan %d row %d: arity %d, want %d", scan, i, len(row), len(wrow))
			}
			for j := range row {
				if !identical(row[j], wrow[j]) {
					t.Fatalf("scan %d row %d col %d: %v (%s), want %v (%s)",
						scan, i, j, row[j], row[j].Kind(), wrow[j], wrow[j].Kind())
				}
			}
		}
		if _, ok, err := rd.Next(nil); ok || err != nil {
			t.Fatalf("scan %d: expected clean EOF, ok=%v err=%v", scan, ok, err)
		}
		if err := rd.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// A caller buffer is appended to: one scan decodes every row end to
	// end into a single slab, the way a hash join loads its arena.
	rd, err := run.Open()
	if err != nil {
		t.Fatal(err)
	}
	var flat, slab []relation.Value
	for _, row := range want {
		flat = append(flat, row...)
	}
	for {
		next, ok, err := rd.Next(slab)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		slab = next
	}
	rd.Close()
	if len(slab) != len(flat) {
		t.Fatalf("appending scan decoded %d values, want %d", len(slab), len(flat))
	}
	for i := range flat {
		if !identical(slab[i], flat[i]) {
			t.Fatalf("appending scan value %d: %v, want %v", i, slab[i], flat[i])
		}
	}
	run.Drop(ec)
}

// The writer charges the governor's spill budget per encoded row; Drop
// releases it. Exceeding the budget surfaces a typed SpillExceeded and
// Abort rolls the partial charge back.
func TestSpillBudget(t *testing.T) {
	gov := resource.NewGovernor(0, 0)
	gov.SetSpillLimit(64)
	ec := spillCtx(t, gov)

	w, err := NewWriter(ec, "test")
	if err != nil {
		t.Fatal(err)
	}
	row := []relation.Value{relation.Str("0123456789012345678901234567890123456789")}
	if err := w.Append(row); err != nil {
		t.Fatal(err)
	}
	if gov.UsedSpillBytes() == 0 {
		t.Fatal("Append did not charge the spill budget")
	}
	err = w.Append(row)
	var re *resource.ResourceError
	if !errors.As(err, &re) || re.Kind != resource.SpillExceeded {
		t.Fatalf("second Append = %v, want SpillExceeded", err)
	}
	w.Abort()
	if got := gov.UsedSpillBytes(); got != 0 {
		t.Fatalf("after Abort: %d spill bytes still held", got)
	}

	// Within budget: Finish transfers the charge to the Run, Drop frees it.
	w, err = NewWriter(ec, "test")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(row); err != nil {
		t.Fatal(err)
	}
	run, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if got := gov.UsedSpillBytes(); got != run.Bytes {
		t.Fatalf("after Finish: %d spill bytes held, want %d", got, run.Bytes)
	}
	run.Drop(ec)
	run.Drop(ec) // idempotent
	if got := gov.UsedSpillBytes(); got != 0 {
		t.Fatalf("after Drop: %d spill bytes still held", got)
	}
}

// Run files live in the configured directory and are gone after Drop /
// Abort — the temp-dir leak check the make target relies on.
func TestSpillFileLifecycle(t *testing.T) {
	dir := t.TempDir()
	ec := resource.NewContext(nil, nil)
	ec.EnableSpill(resource.SpillConfig{Dir: dir})

	files := func() []string {
		m, err := filepath.Glob(filepath.Join(dir, "ojspill-*"))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	w, err := NewWriter(ec, "test")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]relation.Value{relation.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if len(files()) != 1 {
		t.Fatalf("expected 1 run file, got %v", files())
	}
	run, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	w.Abort() // no-op after Finish: must not unlink the sealed run
	if len(files()) != 1 {
		t.Fatalf("Abort after Finish removed the sealed run: %v", files())
	}
	rd, err := run.Open()
	if err != nil {
		t.Fatal(err)
	}
	run.Drop(ec) // open reader keeps working on the unlinked file
	if len(files()) != 0 {
		t.Fatalf("expected no run files after Drop, got %v", files())
	}
	if _, ok, err := rd.Next(nil); !ok || err != nil {
		t.Fatalf("read after Drop: ok=%v err=%v", ok, err)
	}
	rd.Close()

	w, err = NewWriter(ec, "test")
	if err != nil {
		t.Fatal(err)
	}
	w.Abort()
	if len(files()) != 0 {
		t.Fatalf("expected no run files after Abort, got %v", files())
	}
}

// A truncated run surfaces a decode error instead of a silent short read.
func TestTruncatedRun(t *testing.T) {
	ec := spillCtx(t, nil)
	w, err := NewWriter(ec, "test")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]relation.Value{relation.Str("hello world")}); err != nil {
		t.Fatal(err)
	}
	run, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	rd, err := run.Open()
	if err != nil {
		t.Fatal(err)
	}
	path := rd.f.Name()
	rd.Close()
	if err := os.Truncate(path, run.Bytes-4); err != nil {
		t.Fatal(err)
	}
	rd, err = run.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	if _, ok, err := rd.Next(nil); err == nil {
		t.Fatalf("truncated run read: ok=%v, want error", ok)
	}
	run.Drop(ec)
}

// A spill directory that does not exist yet must be created on first
// use, not surface as an abort mid-query.
func TestWriterCreatesMissingDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "not", "yet", "created")
	ec := resource.NewContext(nil, nil)
	ec.EnableSpill(resource.SpillConfig{Dir: dir})
	w, err := NewWriter(ec, "test")
	if err != nil {
		t.Fatalf("NewWriter into a missing dir: %v", err)
	}
	if err := w.Append([]relation.Value{relation.Int(1)}); err != nil {
		t.Fatal(err)
	}
	run, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	rd, err := run.Open()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := rd.Next(nil); err != nil || !ok {
		t.Fatalf("Next: ok=%v err=%v", ok, err)
	}
	rd.Close()
	run.Drop(ec)
	if files, _ := filepath.Glob(filepath.Join(dir, "ojspill-*")); len(files) != 0 {
		t.Fatalf("run files leaked: %v", files)
	}
	_ = os.RemoveAll(dir)
}

// Startup sweep: run files orphaned by a dead process (old mtime) are
// removed; fresh files — possibly owned by a live process sharing the
// directory — and non-spill files survive.
func TestSweepStale(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string, age time.Duration) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		old := time.Now().Add(-age)
		if err := os.Chtimes(path, old, old); err != nil {
			t.Fatal(err)
		}
		return path
	}
	stale1 := mk(Prefix+"dead1.run", 2*time.Hour)
	stale2 := mk(Prefix+"dead2.run", 90*time.Minute)
	fresh := mk(Prefix+"live.run", time.Minute)
	other := mk("unrelated.dat", 3*time.Hour)

	n, err := SweepStale(dir, 0) // 0 = DefaultStaleAge (1h)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("swept %d files; want 2", n)
	}
	for _, gone := range []string{stale1, stale2} {
		if _, err := os.Stat(gone); !os.IsNotExist(err) {
			t.Errorf("%s survived the sweep", gone)
		}
	}
	for _, kept := range []string{fresh, other} {
		if _, err := os.Stat(kept); err != nil {
			t.Errorf("%s was wrongly swept: %v", kept, err)
		}
	}
	// A second sweep finds nothing; a missing directory is not an error.
	if n, err := SweepStale(dir, 0); err != nil || n != 0 {
		t.Fatalf("re-sweep = (%d, %v); want (0, nil)", n, err)
	}
	if n, err := SweepStale(filepath.Join(dir, "nope"), 0); err != nil || n != 0 {
		t.Fatalf("missing-dir sweep = (%d, %v); want (0, nil)", n, err)
	}
	// An explicit age overrides the default: everything older than 30s.
	mkOld := mk(Prefix+"recent.run", 10*time.Minute)
	if n, err := SweepStale(dir, 30*time.Second); err != nil || n != 2 {
		t.Fatalf("aged sweep = (%d, %v); want (2, nil) [%s, %s]", n, err, fresh, mkOld)
	}
}
