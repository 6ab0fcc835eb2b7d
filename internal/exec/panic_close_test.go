package exec

import (
	"context"
	"testing"

	"freejoin/internal/relation"
	"freejoin/internal/storage"
)

// A panic out of an operator's NextBatch mid-collection (the adversarial
// Fault{Panic: true} case) must still close the iterator on the
// unwind: the governor charges, buffers and spill state an open
// iterator holds are released by Close, and the server's per-session
// recovery above us depends on nothing leaking past the panic.
func TestCollectClosesIteratorOnPanic(t *testing.T) {
	rel := relation.New(relation.SchemeOf("R", "k"))
	for i := 0; i < 8; i++ {
		rel.AppendRaw([]relation.Value{relation.Int(int64(i))})
	}
	fi := faultScan(storage.NewTable("R", rel), Fault{FailNext: true, FailAfter: 3, Panic: true})

	gov := NewGovernor(0, 1<<20)
	ec := NewExecContext(context.Background(), gov)
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		CollectCtx(ec, fi, nil)
	}()
	if recovered == nil {
		t.Fatal("injected NextBatch panic did not propagate")
	}
	if !fi.Balanced() {
		t.Fatalf("iterator not closed on panic unwind: opens=%d closes=%d",
			fi.OpenCalls, fi.CloseCalls)
	}
	if gov.UsedBytes() != 0 {
		t.Fatalf("governor holds %d bytes after panic unwind", gov.UsedBytes())
	}
}

// The panic-safety defer must not double-close on the normal path: a
// clean collection closes exactly once.
func TestCollectClosesOnceOnSuccess(t *testing.T) {
	rel := relation.New(relation.SchemeOf("R", "k"))
	rel.AppendRaw([]relation.Value{relation.Int(1)})
	fi := faultScan(storage.NewTable("R", rel), Fault{})
	if _, err := CollectCtx(NewExecContext(context.Background(), nil), fi, nil); err != nil {
		t.Fatal(err)
	}
	if fi.CloseCalls != 1 {
		t.Fatalf("clean collection closed %d times, want exactly 1", fi.CloseCalls)
	}
}
