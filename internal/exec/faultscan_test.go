package exec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"freejoin/internal/obs"
	"freejoin/internal/relation"
	"freejoin/internal/storage"
)

// Fault injection for the executor's error-path suites: a wrapper that
// makes an iterator fail on demand — on Open, on Close, on the batch
// that would deliver a given row, or probabilistically from a seeded
// RNG — and audits how its parent drives it.

// errInjected is the default error produced by an injected fault.
var errInjected = errors.New("exec: injected fault")

// Fault configures where a faultIterator fails. The zero value injects
// nothing.
type Fault struct {
	// FailOpen makes Open fail (the inner iterator is not opened).
	FailOpen bool
	// FailClose makes Close fail (after closing the inner iterator).
	FailClose bool
	// FailNext makes the NextBatch call that would deliver row FailAfter
	// (counting from 0) fail, or the end-of-stream call once FailAfter
	// rows have been delivered; FailAfter 0 fails the first call.
	FailNext  bool
	FailAfter int
	// Prob injects a failure on each NextBatch with this probability,
	// drawn from a rand.Rand seeded with Seed (deterministic per seed).
	Prob float64
	Seed int64
	// Err overrides the injected error; nil means errInjected.
	Err error
	// Panic makes a firing fault panic instead of returning an error —
	// the adversarial case the server's per-session panic isolation must
	// absorb: a panic out of an operator mid-execution.
	Panic bool
}

// error mints the injected error; it is called exactly when a
// configured fault fires, so it doubles as the metrics hook. With Panic
// set it never returns.
func (f Fault) error() error {
	obs.FaultInjections.Inc()
	err := f.Err
	if err == nil {
		err = errInjected
	}
	if f.Panic {
		panic(fmt.Sprintf("exec: injected panic: %v", err))
	}
	return err
}

// faultIterator wraps an iterator and injects the configured fault. It
// also audits the caller's error contract: Open/Close call counts are
// recorded, and NextBatch calls arriving after the iterator already
// returned an error are counted as violations instead of producing rows.
type faultIterator struct {
	inner     Iterator
	fault     Fault
	rng       *rand.Rand
	opened    bool
	failed    bool
	rows      int
	succOpens int

	// OpenCalls and CloseCalls count lifecycle calls across re-opens.
	OpenCalls, CloseCalls int
	// NextAfterError counts contract violations: NextBatch after an error.
	NextAfterError int
}

// newFaultIterator wraps inner with the fault configuration.
func newFaultIterator(inner Iterator, f Fault) *faultIterator {
	return &faultIterator{inner: inner, fault: f}
}

// faultBatchSize is the batch size of faultScan: small, so the 4- and
// 5-row contract tables arrive in several batches, and a fault fires in
// the first batch (FailAfter 0) or after it (FailAfter 2).
const faultBatchSize = 2

// faultScan returns a fault-injecting scan of t.
func faultScan(t *storage.Table, f Fault) *faultIterator {
	return newFaultIterator(NewBatchScan(t, nil, faultBatchSize), f)
}

// Scheme implements Iterator.
func (fi *faultIterator) Scheme() *relation.Scheme { return fi.inner.Scheme() }

// Open implements Iterator. Re-opening resets the delivered-row count
// and the probabilistic fault's RNG.
func (fi *faultIterator) Open(ec *ExecContext) error {
	fi.OpenCalls++
	fi.failed = false
	fi.rows = 0
	if fi.fault.Prob > 0 {
		fi.rng = rand.New(rand.NewSource(fi.fault.Seed))
	}
	if fi.fault.FailOpen {
		fi.failed = true
		return fmt.Errorf("open %s: %w", fi.inner.Scheme(), fi.fault.error())
	}
	if err := fi.inner.Open(ec); err != nil {
		fi.failed = true
		return err
	}
	fi.opened = true
	fi.succOpens++
	return nil
}

// NextBatch implements Iterator.
func (fi *faultIterator) NextBatch() (*Batch, bool, error) {
	f := fi.fault
	switch {
	case fi.failed:
		fi.NextAfterError++
		return nil, false, f.error()
	case f.FailNext && fi.rows >= f.FailAfter:
		fi.failed = true
		return nil, false, fmt.Errorf("next after %d rows: %w", fi.rows, f.error())
	case fi.rng != nil && fi.rng.Float64() < f.Prob:
		fi.failed = true
		return nil, false, fmt.Errorf("next (probabilistic): %w", f.error())
	}
	b, ok, err := fi.inner.NextBatch()
	if err != nil {
		fi.failed = true
		return nil, false, err
	}
	if !ok {
		return nil, false, nil
	}
	if f.FailNext && fi.rows+b.Len() > f.FailAfter {
		fi.failed = true
		return nil, false, fmt.Errorf("batch with row %d: %w", f.FailAfter, f.error())
	}
	fi.rows += b.Len()
	return b, true, nil
}

// Close implements Iterator. The inner iterator is closed even when the
// fault makes Close itself report failure.
func (fi *faultIterator) Close() error {
	fi.CloseCalls++
	var err error
	if fi.opened {
		fi.opened = false
		err = fi.inner.Close()
	}
	if fi.fault.FailClose {
		return fmt.Errorf("close %s: %w", fi.inner.Scheme(), fi.fault.error())
	}
	return err
}

// Balanced reports whether every successful Open was matched by at least
// one Close (Close is idempotent, so extra Closes are fine; a missing
// one is a leak; a failed Open acquired nothing and needs none).
func (fi *faultIterator) Balanced() bool { return !fi.opened && fi.CloseCalls >= fi.succOpens }

// The fault wrapper's own contract.

func faultTable() *storage.Table {
	r := relation.FromRows("R", []string{"k"}, []any{1}, []any{2}, []any{3}, []any{4})
	return storage.NewTable("R", r)
}

// drainFault runs one Open → drain → Close cycle, returning the rows
// delivered before the first error.
func drainFault(fi *faultIterator) (int, error) {
	if err := fi.Open(nil); err != nil {
		return 0, err
	}
	n := 0
	for {
		b, ok, err := fi.NextBatch()
		if err != nil {
			return n, err
		}
		if !ok {
			return n, fi.Close()
		}
		n += b.Len()
	}
}

func TestFaultNone(t *testing.T) {
	fi := faultScan(faultTable(), Fault{})
	n, err := drainFault(fi)
	if err != nil || n != 4 {
		t.Fatalf("clean pass: n=%d err=%v", n, err)
	}
	if !fi.Balanced() {
		t.Error("clean pass must balance Open/Close")
	}
}

func TestFaultOpen(t *testing.T) {
	fi := faultScan(faultTable(), Fault{FailOpen: true})
	err := fi.Open(nil)
	if !errors.Is(err, errInjected) {
		t.Fatalf("open fault = %v", err)
	}
	if fi.Close() != nil {
		t.Error("close after failed open must succeed (inner never opened)")
	}
}

// TestFaultAfterRows: with two rows per batch, FailAfter 2 delivers the
// first batch and fails the second, FailAfter 1 fails the first batch
// (it would deliver row 1), and FailAfter 4 fails the end-of-stream
// call.
func TestFaultAfterRows(t *testing.T) {
	for after, want := range map[int]int{1: 0, 2: 2, 3: 2, 4: 4} {
		fi := faultScan(faultTable(), Fault{FailNext: true, FailAfter: after})
		n, err := drainFault(fi)
		if !errors.Is(err, errInjected) || n != want {
			t.Fatalf("after-%d fault: n=%d err=%v, want n=%d", after, n, err, want)
		}
		// A disciplined caller stops; an undisciplined one is audited.
		if fi.NextAfterError != 0 {
			t.Fatal("no violation yet")
		}
		fi.NextBatch()
		if fi.NextAfterError != 1 {
			t.Error("NextBatch after error must be counted as a violation")
		}
	}
}

func TestFaultClose(t *testing.T) {
	fi := faultScan(faultTable(), Fault{FailClose: true})
	n, err := drainFault(fi)
	if !errors.Is(err, errInjected) || n != 4 {
		t.Fatalf("close fault: n=%d err=%v", n, err)
	}
}

func TestFaultProbabilisticDeterminism(t *testing.T) {
	f := Fault{Prob: 0.3, Seed: 42}
	a, aerr := drainFault(faultScan(faultTable(), f))
	b, berr := drainFault(faultScan(faultTable(), f))
	if a != b || (aerr == nil) != (berr == nil) {
		t.Errorf("same seed must fail identically: (%d,%v) vs (%d,%v)", a, aerr, b, berr)
	}
	// Prob 1 always fails on the first NextBatch.
	n, err := drainFault(faultScan(faultTable(), Fault{Prob: 1, Seed: 7}))
	if n != 0 || !errors.Is(err, errInjected) {
		t.Errorf("prob=1: n=%d err=%v", n, err)
	}
}

func TestFaultCustomError(t *testing.T) {
	sentinel := errors.New("disk on fire")
	_, err := drainFault(faultScan(faultTable(), Fault{FailNext: true, Err: sentinel}))
	if !errors.Is(err, sentinel) {
		t.Fatalf("custom error not propagated: %v", err)
	}
}

func TestFaultIteratorHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	fi := faultScan(faultTable(), Fault{})
	if err := fi.Open(NewExecContext(ctx, nil)); err == nil {
		t.Fatal("open under a cancelled context must fail")
	}
}

func TestFaultReOpenResets(t *testing.T) {
	for _, f := range []Fault{{FailNext: true, FailAfter: 3}, {Prob: 0.3, Seed: 5}} {
		fi := faultScan(faultTable(), f)
		n1, err1 := drainFault(fi)
		fi.Close()
		n2, err2 := drainFault(fi)
		fi.Close()
		if n1 != n2 || (err1 == nil) != (err2 == nil) {
			t.Errorf("%+v: re-open must reset the fault state: (%d,%v) vs (%d,%v)", f, n1, err1, n2, err2)
		}
		if !fi.Balanced() {
			t.Errorf("%+v: re-open cycles must stay balanced", f)
		}
	}
}
