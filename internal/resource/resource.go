// Package resource is the executor's resource-governance layer:
// cancellation, deadlines and memory budgets. It exists below both
// internal/exec and internal/storage (which must not import each other's
// governed types), so the ExecContext threaded through every operator's
// Open, the Governor enforcing budgets, and the typed ResourceError all
// live here. Package exec re-exports them under aliases.
//
// The paper's Example 1 motivates the layer: a bad implementing tree
// retrieves 2·10⁷+1 tuples where a good one retrieves 3. A cost model
// usually steers the engine away from the bad tree, but when estimates
// are wrong the engine must survive it — a runaway plan has to be
// cancellable, deadline-bounded, and stopped before it materializes an
// unbounded intermediate result.
package resource

import (
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"freejoin/internal/obs"
)

// Kind classifies a ResourceError.
type Kind uint8

// Resource error kinds.
const (
	// Cancelled: the execution context was cancelled.
	Cancelled Kind = iota + 1
	// DeadlineExceeded: the execution deadline passed.
	DeadlineExceeded
	// MemoryExceeded: a governor memory budget (rows or bytes) tripped.
	MemoryExceeded
	// SpillExceeded: the governor's spill-bytes budget tripped — the
	// execution already moved to disk and the disk budget ran out too.
	SpillExceeded
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case Cancelled:
		return "cancelled"
	case DeadlineExceeded:
		return "deadline exceeded"
	case MemoryExceeded:
		return "memory budget exceeded"
	case SpillExceeded:
		return "spill budget exceeded"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// ResourceError is the typed error a governed execution returns when a
// limit trips. Operator is the operator type that tripped ("hashjoin",
// "goj", ...); Node, when instrumentation is attached, is the plan-node
// label of the tripping operator (filled in by the innermost
// exec.Instrumented wrapper the error crosses).
type ResourceError struct {
	Kind     Kind
	Operator string
	Node     string

	// Memory accounting at the moment of the trip (MemoryExceeded only).
	UsedRows, LimitRows   int64
	UsedBytes, LimitBytes int64

	// Err is the underlying cause (the context error for Cancelled and
	// DeadlineExceeded); may be nil for memory trips.
	Err error
}

// Error implements error.
func (e *ResourceError) Error() string {
	msg := e.Kind.String()
	if e.Operator != "" {
		msg += " in " + e.Operator
	}
	if e.Node != "" {
		msg += fmt.Sprintf(" (plan node %q)", e.Node)
	}
	if e.Kind == MemoryExceeded {
		if e.LimitRows > 0 {
			msg += fmt.Sprintf(": %d rows held, limit %d rows", e.UsedRows, e.LimitRows)
		}
		if e.LimitBytes > 0 {
			msg += fmt.Sprintf(": %d bytes held, limit %d bytes", e.UsedBytes, e.LimitBytes)
		}
	}
	if e.Kind == SpillExceeded && e.LimitBytes > 0 {
		msg += fmt.Sprintf(": %d spill bytes held, limit %d bytes", e.UsedBytes, e.LimitBytes)
	}
	return "resource: " + msg
}

// Unwrap returns the underlying cause, letting errors.Is see
// context.Canceled / context.DeadlineExceeded through the typed wrapper.
func (e *ResourceError) Unwrap() error { return e.Err }

// Governor enforces a memory budget over the rows the executor holds
// materialized at once (hash tables, join inputs, key sets). Limits
// may be expressed in rows, bytes, or both; zero means unlimited.
// Reservations are accounted with atomics so concurrent executions can
// charge one governor, and trips plus graceful degradations are recorded
// as events for EXPLAIN ANALYZE.
type Governor struct {
	limitRows  int64
	limitBytes int64
	limitSpill int64

	usedRows  atomic.Int64
	usedBytes atomic.Int64
	usedSpill atomic.Int64

	mu     sync.Mutex
	events []string
}

// NewGovernor returns a governor with the given budgets; zero disables
// the corresponding limit. A nil *Governor is valid and unlimited.
func NewGovernor(limitRows, limitBytes int64) *Governor {
	return &Governor{limitRows: limitRows, limitBytes: limitBytes}
}

// Limits returns the configured budgets (rows, bytes); zero = unlimited.
func (g *Governor) Limits() (int64, int64) {
	if g == nil {
		return 0, 0
	}
	return g.limitRows, g.limitBytes
}

// Reserve charges rows/bytes against the budget on behalf of op. When
// the charge would exceed a limit it is rolled back and a MemoryExceeded
// error describing the trip is returned. Reserve on a nil governor is a
// no-op.
func (g *Governor) Reserve(op string, rows, bytes int64) *ResourceError {
	if g == nil {
		return nil
	}
	ur := g.usedRows.Add(rows)
	ub := g.usedBytes.Add(bytes)
	if (g.limitRows > 0 && ur > g.limitRows) || (g.limitBytes > 0 && ub > g.limitBytes) {
		subClamped(&g.usedRows, rows)
		subClamped(&g.usedBytes, bytes)
		e := &ResourceError{
			Kind: MemoryExceeded, Operator: op,
			UsedRows: ur, LimitRows: g.limitRows,
			UsedBytes: ub, LimitBytes: g.limitBytes,
		}
		g.Note(e.Error())
		obs.GovernorTripsMemory.Inc()
		return e
	}
	return nil
}

// Release returns previously reserved rows/bytes to the budget. Release
// on a nil governor is a no-op.
//
// The counters clamp at zero: a double release — a re-Open after a trip
// racing a concurrent cancellation's unwind through the same operator —
// must not drive `used` negative, which would mint free budget for every
// other query sharing the governor's pool.
func (g *Governor) Release(rows, bytes int64) {
	if g == nil {
		return
	}
	subClamped(&g.usedRows, rows)
	subClamped(&g.usedBytes, bytes)
}

// subClamped subtracts n from c, flooring at zero (CAS loop so
// concurrent releases cannot jointly underflow).
func subClamped(c *atomic.Int64, n int64) {
	for {
		cur := c.Load()
		next := cur - n
		if next < 0 {
			next = 0
		}
		if c.CompareAndSwap(cur, next) {
			return
		}
	}
}

// SetSpillLimit configures the spill-bytes budget: the total size of the
// run files a spilling execution may hold on disk at once. Zero (the
// default) disables the limit. Call before execution starts; the limit
// is not synchronized against concurrent reservations.
func (g *Governor) SetSpillLimit(bytes int64) {
	if g != nil {
		g.limitSpill = bytes
	}
}

// SpillLimit returns the configured spill-bytes budget; zero = unlimited.
func (g *Governor) SpillLimit() int64 {
	if g == nil {
		return 0
	}
	return g.limitSpill
}

// ReserveSpill charges bytes of spill-file space on behalf of op. When
// the charge would exceed the spill budget it is rolled back and a
// SpillExceeded error is returned. Nil-safe.
func (g *Governor) ReserveSpill(op string, bytes int64) *ResourceError {
	if g == nil {
		return nil
	}
	ub := g.usedSpill.Add(bytes)
	if g.limitSpill > 0 && ub > g.limitSpill {
		subClamped(&g.usedSpill, bytes)
		e := &ResourceError{
			Kind: SpillExceeded, Operator: op,
			UsedBytes: ub, LimitBytes: g.limitSpill,
		}
		g.Note(e.Error())
		obs.GovernorTripsSpill.Inc()
		return e
	}
	return nil
}

// ReleaseSpill returns previously reserved spill bytes (a dropped run
// file) to the budget, clamping at zero like Release. Nil-safe.
func (g *Governor) ReleaseSpill(bytes int64) {
	if g == nil {
		return
	}
	subClamped(&g.usedSpill, bytes)
}

// UsedSpillBytes returns the spill-file bytes currently reserved.
func (g *Governor) UsedSpillBytes() int64 {
	if g == nil {
		return 0
	}
	return g.usedSpill.Load()
}

// UsedRows returns the rows currently reserved.
func (g *Governor) UsedRows() int64 {
	if g == nil {
		return 0
	}
	return g.usedRows.Load()
}

// UsedBytes returns the bytes currently reserved.
func (g *Governor) UsedBytes() int64 {
	if g == nil {
		return 0
	}
	return g.usedBytes.Load()
}

// Note records a governance event (a trip, a graceful degradation) for
// later rendering by EXPLAIN ANALYZE. Nil-safe.
func (g *Governor) Note(event string) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.events = append(g.events, event)
	g.mu.Unlock()
}

// Events returns a copy of the recorded events, in order.
func (g *Governor) Events() []string {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]string(nil), g.events...)
}

// Spill defaults, applied when the corresponding SpillConfig field is
// zero.
const (
	// DefaultSpillRecursion bounds grace-hash re-partitioning depth; a
	// partition that still cannot fit after this many re-partitionings is
	// processed by a streaming block-nested scan of its run files instead.
	DefaultSpillRecursion = 4
	// DefaultSpillPartitions is the grace-hash partitioning fanout.
	DefaultSpillPartitions = 8
)

// SpillConfig enables and parameterizes spill-to-disk execution. A nil
// *SpillConfig (the ExecContext default) means spilling is disabled and
// a memory-budget trip aborts or degrades as before.
type SpillConfig struct {
	// Dir is the directory spill run files are created in; empty means
	// os.TempDir().
	Dir string
	// MaxRecursion bounds grace-hash re-partitioning depth; zero means
	// DefaultSpillRecursion.
	MaxRecursion int
	// Partitions is the grace-hash fanout; zero means
	// DefaultSpillPartitions.
	Partitions int
}

// Directory resolves the spill directory, defaulting to os.TempDir().
// Nil-safe.
func (c *SpillConfig) Directory() string {
	if c == nil || c.Dir == "" {
		return os.TempDir()
	}
	return c.Dir
}

// Recursion resolves the grace-hash re-partitioning bound. Nil-safe.
func (c *SpillConfig) Recursion() int {
	if c == nil || c.MaxRecursion <= 0 {
		return DefaultSpillRecursion
	}
	return c.MaxRecursion
}

// Fanout resolves the grace-hash partition count. Nil-safe.
func (c *SpillConfig) Fanout() int {
	if c == nil || c.Partitions <= 1 {
		return DefaultSpillPartitions
	}
	return c.Partitions
}

// ExecContext carries the per-execution governance state through every
// operator's Open: a context.Context for cancellation and deadlines plus
// an optional Governor for memory budgets. A nil *ExecContext is valid
// everywhere and means "ungoverned" — every method has a nil-safe fast
// path, preserving the zero-cost uninstrumented execution path.
type ExecContext struct {
	ctx   context.Context
	gov   *Governor
	spill *SpillConfig

	// tripNoted dedupes the metrics hook: a cancelled or expired context
	// surfaces through every operator the abort unwinds past, and each
	// Err call mints a fresh ResourceError; the process-wide trip counter
	// should advance once per execution, not once per operator.
	tripNoted atomic.Bool
}

// NewContext builds an execution context; ctx may be nil (Background)
// and gov may be nil (no memory budget).
func NewContext(ctx context.Context, gov *Governor) *ExecContext {
	if ctx == nil {
		ctx = context.Background()
	}
	return &ExecContext{ctx: ctx, gov: gov}
}

// Context returns the carried context (context.Background for a nil or
// context-less ExecContext).
func (ec *ExecContext) Context() context.Context {
	if ec == nil || ec.ctx == nil {
		return context.Background()
	}
	return ec.ctx
}

// Governor returns the carried governor (nil when ungoverned).
func (ec *ExecContext) Governor() *Governor {
	if ec == nil {
		return nil
	}
	return ec.gov
}

// EnableSpill turns on spill-to-disk execution for this context. The
// config is copied; call before execution starts.
func (ec *ExecContext) EnableSpill(cfg SpillConfig) {
	if ec != nil {
		c := cfg
		ec.spill = &c
	}
}

// Spill returns the context's spill configuration, or nil when spilling
// is disabled (including on a nil context).
func (ec *ExecContext) Spill() *SpillConfig {
	if ec == nil {
		return nil
	}
	return ec.spill
}

// Err reports whether the context has been cancelled or its deadline has
// passed, typed as a ResourceError attributed to op. It returns an
// untyped nil interface when execution may proceed.
func (ec *ExecContext) Err(op string) error {
	if ec == nil || ec.ctx == nil {
		return nil
	}
	switch err := ec.ctx.Err(); err {
	case nil:
		return nil
	case context.DeadlineExceeded:
		ec.noteTrip(obs.GovernorTripsDeadln)
		return &ResourceError{Kind: DeadlineExceeded, Operator: op, Err: err}
	default:
		ec.noteTrip(obs.GovernorTripsCancel)
		return &ResourceError{Kind: Cancelled, Operator: op, Err: err}
	}
}

// noteTrip advances a trip counter at most once for this execution.
func (ec *ExecContext) noteTrip(c *obs.Counter) {
	if !ec.tripNoted.Swap(true) {
		c.Inc()
	}
}

// Reserve charges the governor on behalf of op, returning an untyped nil
// interface when the charge fits (or no governor is attached).
func (ec *ExecContext) Reserve(op string, rows, bytes int64) error {
	if ec == nil || ec.gov == nil {
		return nil
	}
	if e := ec.gov.Reserve(op, rows, bytes); e != nil {
		return e
	}
	return nil
}

// Release returns a prior reservation to the governor. Nil-safe.
func (ec *ExecContext) Release(rows, bytes int64) {
	if ec == nil {
		return
	}
	ec.gov.Release(rows, bytes)
}

// ReserveSpill charges spill-file bytes on behalf of op, returning an
// untyped nil interface when the charge fits (or no governor is
// attached).
func (ec *ExecContext) ReserveSpill(op string, bytes int64) error {
	if ec == nil || ec.gov == nil {
		return nil
	}
	if e := ec.gov.ReserveSpill(op, bytes); e != nil {
		return e
	}
	return nil
}

// ReleaseSpill returns previously reserved spill bytes. Nil-safe.
func (ec *ExecContext) ReleaseSpill(bytes int64) {
	if ec == nil {
		return
	}
	ec.gov.ReleaseSpill(bytes)
}
