package obs

import (
	"context"
	"runtime/pprof"
	"strconv"
)

// WithQueryLabels runs f with pprof goroutine labels identifying the
// query: query_id (the tracer's ID — look it up in /debug/queries),
// fingerprint (the plan-cache identity of the query graph) and strategy
// (the optimizer's choice). Goroutine labels are inherited by every
// goroutine f spawns, so labelling the executing goroutine covers any
// helper goroutine for free — a CPU profile captured at
// /debug/pprof/profile slices by query shape.
//
// Empty fingerprint/strategy values are omitted rather than recorded as
// "" (pprof drops empty label values anyway, and omitting keeps the
// label set tidy for queries that bypass the plan cache).
func WithQueryLabels(ctx context.Context, id uint64, fingerprint, strategy string, f func(context.Context)) {
	kv := make([]string, 0, 6)
	kv = append(kv, "query_id", strconv.FormatUint(id, 10))
	if fingerprint != "" {
		kv = append(kv, "fingerprint", fingerprint)
	}
	if strategy != "" {
		kv = append(kv, "strategy", strategy)
	}
	pprof.Do(ctx, pprof.Labels(kv...), f)
}
