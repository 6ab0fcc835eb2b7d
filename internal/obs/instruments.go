package obs

// The process-wide instruments: one Default registry shared by every
// engine layer and command, fed by hooks in internal/optimizer (strategy
// and DP search size), internal/exec (rows and tuples at Collect),
// internal/resource (governor trips), internal/storage (fault
// injections) and the tracer (query lifecycle and latency). Scrape them
// at /metrics or render with Default.WritePrometheus.
var (
	// Default is the process-wide registry.
	Default = NewRegistry()

	// QueriesStarted counts queries entering the pipeline (parse onward).
	QueriesStarted = Default.NewCounter("oj_queries_started_total",
		"Queries that entered the parse/analyze/optimize/execute pipeline.")
	// QueriesCompleted counts queries that finished without error.
	QueriesCompleted = Default.NewCounter("oj_queries_completed_total",
		"Queries that completed successfully.")
	// QueriesFailed counts queries that ended in an error (parse errors,
	// planning failures, aborted executions).
	QueriesFailed = Default.NewCounter("oj_queries_failed_total",
		"Queries that ended in an error.")
	// QueriesActive is the number of queries currently in flight.
	QueriesActive = Default.NewGauge("oj_queries_active",
		"Queries currently in flight.")
	// SlowQueries counts queries over the slow-query threshold.
	SlowQueries = Default.NewCounter("oj_slow_queries_total",
		"Queries whose duration exceeded the slow-query threshold.")
	// QueryDuration is the end-to-end query latency histogram.
	QueryDuration = Default.NewHistogram("oj_query_duration_seconds",
		"End-to-end query latency (parse through execute).", DefBuckets)

	// RowsProduced counts rows emitted by plan roots across all
	// executions (the per-execution figure is exec.Counters).
	RowsProduced = Default.NewCounter("oj_rows_produced_total",
		"Rows produced by executed plans.")
	// TuplesRetrieved counts base-table tuples fetched across all
	// executions — the paper's Example 1 cost measure, cumulatively.
	TuplesRetrieved = Default.NewCounter("oj_tuples_retrieved_total",
		"Base-table tuples retrieved by executed plans (Example 1 metric).")

	// Optimizer strategy counters, one per optimizer.Trace strategy.
	strategyHelp      = "Optimizations by chosen strategy."
	StrategyReordered = Default.NewCounter("oj_optimize_strategy_total",
		strategyHelp, "strategy", "reordered")
	StrategyFixed = Default.NewCounter("oj_optimize_strategy_total",
		strategyHelp, "strategy", "fixed")
	StrategyGOJ = Default.NewCounter("oj_optimize_strategy_total",
		strategyHelp, "strategy", "goj")
	StrategyYannakakis = Default.NewCounter("oj_optimize_strategy_total",
		strategyHelp, "strategy", "yannakakis")

	// Semijoin-reduction instruments, fed by every reducer step that
	// exec.NewSemiJoin lowers (equi or not) as the Yannakakis
	// full-reducer filters base relations: input rows minus
	// output rows is the dangling-tuple volume deleted before any join
	// ran; output/input is the cumulative reduction ratio.
	SemiReduceInputRows = Default.NewCounter("oj_semijoin_reduce_input_rows_total",
		"Rows entering semijoin-reduce operators (Yannakakis full reducer).")
	SemiReduceOutputRows = Default.NewCounter("oj_semijoin_reduce_output_rows_total",
		"Rows surviving semijoin-reduce operators (1 - output/input = reduction ratio).")

	// DPSubsets counts connected subsets considered by the reordering DP.
	DPSubsets = Default.NewCounter("oj_dp_subsets_total",
		"Connected subsets of size >= 2 considered by the reordering DP.")
	// DPCandidates counts physical candidates generated by the DP.
	DPCandidates = Default.NewCounter("oj_dp_candidates_total",
		"Physical plan candidates generated by the reordering DP.")

	// Governor trip counters, one per resource.Kind.
	governorHelp         = "Resource governor trips by kind."
	GovernorTripsCancel  = Default.NewCounter("oj_governor_trips_total", governorHelp, "kind", "cancelled")
	GovernorTripsDeadln  = Default.NewCounter("oj_governor_trips_total", governorHelp, "kind", "deadline")
	GovernorTripsMemory  = Default.NewCounter("oj_governor_trips_total", governorHelp, "kind", "memory")
	GovernorTripsSpill   = Default.NewCounter("oj_governor_trips_total", governorHelp, "kind", "spill")
	GovernorDegradations = Default.NewCounter("oj_governor_degradations_total",
		"Graceful degradations (grace-hash spill or index fallback) under budget pressure.")

	// Spill instruments, fed by internal/exec/spill as run files are
	// written and by the grace hash join as it partitions.
	SpillRuns = Default.NewCounter("oj_spill_runs_total",
		"Spill run files written (grace-hash partition files, spilled join inputs).")
	SpillPartitions = Default.NewCounter("oj_spill_partitions_total",
		"Grace hash join partitions created under budget pressure.")
	SpillBytes = Default.NewCounter("oj_spill_bytes_total",
		"Bytes written to spill run files.")
	// SpillWriteLatency observes the wall time of writing one complete
	// run file (creation through fsync-less close).
	SpillWriteLatency = Default.NewHistogram("oj_spill_write_seconds",
		"Latency of writing one spill run file.", DefBuckets)

	// FaultInjections counts injected operator faults that fired (the
	// executor's fault-injection tests feed it).
	FaultInjections = Default.NewCounter("oj_fault_injections_total",
		"Injected storage faults that fired.")

	// Plan-cache instruments, fed by internal/plancache. Hits return a
	// previously optimized plan; misses run the DP and populate the
	// cache; coalesced lookups waited for a concurrent identical miss
	// (singleflight) instead of duplicating the DP.
	PlanCacheHits = Default.NewCounter("oj_plan_cache_hits_total",
		"Plan-cache lookups answered from the cache.")
	PlanCacheMisses = Default.NewCounter("oj_plan_cache_misses_total",
		"Plan-cache lookups that ran the optimizer and populated the cache.")
	PlanCacheCoalesced = Default.NewCounter("oj_plan_cache_coalesced_total",
		"Plan-cache lookups coalesced onto a concurrent identical optimization (singleflight).")
	PlanCacheEvictions = Default.NewCounter("oj_plan_cache_evictions_total",
		"Plan-cache entries evicted by the LRU capacity bound.")
	PlanCacheInvalidations = Default.NewCounter("oj_plan_cache_invalidations_total",
		"Plan-cache entries dropped because their stats epoch went stale.")
	PlanCacheEntries = Default.NewGauge("oj_plan_cache_entries",
		"Plan-cache entries currently resident.")
	// PlanCacheHitLatency uses finer buckets than DefBuckets: a cache
	// hit is a map lookup plus a list splice, well under DefBuckets'
	// 100µs floor.
	PlanCacheHitLatency = Default.NewHistogram("oj_plan_cache_hit_latency_seconds",
		"Latency of plan-cache hits.",
		[]float64{1e-7, 5e-7, 1e-6, 5e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1})
	// PlanCacheStaleSkips counts computed plans not inserted because the
	// stats epoch moved between lookup and insert (the result may mix old
	// and new statistics; it is returned to the caller but never cached).
	PlanCacheStaleSkips = Default.NewCounter("oj_plan_cache_stale_skips_total",
		"Plans discarded at insert because the stats epoch moved during optimization.")

	// QueriesRejected counts queries turned away by admission control
	// before execution started. Together with the lifecycle counters the
	// server invariant is: started = completed + failed + rejected.
	QueriesRejected = Default.NewCounter("oj_queries_rejected_total",
		"Queries rejected by admission control (never executed).")

	// Admission-control instruments, fed by the query server's admission
	// controller (internal/server): every query asks for a concurrency
	// slot plus a slice of the process-wide memory/spill pools before it
	// may execute.
	admissionHelp      = "Admission decisions by outcome."
	AdmissionAdmitted  = Default.NewCounter("oj_admission_total", admissionHelp, "outcome", "admitted")
	AdmissionQueueFull = Default.NewCounter("oj_admission_total", admissionHelp, "outcome", "rejected_queue_full")
	AdmissionOversized = Default.NewCounter("oj_admission_total", admissionHelp, "outcome", "rejected_oversized")
	AdmissionCancelled = Default.NewCounter("oj_admission_total", admissionHelp, "outcome", "cancelled_waiting")
	// AdmissionQueuedTotal counts queries that had to wait in the
	// admission queue before being admitted or giving up.
	AdmissionQueuedTotal = Default.NewCounter("oj_admission_queued_total",
		"Queries that waited in the admission queue.")
	// AdmissionActive is the number of queries currently holding an
	// admission slot.
	AdmissionActive = Default.NewGauge("oj_admission_active",
		"Queries currently holding an admission slot.")
	// AdmissionQueueDepth is the number of queries currently waiting.
	AdmissionQueueDepth = Default.NewGauge("oj_admission_queue_depth",
		"Queries currently waiting in the admission queue.")
	// AdmissionPoolUsed is the memory-pool bytes currently granted.
	AdmissionPoolUsed = Default.NewGauge("oj_admission_pool_used_bytes",
		"Bytes of the process-wide memory pool granted to admitted queries.")
	// AdmissionSpillPoolUsed is the spill-pool bytes currently granted.
	AdmissionSpillPoolUsed = Default.NewGauge("oj_admission_spill_pool_used_bytes",
		"Bytes of the process-wide spill pool granted to admitted queries.")
	// AdmissionWaitLatency observes how long admitted queries waited.
	AdmissionWaitLatency = Default.NewHistogram("oj_admission_wait_seconds",
		"Time queries spent waiting for admission.", DefBuckets)

	// Server robustness instruments (internal/server): per-session panic
	// isolation, queue-wait-driven load shedding, and protocol hygiene.
	// ServerPanics counts panics recovered at the session boundary —
	// each surfaced to its client as code:"internal_error" while the
	// rest of the server kept serving.
	ServerPanics = Default.NewCounter("oj_server_panics_total",
		"Panics recovered at the session boundary (isolated per session).")
	// ServerSheds counts queries rejected early by the load shedder
	// because queue-wait latency exceeded the shed threshold.
	ServerSheds = Default.NewCounter("oj_server_sheds_total",
		"Queries shed early because admission queue-wait latency was over the threshold.")
	// ServerProtocolErrors counts protocol violations the server
	// refused with a typed error (over-long lines, unframable input).
	ServerProtocolErrors = Default.NewCounter("oj_server_protocol_errors_total",
		"Protocol violations answered with code:\"protocol_error\".")
	// ServerConnectionsActive is the number of TCP sessions currently
	// registered with the server (accepted, not yet torn down). The soak
	// asserts it drains to zero when the clients hang up.
	ServerConnectionsActive = Default.NewGauge("oj_server_connections_active",
		"TCP sessions currently registered with the query server.")

	// Chaos fault-injection instruments, fed by internal/chaos as
	// injected network faults fire (the soak reconciles these against
	// observed client-side failures).
	chaosHelp          = "Injected network faults by kind."
	ChaosDrops         = Default.NewCounter("oj_chaos_injections_total", chaosHelp, "kind", "drop")
	ChaosPartialWrites = Default.NewCounter("oj_chaos_injections_total", chaosHelp, "kind", "partial_write")
	ChaosStalls        = Default.NewCounter("oj_chaos_injections_total", chaosHelp, "kind", "stall")
	ChaosCorruptions   = Default.NewCounter("oj_chaos_injections_total", chaosHelp, "kind", "corrupt")
	ChaosInjected      = Default.NewCounter("oj_chaos_injections_total", chaosHelp, "kind", "inject")
)

// StrategyCounter maps an optimizer.Trace strategy name to its counter
// (nil for unknown strategies, which callers should skip rather than
// invent a label for).
func StrategyCounter(strategy string) *Counter {
	switch strategy {
	case "reordered":
		return StrategyReordered
	case "fixed":
		return StrategyFixed
	case "goj":
		return StrategyGOJ
	case "yannakakis":
		return StrategyYannakakis
	default:
		return nil
	}
}

// GovernorTrip maps a trip kind name ("cancelled", "deadline exceeded",
// "memory budget exceeded" — the resource.Kind strings) to its counter.
func GovernorTrip(kind string) *Counter {
	switch kind {
	case "cancelled":
		return GovernorTripsCancel
	case "deadline exceeded":
		return GovernorTripsDeadln
	case "memory budget exceeded":
		return GovernorTripsMemory
	case "spill budget exceeded":
		return GovernorTripsSpill
	default:
		return nil
	}
}
