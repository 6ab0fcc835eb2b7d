package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("t_total", "test")
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.AddAt(uint32(w), 1)
			}
		}(w)
	}
	wg.Wait()
	c.Inc()
	c.Add(2)
	if got, want := c.Value(), int64(workers*per+3); got != want {
		t.Fatalf("counter = %d, want %d", got, want)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.NewGauge("g", "test")
	g.Inc()
	g.Add(5)
	g.Dec()
	if g.Value() != 5 {
		t.Fatalf("gauge = %d, want 5", g.Value())
	}
	g.Set(-2)
	if g.Value() != -2 {
		t.Fatalf("gauge = %d, want -2", g.Value())
	}
}

func TestHistogramBucketsAndSum(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("h_seconds", "test", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	if got, want := h.Sum(), 5.555; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("sum = %g, want %g", got, want)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`h_seconds_bucket{le="0.01"} 1`,
		`h_seconds_bucket{le="0.1"} 2`,
		`h_seconds_bucket{le="1"} 3`,
		`h_seconds_bucket{le="+Inf"} 4`,
		`h_seconds_sum 5.555`,
		`h_seconds_count 4`,
		"# TYPE h_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	h.ObserveDuration(50 * time.Millisecond)
	if h.Count() != 5 {
		t.Fatalf("count after duration = %d, want 5", h.Count())
	}
}

func TestWritePrometheusGroupsLabels(t *testing.T) {
	r := NewRegistry()
	a := r.NewCounter("multi_total", "by kind", "kind", "a")
	b2 := r.NewCounter("multi_total", "by kind", "kind", "b")
	a.Add(3)
	b2.Add(4)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if strings.Count(out, "# HELP multi_total") != 1 {
		t.Errorf("HELP emitted more than once:\n%s", out)
	}
	if !strings.Contains(out, `multi_total{kind="a"} 3`) || !strings.Contains(out, `multi_total{kind="b"} 4`) {
		t.Errorf("missing labeled samples:\n%s", out)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("dup_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate registration")
		}
	}()
	r.NewCounter("dup_total", "x")
}

func TestDefaultInstrumentsRegistered(t *testing.T) {
	var b strings.Builder
	if err := Default.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, name := range []string{
		"oj_queries_started_total", "oj_queries_completed_total",
		"oj_queries_failed_total", "oj_rows_produced_total",
		"oj_tuples_retrieved_total", "oj_optimize_strategy_total",
		"oj_dp_subsets_total", "oj_governor_trips_total",
		"oj_fault_injections_total", "oj_query_duration_seconds_bucket",
	} {
		if !strings.Contains(out, name) {
			t.Errorf("default exposition missing %s", name)
		}
	}
}

func TestStrategyAndTripLookups(t *testing.T) {
	if StrategyCounter("reordered") != StrategyReordered ||
		StrategyCounter("fixed") != StrategyFixed ||
		StrategyCounter("yannakakis") != StrategyYannakakis ||
		StrategyCounter("goj") != nil ||
		StrategyCounter("bogus") != nil {
		t.Fatal("StrategyCounter mapping wrong")
	}
	if GovernorTrip("cancelled") != GovernorTripsCancel ||
		GovernorTrip("deadline exceeded") != GovernorTripsDeadln ||
		GovernorTrip("memory budget exceeded") != GovernorTripsMemory ||
		GovernorTrip("bogus") != nil {
		t.Fatal("GovernorTrip mapping wrong")
	}
}

// BenchmarkCounterAdd checks the hot-path cost of a counter increment:
// one atomic add, zero allocations.
func BenchmarkCounterAdd(b *testing.B) {
	r := NewRegistry()
	c := r.NewCounter("bench_total", "bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkCounterAddParallel measures striped counters under
// contention (AddAt spreads writers across cache lines).
func BenchmarkCounterAddParallel(b *testing.B) {
	r := NewRegistry()
	c := r.NewCounter("benchp_total", "bench")
	b.ReportAllocs()
	var next uint32
	b.RunParallel(func(pb *testing.PB) {
		hint := next
		next++
		for pb.Next() {
			c.AddAt(hint, 1)
		}
	})
}

// BenchmarkHistogramObserve checks a fixed-bucket observation is
// allocation-free.
func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.NewHistogram("benchh_seconds", "bench", DefBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.003)
	}
}
