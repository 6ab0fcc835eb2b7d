// Command perfbench is the served end-to-end benchmark of the freejoin
// query server. It starts the server in-process on loopback, loads
// generated tables through the shared catalog, and drives the line/JSON
// protocol in a closed loop from the same process (each connection sends
// its next request only after reading the previous answer). With
// -trace 1 it also replays the same request stream in-process through
// each layer's public functions and reports per-layer figures.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash perfbench/run.sh --workload point-example1 --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Every answer is checked
// against a reference computed at set-up by the reference algebra.
// The benchmark's own smoke test runs with `cd perfbench && go test ./...`.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"freejoin/internal/exec/spill"
	"freejoin/internal/server"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string // holds the run's spill directory
	setups   int    // set-ups per run; setup_s is their median
	traced   int    // traced replay length (0 → the workload's own)
	// corrupt flips one reference answer, so a correct server fails the
	// oracle; the smoke test uses it to prove the oracle counts failures.
	corrupt bool
	out     io.Writer // human-readable report
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metricSpec struct {
	name, unit, better string
}

// endToEnd are the untraced run's metrics, as a user of the server sees
// them. failed_frac is reported with the per-layer metrics because it is
// 0 on a correct run; the result's "failed" count carries it too.
var endToEnd = []metricSpec{
	{"qps", "queries/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p95_ms", "ms", "lower"},
	{"cpu_ms_per_query", "ms", "lower"},
	{"alloc_kb_per_query", "KiB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are the traced replay's metrics, per query unless the name
// says otherwise.
var perLayer = []metricSpec{
	{"failed_frac", "ratio", "lower"},
	{"server.session_us", "us", "lower"},
	{"server.wire_us", "us", "lower"},
	{"server.encode_us", "us", "lower"},
	{"server.response_bytes", "bytes", "lower"},
	{"parse.expr_us", "us", "lower"},
	{"core.analyze_us", "us", "lower"},
	{"plancache.fingerprint_us", "us", "lower"},
	{"plancache.hit_ratio", "ratio", "higher"},
	{"optimizer.plan_miss_us", "us", "lower"},
	{"optimizer.plan_hit_us", "us", "lower"},
	{"optimizer.dp_subsets", "count", "lower"},
	{"optimizer.dp_candidates", "count", "lower"},
	{"optimizer.dp_pruned", "count", "lower"},
	{"optimizer.build_us", "us", "lower"},
	{"optimizer.strategy_share.reordered", "ratio", "higher"},
	{"optimizer.strategy_share.yannakakis", "ratio", "higher"},
	{"optimizer.strategy_share.fixed", "ratio", "lower"},
	{"optimizer.root_q_error", "ratio", "lower"},
	{"exec.collect_ms", "ms", "lower"},
	{"exec.self_ms.scan", "ms", "lower"},
	{"exec.self_ms.indexscan", "ms", "lower"},
	{"exec.self_ms.filter", "ms", "lower"},
	{"exec.self_ms.hash", "ms", "lower"},
	{"exec.self_ms.index", "ms", "lower"},
	{"exec.self_ms.nestedloop", "ms", "lower"},
	{"exec.self_ms.sortmerge", "ms", "lower"},
	{"exec.self_ms.semireduce", "ms", "lower"},
	{"exec.self_ms.goj", "ms", "lower"},
	{"exec.tuples_per_row", "tuples/row", "lower"},
	{"exec.peak_buffered_rows", "rows", "lower"},
	{"exec.alloc_kb", "KiB", "lower"},
	{"spill.bytes", "bytes", "lower"},
	{"spill.runs", "count", "lower"},
	{"spill.partitions", "count", "lower"},
	{"spill.merge_passes", "count", "lower"},
	{"relation.render_us", "us", "lower"},
	{"runtime.gc_cpu_frac", "ratio", "lower"},
	{"runtime.gc_cycles_per_kquery", "count", "lower"},
	{"trace.coverage", "ratio", "higher"},
	{"trace.overhead_frac", "ratio", "lower"},
}

func main() {
	cfg := config{workdir: ".bench_build", setups: 5, out: os.Stdout}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced replay and reports per-layer metrics")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = trace == 1
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(cfg config) (*result, error) {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return nil, err
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("need -seconds > 0")
	}
	baseGoroutines := runtime.NumGoroutine()
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	spillDir, err := os.MkdirTemp(cfg.workdir, "spill-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(spillDir)

	// The references and the stream hash come from their own copy of the
	// inputs, outside every timed window.
	ds := w.gen(newRand(cfg.seed))
	refs, err := w.refs(ds)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.out, "workload %s seed %d seconds %g trace %v\n", w.name, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(cfg.out, "request stream sha256 %s (%d requests over %d distinct texts)\n",
		streamHash(ds), len(ds.stream), len(ds.texts))
	fmt.Fprintf(cfg.out, "tables sha256 %s\n", tablesHash(ds))
	var resultRows int64
	for _, i := range ds.stream {
		resultRows += refs[i].rows
	}
	props := append(ds.props, prop{"result_rows_per_query", float64(resultRows) / float64(len(ds.stream))})
	for _, p := range props {
		fmt.Fprintf(cfg.out, "input %s = %g\n", p.name, p.value)
	}

	var (
		srv    *server.Server
		conns  []*client
		setups []float64
	)
	closeAll := func() {
		for _, c := range conns {
			c.close()
		}
		conns = nil
		if srv != nil {
			srv.Close()
		}
	}
	defer closeAll()
	for i := 0; i < cfg.setups; i++ {
		closeAll()
		// Each set-up starts from a collected heap, so the previous one's
		// garbage is not charged to it.
		runtime.GC()
		start := time.Now()
		srv, conns, err = setUp(w, cfg.seed, spillDir)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	var cursor cursor
	// Settle: let the heap and the scheduler reach their steady state
	// before the measured window opens.
	if _, err := closedLoop(conns, ds, refs, &cursor, settleFor(cfg.seconds)); err != nil {
		return nil, err
	}
	if cfg.corrupt {
		// The first request of the measured window meets a wrong reference.
		refs[ds.stream[cursor.peek(len(ds.stream))]].hash ^= 1
	}
	loop, err := measure(conns, ds, refs, &cursor, cfg.seconds)
	if err != nil {
		return nil, err
	}
	core := srv.Core()
	closeAll()

	res := &result{Correct: loop.failed == 0, Attempted: loop.attempted, Failed: loop.failed,
		Metrics: map[string]metric{}}
	e2e := map[string]float64{
		"qps":                loop.qps,
		"latency_p50_ms":     loop.p50.Seconds() * 1e3,
		"latency_p95_ms":     loop.p95.Seconds() * 1e3,
		"cpu_ms_per_query":   loop.cpuMSPerQuery,
		"alloc_kb_per_query": loop.allocKBPerQuery,
		"setup_s":            median(setups),
	}
	fmt.Fprintf(cfg.out, "setup_s samples %v\n", setups)
	perSecond := make([]int, int(loop.elapsed/time.Second)+1)
	for _, d := range loop.done {
		perSecond[int(d/time.Second)]++
	}
	fmt.Fprintf(cfg.out, "completions per second %v\n", perSecond)
	fmt.Fprintf(cfg.out, "host steal during the window: %.1f%% of the machine's CPU time\n", 100*loop.stealFrac)
	fmt.Fprintf(cfg.out, "untraced: %d attempted, %d ok, %d failed (%d errors, %d wrong answers), %d connections\n",
		loop.attempted, loop.ok, loop.failed, loop.errors, loop.wrong, w.conns)
	for _, m := range endToEnd {
		fmt.Fprintf(cfg.out, "  %-20s %14.4f %-10s (%s is better)\n", m.name, e2e[m.name], m.unit, m.better)
		if m.name == "latency_p95_ms" {
			fmt.Fprintf(cfg.out, "  %-20s %14.4f %-10s (%s is better)\n", "failed_frac", loop.failedFrac(), "ratio", "lower")
		}
	}
	if !cfg.trace {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{e2e[m.name], m.unit}
		}
	} else {
		n := w.traced
		if cfg.traced > 0 {
			n = cfg.traced
		}
		layers, failed, err := tracedReplay(cfg.out, core, ds, refs, n, spillDir, loop)
		if err != nil {
			return nil, err
		}
		if failed > 0 {
			res.Correct = false
			res.Failed += failed
			fmt.Fprintf(cfg.out, "traced replay: %d of %d answers failed\n", failed, n)
		}
		res.Attempted += int64(n)
		fmt.Fprintf(cfg.out, "traced replay: %d requests\n", n)
		for _, m := range perLayer {
			v, ok := layers[m.name]
			if !ok {
				return nil, fmt.Errorf("traced replay produced no %s", m.name)
			}
			res.Metrics[m.name] = metric{v, m.unit}
			fmt.Fprintf(cfg.out, "  %-36s %14.4f %s\n", m.name, v, m.unit)
		}
	}

	// Post-run invariants: never skipped, and any violation fails the run.
	for _, v := range invariants(baseGoroutines, spillDir) {
		fmt.Fprintln(os.Stderr, "perfbench: INVARIANT VIOLATED:", v)
		fmt.Fprintln(cfg.out, "INVARIANT VIOLATED:", v)
		res.Correct = false
	}
	return res, nil
}

// setUp is the timed set-up: generate the inputs, start the server, load
// and index the tables through its catalog, connect, and warm the plan
// cache.
func setUp(w *workload, seed int64, spillDir string) (*server.Server, []*client, error) {
	ds := w.gen(newRand(seed))
	srv, err := server.Start(server.Config{SpillDir: spillDir})
	if err != nil {
		return nil, nil, err
	}
	conns, err := load(srv, ds, w.conns)
	if err != nil {
		for _, c := range conns {
			c.close()
		}
		srv.Close()
		return nil, nil, err
	}
	return srv, conns, nil
}

func load(srv *server.Server, ds *dataset, nconns int) ([]*client, error) {
	cat := srv.Core().Catalog()
	for _, t := range ds.tables {
		tb := cat.AddRelation(t.name, t.rel)
		for _, col := range t.indexes {
			if _, err := tb.BuildHashIndex(col); err != nil {
				return nil, err
			}
		}
	}
	var conns []*client
	for i := 0; i < nconns; i++ {
		c, err := dial(srv.Addr())
		if err != nil {
			return conns, err
		}
		conns = append(conns, c)
		for _, line := range ds.sessionLines() {
			if _, err := c.expectOK(line); err != nil {
				return conns, err
			}
		}
	}
	for _, i := range ds.warm {
		if _, err := conns[0].expectOK("query " + ds.texts[i]); err != nil {
			return conns, err
		}
	}
	return conns, nil
}

func settleFor(seconds float64) time.Duration {
	d := time.Duration(seconds / 5 * float64(time.Second))
	return min(max(d, 500*time.Millisecond), 3*time.Second)
}

// streamHash identifies the generated request stream: the same seed
// must give the same hash on every machine.
func streamHash(ds *dataset) string {
	h := sha256.New()
	for _, i := range ds.stream {
		io.WriteString(h, "query "+ds.texts[i]+"\n")
	}
	return hex.EncodeToString(h.Sum(nil))
}

// tablesHash identifies the generated tables, row by row in load order.
func tablesHash(ds *dataset) string {
	h := sha256.New()
	for _, t := range ds.tables {
		fmt.Fprintf(h, "table %s %s\n", t.name, t.rel.Scheme())
		for i := 0; i < t.rel.Len(); i++ {
			for _, v := range t.rel.RawRow(i) {
				io.WriteString(h, v.String()+" ")
			}
			io.WriteString(h, "\n")
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// invariants checks that the run left no spill run file behind and that
// every goroutine it started has exited.
func invariants(baseGoroutines int, spillDir string) []string {
	var bad []string
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseGoroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseGoroutines {
		bad = append(bad, fmt.Sprintf("%d goroutines running, %d before the run", n, baseGoroutines))
	}
	entries, err := os.ReadDir(spillDir)
	if err != nil {
		return append(bad, fmt.Sprintf("reading spill directory: %v", err))
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), spill.Prefix) {
			bad = append(bad, "spill file left behind: "+filepath.Join(spillDir, e.Name()))
		}
	}
	return bad
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
