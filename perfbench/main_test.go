package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

type rationaleFile struct {
	HeldOutSeed *int64 `json:"held_out_seed"`
	Workloads   map[string]struct {
		Why        string             `json:"why"`
		Properties map[string]float64 `json:"properties"`
	} `json:"workloads"`
	PerLayer map[string]struct {
		Moves     []string `json:"moves"`
		Workloads []string `json:"workloads"`
		Note      string   `json:"note"`
	} `json:"per_layer"`
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

func smokeConfig(t *testing.T, name string, trace bool) config {
	return config{workload: name, seed: 7, seconds: 0.3, trace: trace, workdir: t.TempDir(),
		setups: 1, traced: 6, out: io.Discard}
}

// TestMetricsMatchBenchmarkFile runs every workload briefly, untraced and
// traced, and checks that each emits exactly the metrics BENCHMARK.json
// names, with their units, and that the program's metric table agrees
// with the file on units and directions.
func TestMetricsMatchBenchmarkFile(t *testing.T) {
	var bm benchmarkFile
	readJSON(t, "../BENCHMARK.json", &bm)
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bm.Workloads), len(workloads))
	}
	for i, w := range bm.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	specs := map[bool][]metricSpec{false: endToEnd, true: perLayer}
	check := func(list string, file []metricSpec, prog []metricSpec) {
		if len(file) != len(prog) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", list, len(file), len(prog))
		}
		for i := range file {
			if file[i] != prog[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", list, i, file[i], prog[i])
			}
		}
	}
	var e2e, layers []metricSpec
	for _, m := range bm.EndToEnd {
		e2e = append(e2e, metricSpec{m.Name, m.Unit, m.Better})
	}
	for _, m := range bm.PerLayer {
		layers = append(layers, metricSpec{m.Name, m.Unit, m.Better})
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", layers, perLayer)

	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := run(smokeConfig(t, w.name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(specs[trace]) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(specs[trace]))
			}
			for _, m := range specs[trace] {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, trace, m.name, got, m.unit)
				}
			}
		}
	}
}

// TestTracedCountsRepeat runs the traced replay twice on one seed: its
// counts must repeat exactly, spilling must stay confined to spill-join,
// and every plan lookup on analytic-dangling must hit after warm-up.
func TestTracedCountsRepeat(t *testing.T) {
	counts := []string{"plancache.hit_ratio", "optimizer.dp_subsets", "exec.tuples_per_row", "spill.bytes"}
	for _, w := range workloads {
		cfg := smokeConfig(t, w.name, true)
		cfg.traced = 12
		a, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range counts {
			if a.Metrics[m] != b.Metrics[m] {
				t.Errorf("%s: %s read %v, then %v", w.name, m, a.Metrics[m].Value, b.Metrics[m].Value)
			}
		}
		spilled := a.Metrics["spill.bytes"].Value > 0
		if spilled != (w.name == "spill-join") {
			t.Errorf("%s: spill.bytes = %v", w.name, a.Metrics["spill.bytes"].Value)
		}
		if w.name == "analytic-dangling" && a.Metrics["plancache.hit_ratio"].Value != 1 {
			t.Errorf("%s: plancache.hit_ratio = %v, want 1", w.name, a.Metrics["plancache.hit_ratio"].Value)
		}
	}
}

// TestOracleCountsCorruptReference corrupts one reference answer: the
// oracle must count the server's (correct) answers to it as failures.
func TestOracleCountsCorruptReference(t *testing.T) {
	cfg := smokeConfig(t, "analytic-dangling", false)
	cfg.corrupt = true
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("corrupt reference went unnoticed: correct=%v failed=%d of %d", res.Correct, res.Failed, res.Attempted)
	}
}

// TestInputsAreDeterministic checks that a seed reproduces its tables and
// request stream byte for byte, and that another seed changes the tables.
func TestInputsAreDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, b, c := w.gen(newRand(1)), w.gen(newRand(1)), w.gen(newRand(2))
		if streamHash(a) != streamHash(b) || tablesHash(a) != tablesHash(b) {
			t.Errorf("%s: seed 1 gave two different inputs", w.name)
		}
		if tablesHash(a) == tablesHash(c) {
			t.Errorf("%s: seeds 1 and 2 gave the same tables", w.name)
		}
	}
}

// TestRationaleCoversEveryMetric checks rationale.json: a held-out seed,
// every workload's why and input properties, and for every per-layer
// metric the end-to-end metrics and workloads it should move (or a note
// saying why it moves none).
func TestRationaleCoversEveryMetric(t *testing.T) {
	var r rationaleFile
	readJSON(t, "rationale.json", &r)
	if r.HeldOutSeed == nil {
		t.Error("rationale.json has no held_out_seed")
	}
	names := map[string]bool{}
	for _, w := range workloads {
		names[w.name] = true
		if rw, ok := r.Workloads[w.name]; !ok || rw.Why == "" || len(rw.Properties) == 0 {
			t.Errorf("rationale.json: workload %s needs a why and its properties", w.name)
		}
	}
	e2e := map[string]bool{}
	for _, m := range endToEnd {
		e2e[m.name] = true
	}
	for _, m := range perLayer {
		pl, ok := r.PerLayer[m.name]
		if !ok || (len(pl.Moves) == 0 || len(pl.Workloads) == 0) && pl.Note == "" {
			t.Errorf("rationale.json: per-layer metric %s needs the metrics and workloads it moves, or a note why none", m.name)
			continue
		}
		for _, e := range pl.Moves {
			if !e2e[e] {
				t.Errorf("rationale.json: %s moves unknown end-to-end metric %s", m.name, e)
			}
		}
		for _, w := range pl.Workloads {
			if !names[w] {
				t.Errorf("rationale.json: %s names unknown workload %s", m.name, w)
			}
		}
	}
	if len(r.PerLayer) != len(perLayer) {
		t.Errorf("rationale.json describes %d per-layer metrics, the program has %d", len(r.PerLayer), len(perLayer))
	}
}
