package main

import (
	"encoding/json"
	"errors"
	"os"
	osexec "os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"freejoin/internal/obs"
)

func TestRunAnalysis(t *testing.T) {
	var out strings.Builder
	err := run(&out, "(R -[R.a = S.a] S) ->[S.a = T.a] T", true, true, true, 1000, false, false, 0, 0, "", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"freely reorderable",
		"implementing trees: 2 (modulo reversal)",
		"((R - S) -> T)",
		"(R - (S -> T))",
		"digraph query",
		"*   1:",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunFullEnumeration(t *testing.T) {
	var out strings.Builder
	if err := run(&out, "R -[R.a = S.a] S", true, false, false, 1000, false, false, 0, 0, "", "", nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "implementing trees: 2\n") {
		t.Errorf("full enumeration output:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	var out strings.Builder
	if err := run(&out, "R -[", false, false, true, 1000, false, false, 0, 0, "", "", nil); err == nil {
		t.Error("parse error must surface")
	}
	if err := run(&out, "R -[R.a = 1] S", false, false, true, 1000, false, false, 0, 0, "", "", nil); err == nil {
		t.Error("undefined graph must surface")
	}
	// Limit enforcement.
	big := "A"
	for i := 1; i < 10; i++ {
		u := string(rune('A' + i - 1))
		v := string(rune('A' + i))
		big = "(" + big + " -[" + u + ".a = " + v + ".a] " + v + ")"
	}
	if err := run(&out, big, true, false, true, 10, false, false, 0, 0, "", "", nil); err == nil {
		t.Error("limit must be enforced")
	}
}

func TestRunExplain(t *testing.T) {
	var out strings.Builder
	if err := run(&out, "(R -[R.a = S.a] S) ->[S.a = T.a] T", false, false, true, 1000, true, false, 0, 0, "", "", nil); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"plan (synthetic catalog",
		"-- strategy: reordered",
		"-- dp: ",
		"scan ",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("explain output missing %q:\n%s", want, s)
		}
	}
}

func TestRunNonNice(t *testing.T) {
	var out strings.Builder
	if err := run(&out, "R ->[R.a = S.a] (S -[S.a = T.a] T)", false, false, true, 1000, false, false, 0, 0, "", "", nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "NOT provably freely reorderable") {
		t.Errorf("non-nice analysis missing:\n%s", out.String())
	}
}

// TestRunTraced drives -explain with a tracer configured the way the
// -trace-out and -slow-query flags do, and checks the trace file and
// the slow log both materialize.
func TestRunTraced(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	tracer := obs.NewTracer()
	tracer.Enable(path)
	var slow strings.Builder
	tracer.Slow().SetThreshold(time.Nanosecond)
	tracer.Slow().SetText(&slow)

	var out strings.Builder
	if err := run(&out, "(R -[R.a = S.a] S) ->[S.a = T.a] T", false, false, true, 1000, true, false, 0, 0, "", "", tracer); err != nil {
		t.Fatal(err)
	}
	if err := tracer.Disable(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Cat string `json:"cat"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	phases, operators := 0, 0
	for _, ev := range doc.TraceEvents {
		switch ev.Cat {
		case "phase":
			phases++
		case "operator":
			operators++
		}
	}
	if phases < 4 || operators < 3 {
		t.Errorf("trace has %d phase and %d operator spans, want >=4 and >=3", phases, operators)
	}
	if !strings.Contains(slow.String(), "slow query (") ||
		!strings.Contains(slow.String(), "strategy: reordered") {
		t.Errorf("slow log missing entry:\n%s", slow.String())
	}
}

// -plan-cache replans the query after the first optimization: the
// second pass must hit the cache by canonical fingerprint and return
// the identical plan object.
func TestRunExplainPlanCache(t *testing.T) {
	var out strings.Builder
	if err := run(&out, "(R -[R.a = S.a] S) ->[S.a = T.a] T", false, false, true, 1000, true, true, 0, 0, "", "", nil); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "plancache: miss (fp ") {
		t.Errorf("first plan must trace the cold miss:\n%s", got)
	}
	if !strings.Contains(got, "re-plan: plan cache hit (fp ") || !strings.Contains(got, "plan object reused") {
		t.Errorf("re-plan must hit and reuse the plan:\n%s", got)
	}
}

// TestUnknownStrategyExitsNonZero: a misspelled -strategy must fail the
// command, not silently fall back to the written order. The test binary
// re-runs itself as the reorder command and checks the exit status.
func TestUnknownStrategyExitsNonZero(t *testing.T) {
	if os.Getenv("REORDER_TEST_MAIN") == "1" {
		os.Args = []string{"reorder", "-explain", "-strategy", "bogus",
			"-q", "R1 -[R1.b = R2.a] ((R2 ->[R2.b = R3.a] R3) ->[R3.b = R4.a] R4)"}
		main()
		return
	}
	cmd := osexec.Command(os.Args[0], "-test.run=^TestUnknownStrategyExitsNonZero$")
	cmd.Env = append(os.Environ(), "REORDER_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exitErr *osexec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() == 0 {
		t.Fatalf("reorder -strategy bogus: err = %v; want a non-zero exit\n%s", err, out)
	}
	if !strings.Contains(string(out), `unknown strategy "bogus"`) {
		t.Errorf("output must name the unknown strategy:\n%s", out)
	}
	if strings.Contains(string(out), "execution (explain analyze)") {
		t.Errorf("the query must not run under an unknown strategy:\n%s", out)
	}
}
