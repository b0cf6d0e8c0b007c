package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// The benchmark runs from the repository root (compile_cold reads
// examples/, the manifests sit there), so the tests do too.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// quickRun runs one workload in-process with the quick set-up and a
// budget of one round per pass.
func quickRun(t *testing.T, name string, traced, corrupt bool) (*record, int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cfg := runConfig{workload: name, seed: 7, seconds: 0.02, trace: traced,
		outDir: t.TempDir(), corrupt: corrupt, quick: true}
	code := execute(cfg, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var v verdict
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &v); err != nil {
		t.Fatalf("%s: last line of output is not the verdict: %v\n%s%s", name, err, stdout.String(), stderr.String())
	}
	recs, err := readRecords(filepath.Join(cfg.outDir, "runs.jsonl"))
	if err != nil || len(recs) != 1 {
		t.Fatalf("%s: runs.jsonl: %d records, err %v", name, len(recs), err)
	}
	if !reflect.DeepEqual(recs[0].verdict, v) {
		t.Errorf("%s: the recorded run and the verdict line disagree", name)
	}
	if traced {
		if _, err := os.Stat(filepath.Join(cfg.outDir, name+".spans.json")); err != nil {
			t.Errorf("%s: traced pass left no span file: %v", name, err)
		}
	}
	return &recs[0], code
}

func checkMetrics(t *testing.T, rec *record, defs []metricDef) {
	t.Helper()
	if len(rec.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics reported, %d defined", rec.Workload, len(rec.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := rec.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", rec.Workload, d.Name)
		case m.Unit != d.Unit:
			t.Errorf("%s: metric %s has unit %q, want %q", rec.Workload, d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s is not finite", rec.Workload, d.Name)
		}
	}
}

func TestWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped under -short")
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			e2e, code := quickRun(t, w.name, false, false)
			if code != 0 || !e2e.Correct || e2e.Failed != 0 || e2e.FailShare != 0 || e2e.Attempted < 1 {
				t.Fatalf("end-to-end pass: exit %d, correct %v, %d of %d failed", code, e2e.Correct, e2e.Failed, e2e.Attempted)
			}
			checkMetrics(t, e2e, endToEndDefs)
			for _, d := range endToEndDefs {
				if e2e.Metrics[d.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s is %g; it must never be 0", d.Name, e2e.Metrics[d.Name].Value)
				}
			}

			a, codeA := quickRun(t, w.name, true, false)
			b, codeB := quickRun(t, w.name, true, false)
			if codeA != 0 || codeB != 0 || a.Failed != 0 || b.Failed != 0 {
				t.Fatalf("traced passes: exit %d and %d, %d and %d ops failed", codeA, codeB, a.Failed, b.Failed)
			}
			checkMetrics(t, a, perLayerDefs)
			checkLayerShares(t, a)
			for _, d := range perLayerDefs {
				if d.Exact && a.Metrics[d.Name].Value != b.Metrics[d.Name].Value {
					t.Errorf("exact count %s differs between two runs of one seed: %v and %v",
						d.Name, a.Metrics[d.Name].Value, b.Metrics[d.Name].Value)
				}
			}
			if cov := a.Metrics["bench.span_coverage_pct"].Value; cov < 95 {
				t.Errorf("child spans account for %.1f %% of the op spans, want at least 95 %%", cov)
			}

			bad, code := quickRun(t, w.name, false, true)
			if code == 0 || bad.Correct || bad.Failed == 0 || bad.FailShare <= 0 {
				t.Errorf("corrupted expectations: exit %d, correct %v, %d of %d failed; want a failing run",
					code, bad.Correct, bad.Failed, bad.Attempted)
			}
		})
	}
}

// checkLayerShares holds a traced run to the reason its workload was
// chosen for: no rt or ir time where nothing runs, Phase B time on
// every program row where something does.
func checkLayerShares(t *testing.T, rec *record) {
	t.Helper()
	switch rec.Workload {
	case "compile_cold":
		for name, m := range rec.Metrics {
			if (strings.HasPrefix(name, "rt.") || strings.HasPrefix(name, "ir.")) && name != "rt.sim_distinct" && m.Value != 0 {
				t.Errorf("compile_cold reports %s = %g: nothing runs there", name, m.Value)
			}
		}
		if rec.Metrics["cc.parse_ms"].Value <= 0 || rec.Metrics["analysis.vet_ms"].Value <= 0 || rec.Metrics["cc.tokens"].Value <= 0 {
			t.Errorf("compile_cold: the compile-side layers report no work")
		}
	case "apps_kernel":
		for _, row := range appRows {
			if rec.Metrics["rt.phase_b_ms."+row].Value <= 0 || rec.Metrics["ir.kernel_ns_per_iter."+row].Value <= 0 {
				t.Errorf("apps_kernel: row %s reports no Phase B time", row)
			}
		}
	}
}

// TestManifest holds the committed BENCHMARK.json and layers.json to
// the tables they are printed from.
func TestManifest(t *testing.T) {
	for _, c := range []struct {
		path string
		args []string
	}{
		{"BENCHMARK.json", nil},
		{filepath.Join("benchmark", "layers.json"), []string{"layers"}},
	} {
		var want bytes.Buffer
		if code := manifestMain(c.args, &want, io.Discard); code != 0 {
			t.Fatalf("manifest %v: exit %d", c.args, code)
		}
		got, err := os.ReadFile(c.path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s is stale: regenerate it with `go run ./benchmark manifest %s`", c.path, strings.Join(c.args, " "))
		}
	}
	m := buildManifest()
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEndDefs...), perLayerDefs...) {
		if seen[d.Name] || len(d.Name) > 64 || len(d.Unit) > 16 || (d.Better != lower && d.Better != higher) {
			t.Errorf("metric %q: duplicate, over-long or without a direction", d.Name)
		}
		seen[d.Name] = true
	}
	if len(m.PerLayer) > 128 || len(m.EndToEnd) > 16 || len(m.Workloads) < 2 || len(m.Workloads) > 8 {
		t.Errorf("manifest outside the contract's limits: %d per-layer, %d end-to-end, %d workloads",
			len(m.PerLayer), len(m.EndToEnd), len(m.Workloads))
	}
	for _, w := range m.Workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (has %d)", w.Name, len(w.Why))
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, recs ...record) string {
		var buf bytes.Buffer
		for _, r := range recs {
			line, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(append(line, '\n'))
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	run := func(p50 float64, traced bool, launches float64) record {
		r := record{Workload: "apps_kernel", Seed: 1, Traced: traced}
		r.Correct, r.Attempted = true, 10
		if traced {
			r.Metrics = map[string]metricValue{"rt.launches": {launches, "count"}}
		} else {
			r.Metrics = map[string]metricValue{"op_ms_p50": {p50, "ms"}}
		}
		return r
	}
	base := write("base.jsonl", run(100, false, 0), run(101, false, 0), run(99, false, 0), run(0, true, 85))
	same := write("same.jsonl", run(102, false, 0), run(100, false, 0), run(101, false, 0), run(0, true, 85))
	slow := write("slow.jsonl", run(150, false, 0), run(151, false, 0), run(149, false, 0))
	moved := write("moved.jsonl", run(100, false, 0), run(0, true, 86))

	var out bytes.Buffer
	if code := compareMain([]string{base, same}, &out, io.Discard); code != 0 || !strings.Contains(out.String(), " ok") {
		t.Errorf("equal sets: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareMain([]string{base, slow}, &out, io.Discard); code != 1 || !strings.Contains(out.String(), "worse") {
		t.Errorf("a 50 %% slower set: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareMain([]string{base, moved}, &out, io.Discard); code != 1 || !strings.Contains(out.String(), "differs") {
		t.Errorf("a moved exact count: exit %d\n%s", code, out.String())
	}
}
