package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func buildTool(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "accrun")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func TestAccrunSaxpy(t *testing.T) {
	bin := buildTool(t)
	out, err := exec.Command(bin,
		"-gpus", "2", "-set", "n=10000", "-set", "a=2.0", "-print", "y",
		"../../examples/testdata/saxpy.c").CombinedOutput()
	if err != nil {
		t.Fatalf("accrun: %v\n%s", err, out)
	}
	s := string(out)
	if !strings.Contains(s, "Desktop Machine (2 GPUs), mode Proposal") {
		t.Errorf("header missing:\n%s", s)
	}
	if !strings.Contains(s, "y[0:10] = 0 0 0") {
		t.Errorf("printed array missing (zero inputs give zero saxpy):\n%s", s)
	}
}

func TestAccrunModesAndMachines(t *testing.T) {
	bin := buildTool(t)
	for _, args := range [][]string{
		{"-machine", "super", "-mode", "openmp"},
		{"-machine", "super", "-mode", "baseline"},
		{"-mode", "cuda"},
	} {
		full := append(args, "-set", "n=1000", "../../examples/testdata/dotprod.c")
		if out, err := exec.Command(bin, full...).CombinedOutput(); err != nil {
			t.Errorf("accrun %v: %v\n%s", args, err, out)
		}
	}
}

// -narrate is a text sink over the span stream: it prints exactly the
// spans -trace writes, one line each, then the kernel-engine summary.
func TestAccrunNarrate(t *testing.T) {
	bin := buildTool(t)
	for _, schedule := range [][]string{nil, {"-no-async"}} {
		args := append(schedule, "-narrate", "-trace", filepath.Join(t.TempDir(), "t.json"),
			"-set", "n=1000", "-set", "k=4", "../../examples/testdata/histogram.c")
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err != nil {
			t.Fatalf("accrun %v: %v\n%s", args, err, out)
		}
		var spans, lines int
		for _, line := range strings.Split(string(out), "\n") {
			if strings.HasPrefix(line, "[") {
				lines++
			}
			fmt.Sscanf(line, "trace: %d spans", &spans)
		}
		if spans == 0 || lines != spans {
			t.Errorf("accrun %v: %d narration lines for %d spans:\n%s", args, lines, spans, out)
		}
		for _, want := range []string{"h2d", "kernel", "gather", "spec: "} {
			if !strings.Contains(string(out), want) {
				t.Errorf("accrun %v: output lacks %q:\n%s", args, want, out)
			}
		}
	}
	// Without a sink flag -narrate attaches its own tracer.
	out, err := exec.Command(bin, "-narrate", "-set", "n=1000", "-set", "k=4",
		"../../examples/testdata/histogram.c").CombinedOutput()
	if err != nil || !strings.Contains(string(out), "] h2d") {
		t.Errorf("accrun -narrate alone: %v\n%s", err, out)
	}
}

func TestAccrunTraceAndMetricsFiles(t *testing.T) {
	bin := buildTool(t)
	dir := t.TempDir()
	traceFile := filepath.Join(dir, "out.trace.json")
	metricsFile := filepath.Join(dir, "out.metrics.json")
	run := func(tf string) []byte {
		out, err := exec.Command(bin, "-gpus", "2", "-trace", tf, "-metrics", metricsFile,
			"-set", "n=1000", "-set", "k=4",
			"../../examples/testdata/histogram.c").CombinedOutput()
		if err != nil {
			t.Fatalf("accrun -trace FILE: %v\n%s", err, out)
		}
		data, err := os.ReadFile(tf)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	data := run(traceFile)
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("trace file has no events")
	}
	mdata, err := os.ReadFile(metricsFile)
	if err != nil {
		t.Fatal(err)
	}
	var mets map[string]json.RawMessage
	if err := json.Unmarshal(mdata, &mets); err != nil {
		t.Fatalf("metrics file is not valid JSON: %v", err)
	}
	if _, ok := mets["counters"]; !ok {
		t.Errorf("metrics file lacks counters:\n%s", mdata)
	}
	// Determinism at the tool level: a second run writes identical bytes.
	traceFile2 := filepath.Join(dir, "out2.trace.json")
	if data2 := run(traceFile2); !bytes.Equal(data, data2) {
		t.Error("trace files differ across identical runs")
	}
}

func TestAccrunErrors(t *testing.T) {
	bin := buildTool(t)
	cases := [][]string{
		{"-machine", "vax", "../../examples/testdata/saxpy.c"},
		{"-mode", "quantum", "../../examples/testdata/saxpy.c"},
		{"-set", "noequals", "../../examples/testdata/saxpy.c"},
		{"-set", "n=abc", "../../examples/testdata/saxpy.c"},
		{"/nonexistent.c"},
		{},
	}
	for _, args := range cases {
		if _, err := exec.Command(bin, args...).CombinedOutput(); err == nil {
			t.Errorf("accrun %v should exit nonzero", args)
		}
	}
}

func TestAccrunKernelsTable(t *testing.T) {
	bin := buildTool(t)
	out, err := exec.Command(bin, "-kernels", "-set", "n=1000", "-set", "a=1.0",
		"../../examples/testdata/saxpy.c").CombinedOutput()
	if err != nil {
		t.Fatalf("accrun -kernels: %v\n%s", err, out)
	}
	s := string(out)
	if !strings.Contains(s, "launches") || !strings.Contains(s, "main_L") {
		t.Errorf("kernel table missing:\n%s", s)
	}
}

func TestAccrunAudit(t *testing.T) {
	bin := buildTool(t)
	out, err := exec.Command(bin, "-audit", "-gpus", "2", "-set", "n=5000", "-set", "a=2.0",
		"../../examples/testdata/saxpy.c").CombinedOutput()
	if err != nil {
		t.Fatalf("accrun -audit: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "audit: all device copies matched") {
		t.Errorf("audit confirmation missing:\n%s", out)
	}
}

// TestAccrunAuditNaN runs a kernel whose every result is NaN under
// -audit: the auditor must not report NaN against NaN as a divergence.
func TestAccrunAuditNaN(t *testing.T) {
	bin := buildTool(t)
	src := filepath.Join(t.TempDir(), "nan.c")
	if err := os.WriteFile(src, []byte(`int n;
float x[n], y[n];
void main() {
    int i;
    #pragma acc parallel loop
    for (i = 0; i < n; i++) {
        y[i] = (x[i] - x[i]) / (x[i] - x[i]);
    }
}
`), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, "-audit", "-set", "n=64", src).CombinedOutput()
	if err != nil || !strings.Contains(string(out), "audit: all device copies matched") {
		t.Fatalf("accrun -audit: %v\n%s", err, out)
	}
}

func TestAccrunFaults(t *testing.T) {
	bin := buildTool(t)
	out, err := exec.Command(bin, "-audit", "-faults", "seed=7,oomgpu=1,oomalloc=2",
		"-gpus", "2", "-set", "n=5000", "-set", "a=2.0",
		"../../examples/testdata/saxpy.c").CombinedOutput()
	if err != nil {
		t.Fatalf("accrun -faults: %v\n%s", err, out)
	}
	s := string(out)
	if !strings.Contains(s, "faults: plan") {
		t.Errorf("fault summary missing:\n%s", s)
	}
	if !strings.Contains(s, "oom-fallback") {
		t.Errorf("fallback event missing:\n%s", s)
	}

	// A malformed plan must be rejected.
	if _, err := exec.Command(bin, "-faults", "bogus=1",
		"-set", "n=100", "../../examples/testdata/saxpy.c").CombinedOutput(); err == nil {
		t.Error("accrun -faults bogus=1 should exit nonzero")
	}

	// With degradation disabled, an injected OOM is fatal.
	if _, err := exec.Command(bin, "-no-degrade", "-faults", "seed=7,oomgpu=1,oomalloc=2",
		"-gpus", "2", "-set", "n=5000", "-set", "a=2.0",
		"../../examples/testdata/saxpy.c").CombinedOutput(); err == nil {
		t.Error("accrun -no-degrade with an injected OOM should exit nonzero")
	}
}
