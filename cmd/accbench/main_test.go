package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func buildTool(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "accbench")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func TestAccbenchTable1(t *testing.T) {
	bin := buildTool(t)
	out, err := exec.Command(bin, "table1").CombinedOutput()
	if err != nil {
		t.Fatalf("accbench table1: %v\n%s", err, out)
	}
	for _, want := range []string{"Table I", "Desktop Machine", "Supercomputer Node", "Tesla C2075"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestAccbenchTinyFig7SingleApp(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the functional simulation")
	}
	bin := buildTool(t)
	out, err := exec.Command(bin,
		"-apps", "MD", "-appscale", "MD=0.05", "-verify", "fig7").CombinedOutput()
	if err != nil {
		t.Fatalf("accbench fig7: %v\n%s", err, out)
	}
	s := string(out)
	for _, want := range []string{"Figure 7", "Proposal(2)", "Headline"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestAccbenchBadFlags(t *testing.T) {
	bin := buildTool(t)
	for _, args := range [][]string{
		{"-apps", "NOPE", "fig7"},
		{"-appscale", "garbage", "table1"},
		{"-appscale", "MD=notanumber", "table1"},
		{"loadtest"},
		{"table1", "fig10"},
	} {
		if _, err := exec.Command(bin, args...).CombinedOutput(); err == nil {
			t.Errorf("accbench %v should exit nonzero", args)
		}
	}
}
