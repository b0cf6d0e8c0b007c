package rt_test

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"accmulti/internal/apps"
	"accmulti/internal/cc"
	"accmulti/internal/rt"
	"accmulti/internal/sim"
	"accmulti/internal/translator"
)

var updateSpecFallbacks = flag.Bool("update-spec-fallbacks", false, "rewrite testdata/spec_fallbacks.golden")

// TestSpecFallbackReasonsGolden pins which chunks leave the specialized
// executor, and why, on every differential template (seed 1) and on the
// six apps: the lines of the templates and apps that existed then were
// generated at the parent of the change that made the interval prover
// answer loads from whole-residency scans, so a proof that a wider scan
// loses — a chunk handled before, interpreted now — shows up here. The
// safety templates come last (rows are only ever appended) and also list
// the chunks of kernels the tiles rejected, by reason.
func TestSpecFallbackReasonsGolden(t *testing.T) {
	machines := []sim.MachineSpec{sim.Desktop(), sim.Cluster(2, 2)}
	var lines []string
	byReason := func(prefix string, reasons map[string]int64) string {
		keys := make([]string, 0, len(reasons))
		for k := range reasons {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var line string
		for _, k := range keys {
			line += fmt.Sprintf(" %s%s=%d", prefix, k, reasons[k])
		}
		return line
	}
	record := func(name string, m sim.MachineSpec, r *rt.Runtime, rejects bool) {
		st := r.SpecStats()
		line := fmt.Sprintf("%s @ %s: hits=%d", name, m.Name, st.Hits) + byReason("", st.FallbackReasons)
		if rejects {
			line += byReason("reject.", st.Rejects)
		}
		lines = append(lines, line)
	}
	// The groups in the order their rows were first written: the original
	// templates, (the apps,) the safety templates, the loop templates,
	// safety-indirect and the flat-row templates, the type-matrix templates,
	// the rewrite templates, the walk templates.
	group := func(name string) int {
		switch prefix, _, _ := strings.Cut(name, "-"); {
		case name == "safety-indirect" || strings.HasPrefix(name, "flat-rows-"):
			return 3
		case prefix == "types":
			return 4
		case prefix == "hoist" || prefix == "split":
			return 5
		case prefix == "walk":
			return 6
		case prefix == "safety":
			return 1
		case prefix == "loopred" || prefix == "unloopred" || prefix == "flat":
			return 2
		}
		return 0
	}
	templates := func(g int) {
		for _, tpl := range specTemplates {
			if group(tpl.name) != g {
				continue
			}
			for _, m := range machines {
				r, _, err := runSpecTemplate(t, tpl, tpl.scalars(rand.New(rand.NewSource(1))), 1007, m, rt.Options{})
				if err != nil {
					t.Fatalf("%s: %v", tpl.name, err)
				}
				record(tpl.name, m, r, strings.HasPrefix(tpl.name, "safety-"))
			}
		}
	}
	templates(0)
	for _, ac := range []struct {
		name  string
		scale float64
	}{{"MD", 0.02}, {"KMEANS", 0.004}, {"BFS", 0.005}, {"NBODY", 0.02}, {"SPMV", 0.02}, {"HOTSPOT2D", 0.02}} {
		app, err := apps.ByName(ac.name)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := cc.ParseProgram(app.Source)
		if err != nil {
			t.Fatal(err)
		}
		mod, err := translator.Translate(prog)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range machines {
			in, err := app.Generate(ac.scale, 42)
			if err != nil {
				t.Fatal(err)
			}
			inst, err := mod.Bind(in.Bindings)
			if err != nil {
				t.Fatal(err)
			}
			mach, err := sim.NewMachine(m)
			if err != nil {
				t.Fatal(err)
			}
			r := rt.New(mach, rt.Options{})
			if err := r.Run(inst); err != nil {
				t.Fatalf("%s: %v", ac.name, err)
			}
			record("app "+ac.name, m, r, false)
		}
	}
	templates(1)
	templates(2)
	templates(3)
	templates(4)
	templates(5)
	templates(6)
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "spec_fallbacks.golden")
	if *updateSpecFallbacks {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("fallback table diverged from %s (regenerate with -update-spec-fallbacks only for new rows):\n%s", path, lineDiff(string(want), got))
	}
}

// lineDiff lists the lines two texts do not share.
func lineDiff(want, got string) string {
	in := func(s string) map[string]bool {
		m := map[string]bool{}
		for _, l := range strings.Split(s, "\n") {
			m[l] = true
		}
		return m
	}
	w, g := in(want), in(got)
	var b strings.Builder
	for _, l := range strings.Split(want, "\n") {
		if !g[l] {
			fmt.Fprintf(&b, "- %s\n", l)
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if !w[l] {
			fmt.Fprintf(&b, "+ %s\n", l)
		}
	}
	return b.String()
}
