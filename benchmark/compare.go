package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// compare reads two runs files (one record per line, as every run
// appends to benchmark/out/runs.jsonl) and judges the second against
// the first: per workload and end-to-end metric both medians, the
// ratio with the first as base, the bound and a verdict; exact counts
// of the traced pass are compared for equality.

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// quartiles returns the cut points of statistics.quantiles(v, n=4) in
// Python (the exclusive method), which is how the bounds were set.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

func metricValues(recs []record, workload string, traced bool, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if r.Workload != workload || r.Traced != traced {
			continue
		}
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// judge gives the verdict for one metric: how much worse the second
// set's median is than the first's, against the bound and against the
// sets' own spread.
func judge(d metricDef, a, b []float64) (ratio, worseBy, maxSpread float64, verdict string) {
	ma, mb := medianF(a), medianF(b)
	if ma != 0 {
		ratio = mb / ma
		worseBy = (mb - ma) / ma
		if d.Better == higher {
			worseBy = -worseBy
		}
	}
	maxSpread = spread(a)
	if s := spread(b); s > maxSpread {
		maxSpread = s
	}
	switch {
	case worseBy > d.Bound && worseBy > maxSpread:
		verdict = "worse"
	case worseBy > d.Bound || maxSpread > d.Bound:
		verdict = "unresolved"
	default:
		verdict = "ok"
	}
	return ratio, worseBy, maxSpread, verdict
}

func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: benchmark compare <base runs.jsonl> <new runs.jsonl>")
		return 2
	}
	var sets [2][]record
	for i, path := range args {
		recs, err := readRecords(path)
		if err == nil && len(recs) == 0 {
			err = fmt.Errorf("%s holds no runs", path)
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark compare:", err)
			return 2
		}
		sets[i] = recs
	}
	a, b := sets[0], sets[1]
	both := append(append([]record(nil), a...), b...)
	fmt.Fprintf(stdout, "base %s: commit %s, %s, GOMAXPROCS %d\n", args[0], a[0].Commit, a[0].GoVersion, a[0].GOMAXPROCS)
	fmt.Fprintf(stdout, "new  %s: commit %s, %s, GOMAXPROCS %d\n", args[1], b[0].Commit, b[0].GoVersion, b[0].GOMAXPROCS)

	findings := 0
	fmt.Fprintf(stdout, "%-13s %-16s %12s %12s %14s %7s %7s  %s\n",
		"workload", "metric", "base median", "new median", "new/base", "spread", "bound", "verdict")
	for _, w := range workloads {
		for _, d := range endToEndDefs {
			va, vb := metricValues(a, w.name, false, d.Name), metricValues(b, w.name, false, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ratio, _, sp, verdict := judge(d, va, vb)
			if verdict == "worse" {
				findings++
			}
			fmt.Fprintf(stdout, "%-13s %-16s %12.5g %12.5g %8.4f (n=%d,%d) %6.1f%% %6.1f%%  %s\n",
				w.name, d.Name, medianF(va), medianF(vb), ratio, len(va), len(vb), 100*sp, 100*d.Bound, verdict)
		}
		for _, r := range both {
			if r.Workload == w.name && r.Failed > 0 {
				findings++
				fmt.Fprintf(stdout, "%-13s %-16s seed %d: %d of %d ops failed their output check  worse\n",
					w.name, "fail_share", r.Seed, r.Failed, r.Attempted)
			}
		}
	}

	// Exact counts: one value per workload and seed, over both files.
	type key struct {
		workload, metric string
		seed             int64
	}
	seen := map[key]map[float64]bool{}
	exact := map[string]bool{}
	for _, d := range perLayerDefs {
		exact[d.Name] = d.Exact
	}
	for _, r := range both {
		for _, o := range r.SimOffenders {
			fmt.Fprintf(stdout, "%-13s rt.sim_distinct seed %d: %s  finding\n", r.Workload, r.Seed, o)
		}
		if !r.Traced {
			continue
		}
		for name, m := range r.Metrics {
			if !exact[name] {
				continue
			}
			k := key{r.Workload, name, r.Seed}
			if seen[k] == nil {
				seen[k] = map[float64]bool{}
			}
			seen[k][m.Value] = true
		}
	}
	var differing []string
	for k, vals := range seen {
		if len(vals) > 1 {
			var vs []float64
			for v := range vals {
				vs = append(vs, v)
			}
			sort.Float64s(vs)
			differing = append(differing, fmt.Sprintf("%-13s %s seed %d: exact count takes values %v  differs", k.workload, k.metric, k.seed, vs))
		}
	}
	sort.Strings(differing)
	for _, line := range differing {
		findings++
		fmt.Fprintln(stdout, line)
	}
	if len(seen) > 0 {
		fmt.Fprintf(stdout, "exact counts: %d compared, %d differ\n", len(seen), len(differing))
	}
	if findings > 0 {
		fmt.Fprintf(stdout, "%d finding(s)\n", findings)
		return 1
	}
	return 0
}
