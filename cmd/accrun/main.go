// Command accrun compiles an OpenACC C file and executes it on a
// simulated multi-GPU machine, printing the execution report (time
// breakdown, transfer volumes, device memory peaks). Scalar parameters
// are bound with -set name=value; arrays not bound start zeroed.
//
// Usage:
//
//	accrun [-machine desktop|super|NxM[:opts]] [-gpus n] [-mode proposal|openmp|baseline|cuda]
//	       [-vet [-json]] [-audit [-audit-tol x]] [-faults seed=7,oomgpu=1,oomalloc=5,... [-no-degrade]]
//	       [-no-async] [-reference] [-trace out.trace.json] [-metrics out.metrics.json]
//	       [-narrate] [-kernels] [-set n=1000 -set a=2.5 ...] [-print arr] file.c
//
// Runs execute under the asynchronous pipelined scheduler by default:
// results and transfer accounting are bit-identical to the
// bulk-synchronous schedule, but the reported total is the overlapped
// makespan. -no-async restores the strict phase-by-phase timeline.
//
// -trace writes a deterministic Chrome trace-event file (open it in a
// Chromium browser's about://tracing, or drop it on ui.perfetto.dev):
// one lane per GPU plus host and comms lanes, stamped with the
// simulated clock. -metrics dumps the aggregate counters and
// histograms as JSON. -narrate prints the same span stream as text, one
// line per span, to stderr, and a summary of which kernel engine ran to
// stdout.
//
// -vet runs the accvet directive checks first, printing diagnostics to
// stderr and refusing to execute a program with verification errors;
// -json switches the diagnostic rendering to a JSON array.
//
// -machine also accepts a cluster topology, nodes x GPUs-per-node with
// optional overrides: `2x4`, `2x2:nic=1G:niclat=10`,
// `2x4:base=desktop:pcie=8G`. Arrays block-partition across nodes and
// then across each node's GPUs; traffic crossing nodes is staged over
// the modeled network and shows up on per-NIC trace lanes. A topology
// fixes the GPU count, so it cannot be combined with -gpus. The
// degenerate `1xN` is bit-identical to the flat N-GPU machine.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"accmulti/internal/cliutil"
	"accmulti/internal/core"
	"accmulti/internal/diag"
	"accmulti/internal/ir"
	"accmulti/internal/rt"
	"accmulti/internal/trace"
)

type setFlags []string

func (s *setFlags) String() string     { return strings.Join(*s, ",") }
func (s *setFlags) Set(v string) error { *s = append(*s, v); return nil }

func main() {
	var sets setFlags
	var rf cliutil.RunFlags
	machine := flag.String("machine", "desktop", "platform: desktop, super, or a topology like 2x4:nic=1G")
	gpus := flag.Int("gpus", 0, "override GPU count (0 = platform default)")
	mode := flag.String("mode", "proposal", "proposal, openmp, baseline or cuda")
	narrate := flag.Bool("narrate", false, "print the span stream as text (one line per span) and the kernel-engine summary")
	kernels := flag.Bool("kernels", false, "print a per-kernel statistics table after the run")
	printArr := flag.String("print", "", "print this array's first elements after the run")
	vet := flag.Bool("vet", false, "run the accvet directive checks before executing; abort on errors")
	vetJSON := flag.Bool("json", false, "with -vet: print diagnostics as a JSON array")
	auditRun := flag.Bool("audit", false, "verify every device copy against a sequential shadow oracle")
	auditTol := flag.Float64("audit-tol", 0, "relative tolerance for float reductions under -audit (0 = default)")
	rf.RegisterSinks(flag.CommandLine)
	rf.RegisterFaults(flag.CommandLine)
	rf.RegisterAblations(flag.CommandLine)
	flag.Var(&sets, "set", "bind a scalar parameter, name=value (repeatable)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: accrun [flags] file.c (use - for stdin)")
		os.Exit(2)
	}

	var src []byte
	var err error
	if name := flag.Arg(0); name == "-" {
		src, err = io.ReadAll(os.Stdin)
	} else {
		src, err = os.ReadFile(name)
	}
	if err != nil {
		fatal(err)
	}

	spec, err := cliutil.Machine(*machine, *gpus)
	if err != nil {
		fatal(err)
	}

	var opts rt.Options
	opts.Mode, err = cliutil.Mode(*mode)
	if err != nil {
		fatal(err)
	}
	tracer := rf.NewTracer()
	if *narrate && tracer == nil {
		tracer = trace.New()
	}
	// The CLI defaults to the pipelined schedule: same results and
	// accounting, overlapped makespan. -no-async restores the pure
	// bulk-synchronous timeline.
	rf.ApplyTo(&opts)
	plan, err := rf.FaultPlan()
	if err != nil {
		fatal(err)
	}

	b := ir.NewBindings()
	for _, kv := range sets {
		name, val, ok := strings.Cut(kv, "=")
		if !ok {
			fatal(fmt.Errorf("bad -set %q (want name=value)", kv))
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			fatal(fmt.Errorf("bad -set %q: %v", kv, err))
		}
		b.SetScalar(name, f)
	}

	prog, err := core.Compile(string(src))
	if err != nil {
		fatal(err)
	}
	if *vet {
		vres, err := prog.Vet()
		if err != nil {
			fatal(err)
		}
		display := flag.Arg(0)
		if display == "-" {
			display = "<stdin>"
		} else {
			display = filepath.Base(display)
		}
		if *vetJSON {
			if err := vres.Diags.WriteJSON(os.Stderr, display); err != nil {
				fatal(err)
			}
		} else {
			fmt.Fprint(os.Stderr, vres.Diags.Format(display))
		}
		if vres.Diags.HasErrors() {
			fatal(fmt.Errorf("vet found %d error(s); not running", vres.Diags.Count(diag.Error)))
		}
	}
	res, err := prog.Run(b, core.Config{
		Machine: spec, Options: opts,
		Audit: *auditRun, AuditTolerance: *auditTol, Faults: plan,
		Trace: tracer,
	})
	if *narrate {
		// What the run stated before it ended, a failed one included.
		if werr := trace.WriteText(os.Stderr, tracer); werr != nil {
			fatal(werr)
		}
	}
	if err != nil {
		fatal(err)
	}
	if err := rf.WriteSinks(tracer); err != nil {
		fatal(err)
	}
	if rf.TraceFile != "" {
		fmt.Printf("trace: %d spans -> %s\n", len(tracer.Spans()), rf.TraceFile)
	}
	if rf.MetricsFile != "" {
		fmt.Printf("metrics: -> %s\n", rf.MetricsFile)
	}
	fmt.Printf("machine: %s (%d GPUs), mode %s\n", spec.Name, spec.NumGPUs, opts.Mode)
	fmt.Println(res.Report)
	if *narrate {
		printSpecSummary(res.Runtime.SpecStats())
	}
	if *auditRun {
		fmt.Println("audit: all device copies matched the sequential oracle")
	}
	if plan.Active() {
		fmt.Printf("faults: plan %q: %d transfer retries, %d fallbacks\n",
			plan, res.Report.TransferRetries, res.Report.Fallbacks)
		for _, ev := range res.Report.Events {
			fmt.Printf("  [%s] %s: %s\n", ev.Time.Round(time.Microsecond), ev.Kind, ev.Detail)
		}
	}
	if *kernels {
		names := make([]string, 0, len(res.Report.PerKernel))
		for name := range res.Report.PerKernel {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Printf("%-14s %8s %14s %14s %14s\n", "kernel", "launches", "time", "flops", "bytes")
		for _, name := range names {
			ks := res.Report.PerKernel[name]
			fmt.Printf("%-14s %8d %14s %14d %14d\n",
				name, ks.Launches, ks.Time.Round(time.Microsecond),
				ks.Counters.Flops, ks.Counters.BytesRead+ks.Counters.BytesWritten)
		}
	}
	if *printArr != "" {
		a, err := res.Instance.Array(*printArr)
		if err != nil {
			fatal(err)
		}
		n := a.Len()
		if n > 10 {
			n = 10
		}
		fmt.Printf("%s[0:%d] =", *printArr, n)
		for i := int64(0); i < n; i++ {
			switch {
			case a.F32 != nil:
				fmt.Printf(" %g", a.F32[i])
			case a.F64 != nil:
				fmt.Printf(" %g", a.F64[i])
			default:
				fmt.Printf(" %d", a.I32[i])
			}
		}
		fmt.Println()
	}
}

// printSpecSummary reports how much of Phase B ran on the specialized
// executor's lockstep tiles and how their loops went, with the
// interpreter fallbacks broken down by runtime reason and the
// outright-rejected kernels by compile-time reason.
func printSpecSummary(st rt.SpecStats) {
	fmt.Printf("spec: %d chunks specialized, %d interpreter fallbacks\n", st.Hits, st.Fallbacks)
	if st.SplitPieces > 0 {
		fmt.Printf("  affine-guard chunks split into %d pieces\n", st.SplitPieces)
	}
	if st.TiledIters > 0 {
		fmt.Printf("  %d iterations ran in lockstep tiles\n", st.TiledIters)
	}
	if st.HazardLanes > 0 {
		fmt.Printf("  %d of them went to the next tile after a store into their tile's window\n", st.HazardLanes)
	}
	if st.FlatCuts > 0 {
		fmt.Printf("  %d flat tiles were cut at a hazard\n", st.FlatCuts)
	}
	printReasons := func(label string, m map[string]int64) {
		if len(m) == 0 {
			return
		}
		reasons := make([]string, 0, len(m))
		for reason := range m {
			reasons = append(reasons, reason)
		}
		sort.Strings(reasons)
		parts := make([]string, len(reasons))
		for i, reason := range reasons {
			parts[i] = fmt.Sprintf("%s=%d", reason, m[reason])
		}
		fmt.Printf("  %s: %s\n", label, strings.Join(parts, " "))
	}
	printReasons("fallback reasons", st.FallbackReasons)
	printReasons("rejected kernels (chunks, by compile reason)", st.Rejects)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "accrun:", err)
	os.Exit(1)
}
