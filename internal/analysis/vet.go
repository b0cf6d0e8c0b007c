// Package analysis is accvet, the directive-verification pass: it checks
// every localaccess and reductiontoarray annotation, and the independence
// the parallel directive asserts, against the access footprints the
// translator extracted (translator.ProgramAccess) and reports structured
// diagnostics (internal/diag). The paper's programming model trusts the
// programmer's declared footprints; a wrong stride or halo silently
// under-provisions device-local windows and produces answers only the
// runtime auditor can catch. This pass catches the statically provable
// cases at compile time. It is organised by the question asked, and every
// question about a subscript is put to the translator's one algebra
// (Window.Contains, Window.Need, Collide), which the lowering's
// write-miss elision reads too: a verdict here and the runtime's array
// configuration cannot disagree.
//
// Per-loop proofs (loop.go) — is each loop's own footprint honest?
//
//	ACCV001 (error)   localaccess footprint narrower than an actual read
//	ACCV002 (warning) localaccess footprint wider than any inferred need
//	ACCV003 (error)   localaccess on an indirectly indexed array
//	ACCV005 (error)   two iterations write the same element of a
//	                  replicated array without reductiontoarray
//	ACCV006 (warning) unannotated array reduction (a[f(i)] op= ...)
//	ACCV008 (error)   loop-carried RAW/WAR/WAW dependence inside one
//	                  parallel loop
//	ACCV009 (error)   unprovable indirect/non-affine write race;
//	                  `independent` downgrades it to a warning
//
// Region and program flow (flow.go) — what moves between kernels, the
// host and the devices?
//
//	ACCV007 (info)    predicted inter-GPU halo exchange between a
//	                  distributed writer and a halo-widened reader
//	ACCV010 (warning) dead device write: no later consumer of the
//	                  written elements
//	ACCV011 (warning) redundant transfer of data the source side never
//	                  wrote since the last synchronization
//
// The advisor (advise.go) — what could be distributed that is not?
//
//	ACCV012 (info)    block-distributable array replicated program-wide;
//	                  the fix-it is a paste-able localaccess
//	ACCV004 (info)    otherwise, per loop: replicated read-only array with
//	                  provably affine reads
package analysis

import (
	"fmt"

	"accmulti/internal/cc"
	"accmulti/internal/diag"
	"accmulti/internal/translator"
)

// Codes lists every diagnostic code the pass can emit, in order.
var Codes = []string{
	"ACCV001", "ACCV002", "ACCV003", "ACCV004", "ACCV005", "ACCV006", "ACCV007",
	"ACCV008", "ACCV009", "ACCV010", "ACCV011", "ACCV012",
}

// Dep is one statically derived cross-kernel device dependence: the
// loop at WriterLine produces elements of Array that the loop at
// ReaderLine consumes through the same device allocation (WriterLine
// == ReaderLine for a kernel iterated in-place by a host loop).
type Dep struct {
	Array                  string
	WriterLine, ReaderLine int
}

// Result is the outcome of one vet run.
type Result struct {
	// Diags are the findings, sorted by position.
	Diags diag.List
	// FootprintSafe maps each parallel loop's source line to the
	// verifier's verdict: true only when every access the runtime's
	// placement depends on was statically proven safe — every read of
	// every localaccess'd array is literal-affine inside the declared
	// footprint, and no write pattern can make two iterations collide
	// on one element. A safe loop cannot trip the runtime's
	// out-of-partition panic or diverge from the sequential oracle.
	FootprintSafe map[int]bool
	// Access is the footprint analysis the verdicts were derived from.
	Access *translator.ProgramAccess
	// Deps are the cross-kernel dependences, sorted by (array, writer,
	// reader). The scheduler cross-check pins every runtime-serialized
	// kernel-to-kernel dependence against this list.
	Deps []Dep
	// Distributable names the arrays ACCV012 proposed a localaccess for.
	Distributable map[string]bool
}

// Safe reports whether every parallel loop of the program got a
// footprint-safe verdict and no error-severity diagnostic was issued.
func (r *Result) Safe() bool {
	if r.Diags.HasErrors() {
		return false
	}
	for _, ok := range r.FootprintSafe {
		if !ok {
			return false
		}
	}
	return true
}

// Vet analyzes a parsed program and returns diagnostics. It fails only
// when the underlying access analysis cannot run (loops whose shape the
// translator rejects); directive problems are reported as diagnostics.
func Vet(prog *cc.Program) (*Result, error) {
	pa, err := translator.AnalyzeProgram(prog)
	if err != nil {
		return nil, err
	}
	return VetAccess(pa), nil
}

// VetAccess vets a program whose skeleton is already extracted (a compile
// keeps it: core.Program.Vet). It only reads pa.
func VetAccess(pa *translator.ProgramAccess) *Result {
	v := &vetter{
		pa:    pa,
		res:   &Result{FootprintSafe: map[int]bool{}, Access: pa, Distributable: map[string]bool{}},
		raced: map[string]bool{},
	}
	for _, loop := range pa.Loops {
		v.res.FootprintSafe[loop.Line] = v.proveLoop(loop)
	}
	for _, region := range pa.Regions {
		for _, w := range region.Loops {
			v.predictExchange(w, region.Loops)
		}
	}
	v.cleanSeq(pa.Body, cstate{}, true)
	v.liveness()
	v.deps()
	v.advise()
	v.res.Diags.Sort()
	return v.res
}

// vetter holds one run's state. Nothing is reported twice: the per-loop
// proofs and the advisor visit each loop and array once, and the flow
// analyses report (rep) only on the one final pass over each node, their
// fixpoint iterations staying silent.
type vetter struct {
	pa  *translator.ProgramAccess
	res *Result
	// raced names arrays with an ACCV008/ACCV009 finding; the advisor must
	// not propose spreading them.
	raced map[string]bool
}

func (v *vetter) add(sev diag.Severity, code string, line, col int, symbol, fixit, format string, args ...any) {
	v.res.Diags.Add(diag.Diagnostic{
		Severity: sev,
		Code:     code,
		Line:     line,
		Col:      col,
		Message:  fmt.Sprintf(format, args...),
		FixIt:    fixit,
		Symbol:   symbol,
	})
}

// provableWindow is the window of a stride clause the checks can reason
// about: literal arguments and a positive stride.
func provableWindow(spec *cc.LocalSpec) (translator.Window, bool) {
	win, ok := translator.WindowOf(spec)
	return win, ok && win.S > 0
}

// strideText renders the canonical shortest stride clause of a window.
func strideText(w translator.Window) string {
	switch {
	case w.L == 0 && w.R == 0:
		return fmt.Sprintf("stride(%d)", w.S)
	case w.L == w.R:
		return fmt.Sprintf("stride(%d, %d)", w.S, w.L)
	default:
		return fmt.Sprintf("stride(%d, %d, %d)", w.S, w.L, w.R)
	}
}

// localaccessFix is the paste-able directive declaring a window.
func localaccessFix(array string, w translator.Window) string {
	return fmt.Sprintf("#pragma acc localaccess(%s) %s", array, strideText(w))
}

// affineText renders coef*i + off for messages.
func affineText(c translator.Class, ivar string) string {
	switch {
	case c.Coef == 0:
		return fmt.Sprintf("%d", c.Off)
	case c.Off == 0:
		return fmt.Sprintf("%d*%s", c.Coef, ivar)
	case c.Off < 0:
		return fmt.Sprintf("%d*%s - %d", c.Coef, ivar, -c.Off)
	default:
		return fmt.Sprintf("%d*%s + %d", c.Coef, ivar, c.Off)
	}
}

// pragmaLine is the line of a loop's parallel directive, where a
// localaccess suggestion belongs.
func pragmaLine(loop *translator.LoopAccess) int {
	if loop.For != nil && loop.For.Parallel != nil {
		return loop.For.Parallel.Line
	}
	return loop.Line
}

// ExchangeTransfers quantifies an ACCV007 prediction on a concrete
// machine topology: a distributed written array with resident halo
// windows exchanges per writer launch two pushes for each adjacent GPU
// pair — 2*(gpus-1) transfers in total, of which the pairs straddling
// a node boundary travel the NIC, 2*(nodes-1) transfers. The runtime's
// block partition keeps GPU-index-adjacent chunks contiguous (the
// two-level split preserves node-boundary alignment), so the counts
// hold on multi-node machines too; the trace cross-check tests pin
// predicted counts against the runtime's halo-exchange events and the
// "nic"-tagged spans.
func ExchangeTransfers(nodes, gpus int) (total, interNode int) {
	if gpus < 2 {
		return 0, 0
	}
	total = 2 * (gpus - 1)
	if nodes > 1 {
		interNode = 2 * (nodes - 1)
	}
	return total, interNode
}
