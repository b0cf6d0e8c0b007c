// Package analysis is the accvet directive-verification pass: it
// cross-checks every localaccess and reductiontoarray annotation
// against the translator's inferred access footprints and reports
// structured diagnostics (internal/diag). The paper's programming
// model trusts the programmer's declared read footprints; a wrong
// stride or halo silently under-provisions device-local windows and
// produces answers only the runtime auditor can catch. This pass
// catches the statically provable cases at compile time.
//
// Diagnostic codes:
//
//	ACCV001 (error)   localaccess footprint narrower than an actual read
//	ACCV002 (warning) localaccess footprint wider than any inferred need
//	ACCV003 (error)   localaccess on an indirectly indexed array
//	ACCV004 (info)    replicated read-only array with provably affine
//	                  reads: a localaccess would distribute it
//	ACCV005 (error)   two iterations write the same element of a
//	                  replicated array without reductiontoarray
//	ACCV006 (warning) unannotated array reduction (a[f(i)] op= ...)
//	ACCV007 (info)    predicted inter-GPU halo exchange between a
//	                  distributed writer and a halo-widened reader
//
// The whole-program dataflow pass (internal/analysis/dataflow) adds:
//
//	ACCV008 (error)   loop-carried RAW/WAR/WAW dependence inside one
//	                  parallel loop
//	ACCV009 (error)   unprovable indirect/non-affine write race;
//	                  `independent` downgrades it to a warning
//	ACCV010 (warning) dead device write: no later consumer of the
//	                  written elements
//	ACCV011 (warning) redundant transfer of data the source side never
//	                  wrote since the last synchronization
//	ACCV012 (info)    block-distributable array replicated program-wide;
//	                  the fix-it is a paste-able localaccess
package analysis

import (
	"fmt"
	"strings"

	"accmulti/internal/analysis/dataflow"
	"accmulti/internal/cc"
	"accmulti/internal/diag"
	"accmulti/internal/translator"
)

// Codes lists every diagnostic code the pass can emit, in order.
var Codes = []string{
	"ACCV001", "ACCV002", "ACCV003", "ACCV004", "ACCV005", "ACCV006", "ACCV007",
	"ACCV008", "ACCV009", "ACCV010", "ACCV011", "ACCV012",
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
	// Flow is the whole-program dataflow pass's result: its diagnostics
	// are already merged into Diags; Deps and Distributable are exposed
	// for the runtime cross-checks.
	Flow *dataflow.Result
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
	v := &vetter{res: &Result{FootprintSafe: map[int]bool{}, Access: pa}}
	for _, loop := range pa.Loops {
		v.checkLoop(loop)
	}
	for _, region := range pa.Regions {
		for _, w := range region.Loops {
			v.predictExchange(w, region.Loops)
		}
	}

	flow := dataflow.Analyze(pa)
	v.res.Flow = flow
	for _, d := range flow.Diags {
		v.res.Diags.Add(d)
	}
	// A program-wide distributability advisory (ACCV012) subsumes the
	// per-loop replication hints on the same array.
	if len(flow.Distributable) > 0 {
		kept := v.res.Diags[:0]
		for _, d := range v.res.Diags {
			if d.Code == "ACCV004" && flow.Distributable[d.Symbol] {
				continue
			}
			kept = append(kept, d)
		}
		v.res.Diags = kept
	}
	v.res.Diags.Sort()
	return v.res
}

type vetter struct {
	res *Result
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

// strideFP is a localaccess stride footprint with literal arguments:
// iteration i may read [s*i - l, s*(i+1) - 1 + r].
type strideFP struct {
	s, l, r int64
	ok      bool
}

func literalStride(spec *cc.LocalSpec) strideFP {
	if spec == nil || !spec.HasStride {
		return strideFP{}
	}
	s, ok1 := translator.LiteralInt(spec.Stride)
	l, ok2 := translator.LiteralInt(spec.Left)
	r, ok3 := translator.LiteralInt(spec.Right)
	return strideFP{s: s, l: l, r: r, ok: ok1 && ok2 && ok3}
}

// contains reports whether the read index coef*i + off stays inside
// the stride footprint for every iteration i >= 0.
func (fp strideFP) contains(coef, off int64) bool {
	return coef == fp.s && off >= -fp.l && off <= fp.s-1+fp.r
}

func (v *vetter) checkLoop(loop *translator.LoopAccess) {
	safe := true
	for _, fp := range loop.Arrays {
		if !v.checkFootprint(loop, fp) {
			safe = false
		}
		if !v.checkWrites(loop, fp) {
			safe = false
		}
		v.inferLocalAccess(loop, fp)
	}
	v.res.FootprintSafe[loop.Line] = safe
}

// checkFootprint verifies one array's localaccess clause against its
// inferred reads (ACCV001/ACCV002/ACCV003) and returns whether every
// read was statically proven inside the declared footprint.
func (v *vetter) checkFootprint(loop *translator.LoopAccess, fp *translator.ArrayFootprint) bool {
	spec := fp.Spec
	if spec == nil {
		return true // replicated: reads are always in range
	}
	if fp.IndirectRead {
		bad := firstIndirect(fp.Reads)
		v.add(diag.Error, "ACCV003", spec.Line, spec.Col, fp.Array.Name, "",
			"localaccess(%s): the loop indexes %q indirectly (%s at line %d); "+
				"a data-dependent footprint cannot be declared — remove the localaccess and replicate the array",
			fp.Array.Name, fp.Array.Name, bad.Src, bad.Line)
		return false
	}

	if spec.HasStride {
		sfp := literalStride(spec)
		if !sfp.ok || sfp.s <= 0 {
			// Symbolic stride arguments: nothing provable either way.
			return false
		}
		verified, narrow := true, false
		for _, r := range fp.Reads {
			if !r.Literal {
				verified = false // e.g. clamped boundary reads via min/max
				continue
			}
			if !sfp.contains(r.Coef, r.Off) {
				narrow = true
				verified = false
				v.add(diag.Error, "ACCV001", r.Line, r.Col, fp.Array.Name, "",
					"localaccess(%s) %s (line %d) declares the per-iteration footprint "+
						"[%d*i-%d, %d*(i+1)-1+%d], but the loop reads %s = %s: "+
						"the declared range is narrower than the actual reads",
					fp.Array.Name, dataflow.StrideText(sfp.s, sfp.l, sfp.r), spec.Line,
					sfp.s, sfp.l, sfp.s, sfp.r, r.Src, dataflow.AffineText(r.Coef, r.Off, loop.LoopVar.Name))
			}
		}
		if !narrow {
			v.checkTooWide(fp, sfp)
		}
		return verified
	}

	// Bounds form: verifiable when both bounds are literal-affine in
	// the induction variable.
	cl, ol, okL := translator.LiteralAffine(spec.Lower, loop.LoopVar)
	cu, ou, okU := translator.LiteralAffine(spec.Upper, loop.LoopVar)
	if !okL || !okU {
		return false
	}
	verified := true
	for _, r := range fp.Reads {
		if !r.Literal {
			verified = false
			continue
		}
		// coef*i + off must stay within [cl*i + ol, cu*i + ou] for all
		// i >= 0: compare slopes and intercepts independently.
		if r.Coef < cl || r.Off < ol || r.Coef > cu || r.Off > ou {
			verified = false
			v.add(diag.Error, "ACCV001", r.Line, r.Col, fp.Array.Name, "",
				"localaccess(%s) bounds (line %d) declare the per-iteration footprint "+
					"[%s, %s], but the loop reads %s = %s: "+
					"the declared range is narrower than the actual reads",
				fp.Array.Name, spec.Line,
				translator.ExprString(spec.Lower), translator.ExprString(spec.Upper),
				r.Src, dataflow.AffineText(r.Coef, r.Off, loop.LoopVar.Name))
		}
	}
	return verified
}

// checkTooWide warns when a verified stride footprint declares more
// halo than any inferred access needs (ACCV002). Writes count toward
// the need: shrinking below a write offset would be correct (the miss
// buffer catches it) but would trade the declared-window fast path for
// per-element miss handling.
func (v *vetter) checkTooWide(fp *translator.ArrayFootprint, sfp strideFP) {
	var needL, needR int64
	all := append(append([]translator.IndexForm{}, fp.Reads...), fp.Writes...)
	if len(all) == 0 {
		return
	}
	for _, x := range all {
		if !x.Literal || x.Coef != sfp.s {
			return // any unproven access keeps the declared halo honest
		}
		if l := -x.Off; l > needL {
			needL = l
		}
		if r := x.Off - (sfp.s - 1); r > needR {
			needR = r
		}
	}
	if sfp.l > needL || sfp.r > needR {
		fix := fmt.Sprintf("#pragma acc localaccess(%s) %s", fp.Array.Name, dataflow.StrideText(sfp.s, needL, needR))
		v.add(diag.Warning, "ACCV002", fp.Spec.Line, fp.Spec.ClauseCol, fp.Array.Name, fix,
			"localaccess(%s) declares halo (%d, %d) but the loop only needs (%d, %d): "+
				"the extra halo is replicated to every GPU and transferred on each launch",
			fp.Array.Name, sfp.l, sfp.r, needL, needR)
	}
}

// inferLocalAccess suggests a localaccess for replicated read-only
// arrays whose reads are provably affine with one common stride
// (ACCV004).
func (v *vetter) inferLocalAccess(loop *translator.LoopAccess, fp *translator.ArrayFootprint) {
	if fp.Spec != nil || !fp.Read || fp.Written || fp.Reduced || fp.IndirectRead || len(fp.Reads) == 0 {
		return
	}
	coef := int64(0)
	var needL, needR int64
	for i, r := range fp.Reads {
		if !r.Literal {
			return
		}
		if i == 0 {
			coef = r.Coef
		} else if r.Coef != coef {
			return
		}
	}
	if coef <= 0 {
		return
	}
	for _, r := range fp.Reads {
		if l := -r.Off; l > needL {
			needL = l
		}
		if rr := r.Off - (coef - 1); rr > needR {
			needR = rr
		}
	}
	line := loop.Line
	if loop.For != nil && loop.For.Parallel != nil {
		line = loop.For.Parallel.Line
	}
	fix := fmt.Sprintf("#pragma acc localaccess(%s) %s", fp.Array.Name, dataflow.StrideText(coef, needL, needR))
	v.add(diag.Info, "ACCV004", line, 0, fp.Array.Name, fix,
		"array %q is read-only in this loop and every read is affine "+
			"(footprint [%d*i-%d, %d*(i+1)-1+%d]); a localaccess directive would "+
			"distribute it instead of replicating it to every GPU",
		fp.Array.Name, coef, needL, coef, needR)
}

// checkWrites detects provable write conflicts on replicated arrays
// (ACCV005) and unannotated array reductions (ACCV006), and returns
// whether the write pattern was proven collision free.
func (v *vetter) checkWrites(loop *translator.LoopAccess, fp *translator.ArrayFootprint) bool {
	if len(fp.Writes) == 0 {
		return true
	}
	safe := true
	// Reduction-shaped compound writes whose target element is not a
	// distinct-per-iteration function of i should carry
	// reductiontoarray (ACCV006).
	var plain []translator.IndexForm
	for _, w := range fp.Writes {
		if w.Op != "=" && mayCollide(w) {
			safe = false
			fix := ""
			if op, ok := reduceOp(w.Op); ok {
				fix = fmt.Sprintf("#pragma acc reductiontoarray(%s: %s)", op, w.Src)
			}
			v.add(diag.Warning, "ACCV006", w.Line, w.Col, fp.Array.Name, fix,
				"%s %s ... accumulates into an element that multiple iterations can hit; "+
					"without a reductiontoarray annotation the multi-GPU merge loses contributions",
				w.Src, w.Op)
			continue
		}
		plain = append(plain, w)
	}

	// Provable element collisions between iterations (ACCV005): only
	// meaningful for replicated arrays, where the dirty-bit merge
	// picks an arbitrary GPU's value for a conflicted element.
	if fp.Spec == nil {
		for i, w := range plain {
			if !w.Literal {
				if w.Op == "=" {
					safe = false // unprovable scatter: not an error, not safe
				}
				continue
			}
			if w.Coef == 0 {
				safe = false
				v.add(diag.Error, "ACCV005", w.Line, w.Col, fp.Array.Name, "",
					"every iteration writes the same element %s of the replicated array %q; "+
						"the multi-GPU merge keeps an arbitrary GPU's value — use a scalar or reductiontoarray",
					w.Src, fp.Array.Name)
				continue
			}
			for _, prev := range plain[:i] {
				if !prev.Literal || prev.Coef != w.Coef || prev.Off == w.Off {
					continue
				}
				if (w.Off-prev.Off)%w.Coef == 0 {
					safe = false
					v.add(diag.Error, "ACCV005", w.Line, w.Col, fp.Array.Name, "",
						"writes %s (line %d) and %s (line %d) hit the same element of the "+
							"replicated array %q on different iterations (offsets %d and %d are "+
							"congruent mod %d); the multi-GPU merge order is not the sequential order",
						prev.Src, prev.Line, w.Src, w.Line, fp.Array.Name, prev.Off, w.Off, w.Coef)
				}
			}
		}
	}

	// The footprint-safe verdict additionally demands that every write
	// (plain or compound) provably hits a distinct element per
	// iteration, so no cross-GPU merge can disagree with the
	// sequential oracle.
	for i, w := range plain {
		if !w.Literal || w.Coef == 0 {
			safe = false
			continue
		}
		for _, prev := range plain[:i] {
			if !prev.Literal {
				continue
			}
			if prev.Coef != w.Coef {
				safe = false
				continue
			}
			if prev.Off != w.Off && (w.Off-prev.Off)%w.Coef == 0 {
				safe = false
			}
		}
	}
	return safe
}

// mayCollide reports whether a subscript could evaluate to the same
// element on two different iterations, as far as the analysis can see.
func mayCollide(w translator.IndexForm) bool {
	if w.Indirect || !w.Literal {
		return true
	}
	return w.Coef == 0
}

func reduceOp(assignOp string) (string, bool) {
	switch assignOp {
	case "+=":
		return "+", true
	case "*=":
		return "*", true
	}
	return "", false
}

// predictExchange predicts inter-GPU halo exchanges (ACCV007): inside
// one data region, an array written distributed by one loop and read
// with a halo-widened footprint by another forces the comm manager to
// push each GPU's boundary elements into its neighbours' halo windows
// after every writer launch (once the reader's widened extents are
// resident). It reports at most one ACCV007 per (writer loop, array):
// the exchange happens once per writer launch no matter how many later
// kernels read through the resident halo windows, so multiple readers
// fold into the diagnostic of the widest one.
func (v *vetter) predictExchange(wLoop *translator.LoopAccess, loops []*translator.LoopAccess) {
	for _, wfp := range wLoop.Arrays {
		if !wfp.Written || wfp.Spec == nil {
			continue
		}
		wfpS := literalStride(wfp.Spec)
		if !wfpS.ok || wfpS.s <= 0 {
			continue
		}
		type haloReader struct {
			loop *translator.LoopAccess
			fp   *translator.ArrayFootprint
			sfp  strideFP
		}
		var readers []haloReader
		for _, rLoop := range loops {
			if rLoop == wLoop {
				continue
			}
			rfp := rLoop.Footprint(wfp.Array)
			if rfp == nil || !rfp.Read || rfp.Spec == nil {
				continue
			}
			rfpS := literalStride(rfp.Spec)
			if !rfpS.ok || rfpS.s != wfpS.s || rfpS.l+rfpS.r == 0 {
				continue
			}
			readers = append(readers, haloReader{loop: rLoop, fp: rfp, sfp: rfpS})
		}
		if len(readers) == 0 {
			continue
		}
		best := readers[0]
		for _, r := range readers[1:] {
			if r.sfp.l+r.sfp.r > best.sfp.l+best.sfp.r {
				best = r
			}
		}
		extra := ""
		if len(readers) > 1 {
			var lines []string
			for _, r := range readers {
				if r.loop != best.loop {
					lines = append(lines, fmt.Sprintf("%d", r.loop.Line))
				}
			}
			extra = fmt.Sprintf("; the halo reader(s) at line(s) %s reuse the same resident windows without additional traffic",
				strings.Join(lines, ", "))
		}
		v.add(diag.Info, "ACCV007", best.fp.Spec.Line, best.fp.Spec.ClauseCol, wfp.Array.Name, "",
			"array %q is written distributed by the loop at line %d and read with halo "+
				"(%d, %d) by the loop at line %d: once the halo windows are resident, every "+
				"launch of the writer exchanges %d boundary element(s) per adjacent GPU pair%s",
			wfp.Array.Name, wLoop.Line, best.sfp.l, best.sfp.r, best.loop.Line, best.sfp.l+best.sfp.r, extra)
	}
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

func firstIndirect(reads []translator.IndexForm) translator.IndexForm {
	for _, r := range reads {
		if r.Indirect {
			return r
		}
	}
	if len(reads) > 0 {
		return reads[0]
	}
	return translator.IndexForm{}
}
