package analysis

// Per-loop proofs: one parallel loop's directives against its own access
// footprint. Reads must stay inside the declared window (ACCV001–003),
// writes must hit a distinct element per iteration (ACCV005, 006, 009) and
// no iteration may depend on another (ACCV008).

import (
	"fmt"
	"slices"

	"accmulti/internal/diag"
	"accmulti/internal/translator"
)

// proveLoop checks every array of one loop and returns the footprint-safe
// verdict.
func (v *vetter) proveLoop(loop *translator.LoopAccess) bool {
	safe := true
	for _, fp := range loop.Arrays {
		safe = v.checkFootprint(loop, fp) && safe
		safe = v.checkWrites(fp) && safe
		if !fp.Reduced { // annotated reductions commute by declaration
			v.checkIndirectWrites(loop, fp)
			v.checkCarried(loop, fp)
		}
	}
	return safe
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
		bad := fp.Reads[slices.IndexFunc(fp.Reads, func(r translator.IndexForm) bool { return r.Indirect })]
		v.add(diag.Error, "ACCV003", spec.Line, spec.Col, fp.Array.Name, "",
			"localaccess(%s): the loop indexes %q indirectly (%s at line %d); "+
				"a data-dependent footprint cannot be declared — remove the localaccess and replicate the array",
			fp.Array.Name, fp.Array.Name, bad.Src, bad.Line)
		return false
	}

	// The declared footprint: a stride window, or two bounds literal-affine
	// in the induction variable, which hold coef*i + off for all i >= 0
	// when slopes and intercepts compare independently.
	var win translator.Window
	var lo, hi translator.Class
	var ok, okHi bool
	if spec.HasStride {
		if win, ok = provableWindow(spec); !ok {
			return false // symbolic stride arguments: nothing provable either way
		}
	} else {
		lo, ok = translator.ClassOf(spec.Lower, loop.LoopVar)
		hi, okHi = translator.ClassOf(spec.Upper, loop.LoopVar)
		if !ok || !okHi {
			return false
		}
	}
	verified, narrow := true, false
	for _, r := range fp.Reads {
		switch {
		case !r.Literal:
			verified = false // e.g. clamped boundary reads via min/max
		case spec.HasStride && win.Contains(r):
		case !spec.HasStride && r.Coef >= lo.Coef && r.Off >= lo.Off && r.Coef <= hi.Coef && r.Off <= hi.Off:
		default:
			verified, narrow = false, true
			declared := fmt.Sprintf("bounds (line %d) declare the per-iteration footprint [%s, %s]",
				spec.Line, translator.ExprString(spec.Lower), translator.ExprString(spec.Upper))
			if spec.HasStride {
				declared = fmt.Sprintf("%s (line %d) declares the per-iteration footprint [%d*i-%d, %d*(i+1)-1+%d]",
					strideText(win), spec.Line, win.S, win.L, win.S, win.R)
			}
			v.add(diag.Error, "ACCV001", r.Line, r.Col, fp.Array.Name, "",
				"localaccess(%s) %s, but the loop reads %s = %s: "+
					"the declared range is narrower than the actual reads",
				fp.Array.Name, declared, r.Src, affineText(r.Class, loop.LoopVar.Name))
		}
	}
	if spec.HasStride && !narrow {
		v.checkTooWide(fp, win)
	}
	return verified
}

// checkTooWide warns when a verified stride footprint declares more
// halo than any inferred access needs (ACCV002). Writes count toward
// the need: shrinking below a write offset would be correct (the miss
// buffer catches it) but would trade the declared-window fast path for
// per-element miss handling.
func (v *vetter) checkTooWide(fp *translator.ArrayFootprint, win translator.Window) {
	need, ok := proposeWindow(fp.Reads, fp.Writes)
	if !ok || need.S != win.S {
		return // any unproven access keeps the declared halo honest
	}
	if win.L > need.L || win.R > need.R {
		v.add(diag.Warning, "ACCV002", fp.Spec.Line, fp.Spec.ClauseCol, fp.Array.Name, localaccessFix(fp.Array.Name, need),
			"localaccess(%s) declares halo (%d, %d) but the loop only needs (%d, %d): "+
				"the extra halo is replicated to every GPU and transferred on each launch",
			fp.Array.Name, win.L, win.R, need.L, need.R)
	}
}

// checkWrites detects provable write conflicts on replicated arrays
// (ACCV005) and unannotated array reductions (ACCV006), and returns
// whether the write pattern was proven collision free: every write
// provably hits a distinct element per iteration, so no cross-GPU merge
// can disagree with the sequential oracle.
func (v *vetter) checkWrites(fp *translator.ArrayFootprint) bool {
	safe := true
	// Reduction-shaped compound writes whose target element is not a
	// distinct-per-iteration function of i should carry
	// reductiontoarray (ACCV006).
	var plain []translator.IndexForm
	for _, w := range fp.Writes {
		if w.Op != "=" && (w.Indirect || !w.Literal || w.Coef == 0) {
			safe = false
			fix := ""
			if w.Op == "+=" || w.Op == "*=" {
				fix = fmt.Sprintf("#pragma acc reductiontoarray(%s: %s)", w.Op[:1], w.Src)
			}
			v.add(diag.Warning, "ACCV006", w.Line, w.Col, fp.Array.Name, fix,
				"%s %s ... accumulates into an element that multiple iterations can hit; "+
					"without a reductiontoarray annotation the multi-GPU merge loses contributions",
				w.Src, w.Op)
			continue
		}
		plain = append(plain, w)
	}

	// Provable element collisions between iterations are an error
	// (ACCV005) only on replicated arrays, where the dirty-bit merge
	// picks an arbitrary GPU's value for a conflicted element.
	replicated := fp.Spec == nil
	for i, w := range plain {
		switch {
		case !w.Literal:
			safe = false // unprovable scatter: not an error, not safe
			continue
		case w.Coef == 0:
			safe = false
			if replicated {
				v.add(diag.Error, "ACCV005", w.Line, w.Col, fp.Array.Name, "",
					"every iteration writes the same element %s of the replicated array %q; "+
						"the multi-GPU merge keeps an arbitrary GPU's value — use a scalar or reductiontoarray",
					w.Src, fp.Array.Name)
			}
			continue
		}
		for _, prev := range plain[:i] {
			switch {
			case !prev.Literal:
			case prev.Coef != w.Coef:
				safe = false
			case translator.Collide(prev.Class, w.Class):
				safe = false
				if replicated {
					v.add(diag.Error, "ACCV005", w.Line, w.Col, fp.Array.Name, "",
						"writes %s (line %d) and %s (line %d) hit the same element of the "+
							"replicated array %q on different iterations (offsets %d and %d are "+
							"congruent mod %d); the multi-GPU merge order is not the sequential order",
						prev.Src, prev.Line, w.Src, w.Line, fp.Array.Name, prev.Off, w.Off, w.Coef)
				}
			}
		}
	}
	return safe
}

// checkIndirectWrites flags plain writes whose target element cannot
// be proven distinct per iteration (indirect subscripts like
// out[idx[i]], or subscripts over body-computed scalars): distributing
// such a loop may execute a write race (ACCV009). An `independent`
// clause on the loop is the programmer's disjointness assertion and
// downgrades the finding to a warning.
func (v *vetter) checkIndirectWrites(loop *translator.LoopAccess, fp *translator.ArrayFootprint) {
	for _, w := range fp.Writes {
		if w.Op != "=" || w.Literal {
			continue // unprovable compound writes are ACCV006 territory
		}
		kind := "non-affine"
		if w.Indirect {
			kind = "indirect"
		}
		v.raced[fp.Array.Name] = true
		if loop.Independent {
			v.add(diag.Warning, "ACCV009", w.Line, w.Col, fp.Array.Name, "",
				"the %s write %s into %q cannot be proven race-free, but the loop's "+
					"`independent` clause asserts the target elements are distinct per "+
					"iteration; the verifier trusts the assertion",
				kind, w.Src, fp.Array.Name)
			continue
		}
		fix := ""
		if loop.For != nil && loop.For.Parallel != nil {
			// Raw is the pragma text starting at "acc".
			fix = fmt.Sprintf("#pragma %s independent", loop.For.Parallel.Raw)
		}
		v.add(diag.Error, "ACCV009", w.Line, w.Col, fp.Array.Name, fix,
			"cannot prove the %s write %s into %q hits a distinct element on every "+
				"iteration: distributing the loop may execute a write race — make it a "+
				"reduction (reductiontoarray), or assert `independent` on the loop if the "+
				"target indices are known to be disjoint",
			kind, w.Src, fp.Array.Name)
	}
}

// checkCarried proves or refutes iteration independence of one loop on
// one array (ACCV008), reporting each plain literal write once: with the
// first read it collides with on another iteration (loop-carried RAW/WAR;
// the same subscript with a nonzero coefficient is the loop-independent
// in-place update and never collides), else, on a distributed array, with
// the first earlier write to another subscript it collides with — the
// element lives on whichever GPU owns it, so the surviving value depends on
// cross-GPU launch interleaving. (On a replicated array that pattern is
// ACCV005.)
func (v *vetter) checkCarried(loop *translator.LoopAccess, fp *translator.ArrayFootprint) {
	var plain []translator.IndexForm
	for _, w := range fp.Writes {
		if w.Op != "=" || !w.Literal {
			continue
		}
		hits := func(x translator.IndexForm) bool { return x.Literal && translator.Collide(w.Class, x.Class) }
		if i := slices.IndexFunc(fp.Reads, hits); i >= 0 {
			r := fp.Reads[i]
			v.raced[fp.Array.Name] = true
			v.add(diag.Error, "ACCV008", w.Line, w.Col, fp.Array.Name, "",
				"loop-carried dependence on %q: the write %s (= %s) and the read %s (= %s) "+
					"touch the same element on different iterations, so distributing the "+
					"iterations across GPUs changes the result — compute into a fresh array "+
					"or split the loop at the dependence",
				fp.Array.Name, w.Src, affineText(w.Class, loop.LoopVar.Name),
				r.Src, affineText(r.Class, loop.LoopVar.Name))
		} else if i := slices.IndexFunc(plain, func(p translator.IndexForm) bool { return p.Class != w.Class && hits(p) }); i >= 0 && fp.Spec != nil {
			prev := plain[i]
			v.raced[fp.Array.Name] = true
			v.add(diag.Error, "ACCV008", w.Line, w.Col, fp.Array.Name, "",
				"loop-carried write conflict on the distributed array %q: %s (line %d) "+
					"and %s (line %d) write the same element from different iterations, "+
					"so the surviving value depends on GPU execution order",
				fp.Array.Name, prev.Src, prev.Line, w.Src, w.Line)
		}
		plain = append(plain, w)
	}
}
