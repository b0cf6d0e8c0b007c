package dataflow

// Intra-kernel dependence checks: loop-carried dependences between the
// iterations of one parallel loop (ACCV008), unprovable scatter writes
// (ACCV009), and the program-wide distributability advisor (ACCV012).

import (
	"fmt"

	"accmulti/internal/diag"
	"accmulti/internal/rt"
	"accmulti/internal/translator"
)

// checkLoopRaces proves or refutes iteration independence of one
// parallel loop per array.
func (a *analyzer) checkLoopRaces(loop *translator.LoopAccess) {
	for _, fp := range loop.Arrays {
		a.checkIndirectWrites(loop, fp)
		if fp.Reduced {
			continue // annotated reductions commute by declaration
		}
		var plain []translator.IndexForm
		for _, w := range fp.Writes {
			if w.Op == "=" && w.Literal {
				plain = append(plain, w)
			}
		}
		if len(plain) == 0 {
			continue
		}

		// Loop-carried RAW/WAR: a plain write and a read of the same
		// array whose literal-affine subscripts collide on different
		// iterations. The same (coef, off) pair with coef != 0 is the
		// loop-independent in-place update (each iteration owns its
		// element) and is exempt.
		for _, w := range plain {
			for _, r := range fp.Reads {
				if !r.Literal {
					continue
				}
				if w.Coef == r.Coef && w.Off == r.Off && w.Coef != 0 {
					continue
				}
				if !crossIterCollide(w.Coef, w.Off, r.Coef, r.Off) {
					continue
				}
				a.raced[fp.Array.Name] = true
				a.add(diag.Error, "ACCV008", w.Line, w.Col, fp.Array.Name, "",
					"loop-carried dependence on %q: the write %s (= %s) and the read %s (= %s) "+
						"touch the same element on different iterations, so distributing the "+
						"iterations across GPUs changes the result — compute into a fresh array "+
						"or split the loop at the dependence",
					fp.Array.Name, w.Src, AffineText(w.Coef, w.Off, loop.LoopVar.Name),
					r.Src, AffineText(r.Coef, r.Off, loop.LoopVar.Name))
			}
		}

		// Loop-carried WAW on a distributed array: two congruent plain
		// writes from different iterations land on one element, and with
		// a localaccess the element lives on whichever GPU owns it — the
		// surviving value depends on cross-GPU launch interleaving.
		// (Replicated arrays get the same pattern as ACCV005 from the
		// base pass.)
		if fp.Spec != nil {
			for i, w := range plain {
				for _, prev := range plain[:i] {
					if w.Coef == prev.Coef && w.Off == prev.Off {
						continue // same element, same iteration
					}
					if !classesIntersect(w.Coef, w.Off, prev.Coef, prev.Off) {
						continue
					}
					a.raced[fp.Array.Name] = true
					a.add(diag.Error, "ACCV008", w.Line, w.Col, fp.Array.Name, "",
						"loop-carried write conflict on the distributed array %q: %s (line %d) "+
							"and %s (line %d) write the same element from different iterations, "+
							"so the surviving value depends on GPU execution order",
						fp.Array.Name, prev.Src, prev.Line, w.Src, w.Line)
				}
			}
		}
	}
}

// checkIndirectWrites flags plain writes whose target element cannot
// be proven distinct per iteration (indirect subscripts like
// out[idx[i]], or subscripts over body-computed scalars): distributing
// such a loop may execute a write race (ACCV009). An `independent`
// clause on the loop is the programmer's disjointness assertion and
// downgrades the finding to a warning.
func (a *analyzer) checkIndirectWrites(loop *translator.LoopAccess, fp *translator.ArrayFootprint) {
	if fp.Reduced {
		return
	}
	for _, w := range fp.Writes {
		if w.Op != "=" {
			continue // unprovable compound writes are ACCV006 territory
		}
		if w.Literal {
			continue
		}
		kind := "non-affine"
		if w.Indirect {
			kind = "indirect"
		}
		a.raced[fp.Array.Name] = true
		if loop.Independent {
			a.add(diag.Warning, "ACCV009", w.Line, w.Col, fp.Array.Name, "",
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
		a.add(diag.Error, "ACCV009", w.Line, w.Col, fp.Array.Name, fix,
			"cannot prove the %s write %s into %q hits a distinct element on every "+
				"iteration: distributing the loop may execute a write race — make it a "+
				"reduction (reductiontoarray), or assert `independent` on the loop if the "+
				"target indices are known to be disjoint",
			kind, w.Src, fp.Array.Name)
	}
}

// crossIterCollide reports whether the write class cw*i + ow and the
// read class cr*j + or can name one element with i != j. Identical
// nonzero classes are filtered by the caller; everything this returns
// true for is a provable (or conservatively possible) loop-carried
// overlap.
func crossIterCollide(cw, ow, cr, or int64) bool {
	if cw == cr {
		if cw == 0 {
			// Both sides pin one fixed element; every iteration pair
			// collides on it.
			return ow == or
		}
		d := or - ow
		if d < 0 {
			d = -d
		}
		c := cw
		if c < 0 {
			c = -c
		}
		return d != 0 && d%c == 0
	}
	return classesIntersect(cw, ow, cr, or)
}

// ---------------------------------------------------------------------------
// Distributability advisor (ACCV012)

// advise proposes a localaccess for arrays that every kernel accesses
// block-compatibly but no kernel declares: with one common stride, all
// write offsets inside the core block and no two writes congruent, the
// array can be distributed instead of replicated+merged. The read and
// write offsets are accumulated in the scheduler's hazard-interval
// representation; the covering interval yields the halo the pragma
// needs.
func (a *analyzer) advise() {
	type arrInfo struct {
		loops     []*translator.LoopAccess
		fps       []*translator.ArrayFootprint
		firstLoop *translator.LoopAccess // first loop that writes
		bad       bool
	}
	var order []string
	infos := map[string]*arrInfo{}
	for _, loop := range a.pa.Loops {
		for _, fp := range loop.Arrays {
			in := infos[fp.Array.Name]
			if in == nil {
				in = &arrInfo{}
				infos[fp.Array.Name] = in
				order = append(order, fp.Array.Name)
			}
			in.loops = append(in.loops, loop)
			in.fps = append(in.fps, fp)
			if fp.Spec != nil || fp.Reduced || fp.IndirectRead || loop.Collapsed {
				in.bad = true
			}
			if (fp.Written || len(fp.Writes) > 0) && in.firstLoop == nil {
				in.firstLoop = loop
			}
		}
	}

	for _, name := range order {
		in := infos[name]
		if in.bad || in.firstLoop == nil || a.raced[name] {
			continue
		}
		coef := int64(0)
		reads := rt.NewIntervalSet(0)
		writes := rt.NewIntervalSet(0)
		ok := true
		for k := 0; ok && k < len(in.fps); k++ {
			fp := in.fps[k]
			all := append(append([]translator.IndexForm{}, fp.Reads...), fp.Writes...)
			var loopWrites []translator.IndexForm
			for _, x := range all {
				if !x.Literal {
					ok = false
					break
				}
				if coef == 0 {
					coef = x.Coef
				}
				if x.Coef != coef {
					ok = false
					break
				}
				if x.Op != "" {
					loopWrites = append(loopWrites, x)
					writes.Add(x.Off, x.Off, 0)
				} else {
					reads.Add(x.Off, x.Off, 0)
				}
			}
			// Two distinct congruent write offsets in one loop would make
			// the distributed writes cross block boundaries.
			for i, w := range loopWrites {
				for _, prev := range loopWrites[:i] {
					if w.Off != prev.Off && (w.Off-prev.Off)%max(coef, 1) == 0 {
						ok = false
					}
				}
			}
		}
		if !ok || coef <= 0 {
			continue
		}
		wCover, wrote := writes.Cover()
		if !wrote || wCover.Lo < 0 || wCover.Hi > coef-1 {
			continue // writes must stay inside the iteration's core block
		}
		var needL, needR int64
		if rCover, read := reads.Cover(); read {
			if l := -rCover.Lo; l > 0 {
				needL = l
			}
			if r := rCover.Hi - (coef - 1); r > 0 {
				needR = r
			}
		}
		loop := in.firstLoop
		line := loop.Line
		if loop.For != nil && loop.For.Parallel != nil {
			line = loop.For.Parallel.Line
		}
		fix := fmt.Sprintf("#pragma acc localaccess(%s) %s", name, StrideText(coef, needL, needR))
		a.add(diag.Info, "ACCV012", line, 0, name, fix,
			"every kernel accesses %q with the common stride %d and writes only its own "+
				"block (halo need (%d, %d)): a localaccess on each loop would distribute the "+
				"array across GPUs instead of replicating and merging it",
			name, coef, needL, needR)
		a.res.Distributable[name] = true
	}
}

// StrideText renders the canonical shortest stride clause of a
// footprint; the base pass (internal/analysis) renders its fix-its with it
// too, so they stay uniform.
func StrideText(s, l, r int64) string {
	switch {
	case l == 0 && r == 0:
		return fmt.Sprintf("stride(%d)", s)
	case l == r:
		return fmt.Sprintf("stride(%d, %d)", s, l)
	default:
		return fmt.Sprintf("stride(%d, %d, %d)", s, l, r)
	}
}

// AffineText renders coef*i + off for messages, here and in the base pass.
func AffineText(coef, off int64, ivar string) string {
	switch {
	case coef == 0:
		return fmt.Sprintf("%d", off)
	case off == 0:
		return fmt.Sprintf("%d*%s", coef, ivar)
	case off < 0:
		return fmt.Sprintf("%d*%s - %d", coef, ivar, -off)
	default:
		return fmt.Sprintf("%d*%s + %d", coef, ivar, off)
	}
}
