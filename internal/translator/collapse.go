package translator

import (
	"fmt"
	"strconv"

	"accmulti/internal/acc"
	"accmulti/internal/cc"
	"accmulti/internal/ir"
)

// collapse(2) support: two perfectly nested canonical loops flatten
// into one iteration space, so a logically 2-D sweep parallelizes (and
// partitions) over elements rather than rows. localaccess footprints
// on a collapsed loop are expressed over the flat index, which for
// row-major grids makes stride(1) the natural per-element footprint.

// hasCollapse2 reports whether the directive asks for collapse(2).
// Other collapse depths are rejected at kernel build.
func hasCollapse2(d *acc.Directive) bool {
	if d == nil {
		return false
	}
	_, ok := d.Clause("collapse")
	return ok
}

func collapseDepth(d *acc.Directive) (int, error) {
	c, ok := d.Clause("collapse")
	if !ok {
		return 1, nil
	}
	if len(c.Args) != 1 {
		return 0, fmt.Errorf("collapse takes exactly one argument")
	}
	n, err := strconv.Atoi(c.Args[0])
	if err != nil {
		return 0, fmt.Errorf("collapse argument must be an integer literal")
	}
	return n, nil
}

// buildCollapsedKernel flattens `for (i...) for (j...) body` into a
// kernel over a synthesized flat induction variable. The inner loop's
// bounds must be invariant in the outer variable (rectangular space).
func (t *xlate) buildCollapsedKernel(st *cc.ForStmt) (*ir.Kernel, error) {
	depth, err := collapseDepth(st.Parallel)
	if err != nil {
		return nil, fmt.Errorf("translator: line %d: %w", st.Line, err)
	}
	if depth != 2 {
		return nil, fmt.Errorf("translator: line %d: only collapse(2) is supported, got collapse(%d)", st.Line, depth)
	}
	outerVar, outerLo, outerHi, err := canonicalLoop(st)
	if err != nil {
		return nil, err
	}
	inner, err := soleNestedFor(st.Body)
	if err != nil {
		return nil, fmt.Errorf("translator: line %d: collapse(2): %w", st.Line, err)
	}
	innerVar, innerLo, innerHi, err := canonicalLoop(inner)
	if err != nil {
		return nil, err
	}
	// Rectangularity: the inner bounds must not depend on the outer
	// induction variable (or arrays, already enforced).
	if mentionsDecl(innerLo, outerVar) || mentionsDecl(innerHi, outerVar) {
		return nil, fmt.Errorf("translator: line %d: collapse(2) requires inner bounds independent of %q", st.Line, outerVar.Name)
	}

	// Synthesize the flat induction variable; its slot extends the int
	// table (translation happens before any environment is built).
	flat := &cc.VarDecl{
		Name: fmt.Sprintf("__flat_L%d", st.Line),
		Type: cc.TInt,
		Slot: t.prog.NumInts,
		Line: st.Line,
	}
	t.prog.NumInts++

	oLo, err := ir.CompileExprI(outerLo)
	if err != nil {
		return nil, err
	}
	oHi, err := ir.CompileExprI(outerHi)
	if err != nil {
		return nil, err
	}
	iLo, err := ir.CompileExprI(innerLo)
	if err != nil {
		return nil, err
	}
	iHi, err := ir.CompileExprI(innerHi)
	if err != nil {
		return nil, err
	}
	innerBody, err := ir.CompileStmt(inner.Body, nil)
	if err != nil {
		return nil, err
	}

	oSlot, iSlot, fSlot := outerVar.Slot, innerVar.Slot, flat.Slot
	body := func(env *ir.Env) error {
		w := iHi(env) - iLo(env)
		if w <= 0 {
			return nil
		}
		f := env.Ints[fSlot]
		env.Ints[oSlot] = oLo(env) + f/w
		env.Ints[iSlot] = iLo(env) + f%w
		return innerBody(env)
	}

	k := &ir.Kernel{
		ID:      len(t.m.Kernels),
		Name:    fmt.Sprintf("main_L%d", st.Line),
		Line:    st.Line,
		LoopVar: flat,
		Lower:   func(env *ir.Env) int64 { return 0 },
		Upper: func(env *ir.Env) int64 {
			o := oHi(env) - oLo(env)
			w := iHi(env) - iLo(env)
			if o <= 0 || w <= 0 {
				return 0
			}
			return o * w
		},
		Body: body,
	}

	// Access analysis over the inner body. Both original induction
	// variables are derived (assigned) values, so the analyzer treats
	// them as body locals: accesses classify as non-affine, which is
	// conservative and correct. localaccess footprints refer to the
	// flat index.
	if err := t.finishKernel(k, st, analyzeKernelBody(inner.Body, flat, outerVar, innerVar)); err != nil {
		return nil, err
	}
	return k, nil
}

// soleNestedFor unwraps the collapsed loop body down to the single
// inner for statement (allowing a wrapping block).
func soleNestedFor(body cc.Stmt) (*cc.ForStmt, error) {
	switch b := body.(type) {
	case *cc.ForStmt:
		return b, nil
	case *cc.Block:
		if b.Data != nil {
			return nil, fmt.Errorf("data region inside a collapsed loop")
		}
		var inner *cc.ForStmt
		for _, s := range b.Stmts {
			if f, ok := s.(*cc.ForStmt); ok {
				if inner != nil {
					return nil, fmt.Errorf("body must contain exactly one nested loop")
				}
				inner = f
				continue
			}
			if _, ok := s.(*cc.DeclStmt); ok {
				continue // declarations are slot bookkeeping only
			}
			return nil, fmt.Errorf("body must be a perfect loop nest")
		}
		if inner == nil {
			return nil, fmt.Errorf("body must contain a nested loop")
		}
		return inner, nil
	}
	return nil, fmt.Errorf("body must be a perfect loop nest")
}

// mentionsDecl reports whether the expression references the variable.
func mentionsDecl(e cc.Expr, d *cc.VarDecl) bool {
	found := false
	walkExpr(e, func(sub cc.Expr) {
		if id, ok := sub.(*cc.Ident); ok && id.Decl == d {
			found = true
		}
	})
	return found
}

func sortedDecls(infos map[*cc.VarDecl]*accessInfo) []*cc.VarDecl {
	decls := make([]*cc.VarDecl, 0, len(infos))
	for d := range infos {
		decls = append(decls, d)
	}
	sortDecls(decls)
	return decls
}
