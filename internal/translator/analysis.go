// Package translator converts analyzed OpenACC C programs into
// executable ir.Modules: each parallel loop becomes a kernel, the host
// code becomes closures that call into the runtime, and every
// (kernel, array) pair gets the "array configuration information" the
// paper's runtime consumes — read/write classification, localaccess
// footprints, reduction roles, and eligibility for the coalescing
// layout transform. It plays the role of the paper's ROSE-based
// source-to-source translator.
package translator

import (
	"sort"

	"accmulti/internal/cc"
)

// analyzer walks a kernel body classifying array accesses.
type analyzer struct {
	loopVar *cc.VarDecl
	// bodyLocals are scalars assigned inside the body: expressions
	// depending on them are not functions of the induction variable
	// alone (e.g. inner loop counters).
	bodyLocals map[*cc.VarDecl]bool
	// tainted are scalars whose value is (transitively) data
	// dependent: assigned from an expression that loads an array.
	// Indexing with a tainted scalar is an indirect access.
	tainted map[*cc.VarDecl]bool
	arrays  map[*cc.VarDecl]*ArrayFootprint
}

// analyzeKernelBody returns what one iteration of the body does to every
// array it touches, in declaration (slot) order. derived lists additional
// scalars whose values the kernel wrapper computes per iteration
// (collapsed loops' original induction variables); they classify like
// body locals.
func analyzeKernelBody(body cc.Stmt, loopVar *cc.VarDecl, derived []*cc.VarDecl) []*ArrayFootprint {
	a := &analyzer{
		loopVar:    loopVar,
		bodyLocals: map[*cc.VarDecl]bool{},
		tainted:    map[*cc.VarDecl]bool{},
		arrays:     map[*cc.VarDecl]*ArrayFootprint{},
	}
	cc.AssignedScalars(body, a.bodyLocals)
	delete(a.bodyLocals, loopVar)
	for _, d := range derived {
		a.bodyLocals[d] = true
	}
	// Taint fixed point: a local becomes data dependent when any of
	// its assignments reads an array or another tainted local.
	for changed := true; changed; {
		changed = false
		cc.EachAssign(body, func(st *cc.AssignStmt) {
			id, ok := st.LHS.(*cc.Ident)
			if !ok || a.tainted[id.Decl] {
				return
			}
			if a.dataDependent(st.RHS) {
				a.tainted[id.Decl] = true
				changed = true
			}
		})
	}
	// Classify the accesses, in body order.
	cc.EachStmt(body, func(s cc.Stmt) {
		switch st := s.(type) {
		case *cc.AssignStmt:
			a.assign(st)
		case *cc.IfStmt:
			a.rvalue(st.Cond)
		case *cc.WhileStmt:
			a.rvalue(st.Cond)
		case *cc.ForStmt:
			if st.Init != nil {
				a.assign(st.Init)
			}
			if st.Cond != nil {
				a.rvalue(st.Cond)
			}
			if st.Post != nil {
				a.assign(st.Post)
			}
		}
	})
	out := make([]*ArrayFootprint, 0, len(a.arrays))
	for _, fp := range a.arrays {
		out = append(out, fp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Array.Slot < out[j].Array.Slot })
	return out
}

// gathersWhatItScatters reports an array the body loads and also stores
// through a data-dependent subscript (BFS: `if (cost[i] == level)` ...
// `if (cost[w] < 0) cost[w] = ...`). Two iterations may then test and
// update one element, so what the kernel counts depends on how its
// workers interleave — whether the read is itself indirect or affine,
// the store can land on any worker's element; the runtime runs such a
// kernel's workers in order (ir.Kernel.SerialWorkers).
func gathersWhatItScatters(arrays []*ArrayFootprint) bool {
	for _, fp := range arrays {
		if !fp.Read {
			continue
		}
		for _, w := range fp.Writes {
			if w.Indirect {
				return true
			}
		}
	}
	return false
}

// dataDependent reports whether the expression reads an array or a
// tainted local.
func (a *analyzer) dataDependent(e cc.Expr) bool {
	dep := false
	cc.EachExpr(e, func(sub cc.Expr) {
		switch x := sub.(type) {
		case *cc.IndexExpr:
			dep = true
		case *cc.Ident:
			dep = dep || a.tainted[x.Decl]
		}
	})
	return dep
}

func (a *analyzer) info(d *cc.VarDecl) *ArrayFootprint {
	fp, ok := a.arrays[d]
	if !ok {
		fp = &ArrayFootprint{Array: d}
		a.arrays[d] = fp
	}
	return fp
}

func (a *analyzer) assign(st *cc.AssignStmt) {
	a.rvalue(st.RHS)
	lhs, ok := st.LHS.(*cc.IndexExpr)
	if !ok {
		return // scalar write: private per worker, nothing to classify
	}
	a.rvalue(lhs.Index) // index math reads
	fp := a.info(lhs.Array)
	if st.Reduce != nil {
		fp.Reduced = true
		fp.ReduceOp = st.Reduce.Op
		fp.Reduces = append(fp.Reduces, a.classify(lhs, st.Op))
		return
	}
	fp.Written = true
	if st.Op != "=" {
		a.classifyRead(lhs) // compound assignment reads the old value
	}
	fp.Writes = append(fp.Writes, a.classify(lhs, st.Op))
}

// rvalue classifies every array read inside an expression.
func (a *analyzer) rvalue(e cc.Expr) {
	cc.EachExpr(e, func(x cc.Expr) {
		if ref, ok := x.(*cc.IndexExpr); ok {
			a.classifyRead(ref)
		}
	})
}

func (a *analyzer) classifyRead(ref *cc.IndexExpr) {
	fp := a.info(ref.Array)
	r := a.classify(ref, "")
	fp.Read = true
	fp.AffineRead = (len(fp.Reads) == 0 || fp.AffineRead) && r.Affine
	fp.IndirectRead = fp.IndirectRead || r.Indirect
	fp.Reads = append(fp.Reads, r)
}

// classify records one subscript with every classification the vet pass
// and the lowering need.
func (a *analyzer) classify(ref *cc.IndexExpr, op string) IndexForm {
	out := IndexForm{Line: ref.Pos(), Col: ref.Column(), Src: ExprString(ref), Op: op}
	out.Class, out.Literal = ClassOf(ref.Index, a.loopVar)
	out.Indirect = a.dataDependent(ref.Index)
	out.Affine = !out.Indirect && a.isAffine(ref.Index)
	return out
}

// isAffine reports whether the index is a function of the induction
// variable and loop invariants only (no array loads, no body locals).
// This is the paper's "access indices in affine form" condition, used
// for optimization eligibility, not correctness.
func (a *analyzer) isAffine(e cc.Expr) bool {
	ok := true
	cc.EachExpr(e, func(sub cc.Expr) {
		switch x := sub.(type) {
		case *cc.IndexExpr, *cc.CallExpr:
			ok = false
		case *cc.Ident:
			ok = ok && !a.bodyLocals[x.Decl]
		}
	})
	return ok
}
