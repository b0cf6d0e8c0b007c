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
	"accmulti/internal/cc"
)

// accessInfo accumulates what the kernel body does to one array.
type accessInfo struct {
	decl    *cc.VarDecl
	read    bool
	written bool
	reduced bool
	redOp   string
	// readIndexKinds/writeIndexKinds classify every index expression.
	indirectRead bool
	affineRead   bool // stays true only while all read indices are affine
	sawRead      bool
	writesAffine bool // all write indices literal-affine in the loop var
	writeCoeffs  []affineForm
	// reads/writes/reduces record every individual subscript with its
	// classification, in body order, for the vet pass.
	reads, writes, reduces []indexAccess
}

// indexAccess is one observed subscript of an array.
type indexAccess struct {
	ref      *cc.IndexExpr
	op       string // assignment operator for writes/reduces, "" for reads
	form     affineForm
	affine   bool // function of the induction variable and invariants only
	indirect bool // data dependent (goes through another array load)
}

// affineForm is index = A*i + C with literal A and C.
type affineForm struct {
	A, C int64
	OK   bool
}

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
	arrays  map[*cc.VarDecl]*accessInfo
}

// derived lists additional scalars whose values the kernel wrapper
// computes per iteration (collapsed loops' original induction
// variables); they classify like body locals.
func analyzeKernelBody(body cc.Stmt, loopVar *cc.VarDecl, derived ...*cc.VarDecl) map[*cc.VarDecl]*accessInfo {
	a := &analyzer{
		loopVar:    loopVar,
		bodyLocals: map[*cc.VarDecl]bool{},
		tainted:    map[*cc.VarDecl]bool{},
		arrays:     map[*cc.VarDecl]*accessInfo{},
	}
	for _, d := range derived {
		a.bodyLocals[d] = true
	}
	// First pass: find scalars assigned in the body.
	a.collectLocals(body)
	// Taint fixed point: a local becomes data dependent when any of
	// its assignments reads an array or another tainted local.
	for changed := true; changed; {
		changed = false
		a.walkAssigns(body, func(st *cc.AssignStmt) {
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
	// Second pass: classify accesses.
	a.stmt(body)
	return a.arrays
}

// gathersWhatItScatters reports an array the body loads and also stores
// through a data-dependent subscript (BFS: `if (cost[i] == level)` ...
// `if (cost[w] < 0) cost[w] = ...`). Two iterations may then test and
// update one element, so what the kernel counts depends on how its
// workers interleave — whether the read is itself indirect or affine,
// the store can land on any worker's element; the runtime runs such a
// kernel's workers in order (ir.Kernel.SerialWorkers).
func gathersWhatItScatters(infos map[*cc.VarDecl]*accessInfo) bool {
	for _, in := range infos {
		if !in.read {
			continue
		}
		for _, w := range in.writes {
			if w.indirect {
				return true
			}
		}
	}
	return false
}

func (a *analyzer) walkAssigns(s cc.Stmt, fn func(*cc.AssignStmt)) {
	switch st := s.(type) {
	case *cc.Block:
		for _, sub := range st.Stmts {
			a.walkAssigns(sub, fn)
		}
	case *cc.AssignStmt:
		fn(st)
	case *cc.IfStmt:
		a.walkAssigns(st.Then, fn)
		if st.Else != nil {
			a.walkAssigns(st.Else, fn)
		}
	case *cc.WhileStmt:
		a.walkAssigns(st.Body, fn)
	case *cc.ForStmt:
		if st.Init != nil {
			a.walkAssigns(st.Init, fn)
		}
		if st.Post != nil {
			a.walkAssigns(st.Post, fn)
		}
		a.walkAssigns(st.Body, fn)
	}
}

// dataDependent reports whether the expression reads an array or a
// tainted local.
func (a *analyzer) dataDependent(e cc.Expr) bool {
	dep := false
	walkExpr(e, func(sub cc.Expr) {
		switch x := sub.(type) {
		case *cc.IndexExpr:
			dep = true
		case *cc.Ident:
			if a.tainted[x.Decl] {
				dep = true
			}
		}
	})
	return dep
}

func (a *analyzer) info(d *cc.VarDecl) *accessInfo {
	in, ok := a.arrays[d]
	if !ok {
		in = &accessInfo{decl: d, affineRead: true, writesAffine: true}
		a.arrays[d] = in
	}
	return in
}

func (a *analyzer) collectLocals(s cc.Stmt) {
	switch st := s.(type) {
	case *cc.Block:
		for _, sub := range st.Stmts {
			a.collectLocals(sub)
		}
	case *cc.AssignStmt:
		if id, ok := st.LHS.(*cc.Ident); ok && id.Decl != a.loopVar {
			a.bodyLocals[id.Decl] = true
		}
	case *cc.IfStmt:
		a.collectLocals(st.Then)
		if st.Else != nil {
			a.collectLocals(st.Else)
		}
	case *cc.WhileStmt:
		a.collectLocals(st.Body)
	case *cc.ForStmt:
		if st.Init != nil {
			a.collectLocals(st.Init)
		}
		if st.Post != nil {
			a.collectLocals(st.Post)
		}
		a.collectLocals(st.Body)
	}
}

func (a *analyzer) stmt(s cc.Stmt) {
	switch st := s.(type) {
	case *cc.Block:
		for _, sub := range st.Stmts {
			a.stmt(sub)
		}
	case *cc.DeclStmt:
	case *cc.AssignStmt:
		a.assign(st)
	case *cc.IfStmt:
		a.rvalue(st.Cond)
		a.stmt(st.Then)
		if st.Else != nil {
			a.stmt(st.Else)
		}
	case *cc.WhileStmt:
		a.rvalue(st.Cond)
		a.stmt(st.Body)
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
		a.stmt(st.Body)
	}
}

func (a *analyzer) assign(st *cc.AssignStmt) {
	a.rvalue(st.RHS)
	switch lhs := st.LHS.(type) {
	case *cc.Ident:
		// Scalar write: private per worker, nothing to classify.
	case *cc.IndexExpr:
		a.rvalue(lhs.Index) // index math reads
		in := a.info(lhs.Array)
		if st.Reduce != nil {
			in.reduced = true
			in.redOp = st.Reduce.Op
			in.reduces = append(in.reduces, a.classify(lhs, st.Op))
			return
		}
		in.written = true
		if st.Op != "=" {
			// Compound assignment reads the old value.
			a.classifyRead(in, lhs)
		}
		w := a.classify(lhs, st.Op)
		in.writes = append(in.writes, w)
		in.writeCoeffs = append(in.writeCoeffs, w.form)
		if !w.form.OK {
			in.writesAffine = false
		}
	}
}

// rvalue classifies every array read inside an expression.
func (a *analyzer) rvalue(e cc.Expr) {
	switch x := e.(type) {
	case *cc.IndexExpr:
		a.rvalue(x.Index)
		a.classifyRead(a.info(x.Array), x)
	case *cc.BinaryExpr:
		a.rvalue(x.X)
		a.rvalue(x.Y)
	case *cc.UnaryExpr:
		a.rvalue(x.X)
	case *cc.CondExpr:
		a.rvalue(x.Cond)
		a.rvalue(x.Then)
		a.rvalue(x.Else)
	case *cc.CallExpr:
		for _, arg := range x.Args {
			a.rvalue(arg)
		}
	case *cc.CastExpr:
		a.rvalue(x.X)
	}
}

func (a *analyzer) classifyRead(in *accessInfo, ref *cc.IndexExpr) {
	in.read = true
	in.sawRead = true
	r := a.classify(ref, "")
	in.reads = append(in.reads, r)
	if r.indirect {
		in.indirectRead = true
		in.affineRead = false
		return
	}
	if !r.affine {
		in.affineRead = false
	}
}

// classify records one subscript with every classification the vet pass
// and the translator need.
func (a *analyzer) classify(ref *cc.IndexExpr, op string) indexAccess {
	out := indexAccess{ref: ref, op: op, form: a.literalAffine(ref.Index)}
	out.indirect = a.dataDependent(ref.Index)
	out.affine = !out.indirect && a.isAffine(ref.Index)
	return out
}

// mentionsArray reports whether the expression loads any array.
func mentionsArray(e cc.Expr) bool {
	found := false
	walkExpr(e, func(sub cc.Expr) {
		if _, ok := sub.(*cc.IndexExpr); ok {
			found = true
		}
	})
	return found
}

func walkExpr(e cc.Expr, fn func(cc.Expr)) {
	fn(e)
	switch x := e.(type) {
	case *cc.IndexExpr:
		walkExpr(x.Index, fn)
	case *cc.BinaryExpr:
		walkExpr(x.X, fn)
		walkExpr(x.Y, fn)
	case *cc.UnaryExpr:
		walkExpr(x.X, fn)
	case *cc.CondExpr:
		walkExpr(x.Cond, fn)
		walkExpr(x.Then, fn)
		walkExpr(x.Else, fn)
	case *cc.CallExpr:
		for _, arg := range x.Args {
			walkExpr(arg, fn)
		}
	case *cc.CastExpr:
		walkExpr(x.X, fn)
	}
}

// isAffine reports whether the index is a function of the induction
// variable and loop invariants only (no array loads, no body locals).
// This is the paper's "access indices in affine form" condition, used
// for optimization eligibility, not correctness.
func (a *analyzer) isAffine(e cc.Expr) bool {
	ok := true
	walkExpr(e, func(sub cc.Expr) {
		switch x := sub.(type) {
		case *cc.IndexExpr:
			ok = false
		case *cc.Ident:
			if a.bodyLocals[x.Decl] {
				ok = false
			}
		case *cc.CallExpr:
			ok = false
		}
	})
	return ok
}

func (a *analyzer) literalAffine(e cc.Expr) affineForm {
	return literalAffine(e, a.loopVar)
}

// literalAffine recognizes index expressions of the form A*i + C with
// integer literal A and C (the conservative pattern used to elide
// write-miss checks, paper §IV-D2).
func literalAffine(e cc.Expr, loopVar *cc.VarDecl) affineForm {
	switch x := e.(type) {
	case *cc.NumLit:
		if !x.IsFloat {
			return affineForm{A: 0, C: x.I, OK: true}
		}
	case *cc.Ident:
		if x.Decl == loopVar {
			return affineForm{A: 1, C: 0, OK: true}
		}
	case *cc.BinaryExpr:
		l := literalAffine(x.X, loopVar)
		r := literalAffine(x.Y, loopVar)
		if !l.OK || !r.OK {
			return affineForm{}
		}
		switch x.Op {
		case "+":
			return affineForm{A: l.A + r.A, C: l.C + r.C, OK: true}
		case "-":
			return affineForm{A: l.A - r.A, C: l.C - r.C, OK: true}
		case "*":
			// One side must be constant.
			if l.A == 0 {
				return affineForm{A: l.C * r.A, C: l.C * r.C, OK: true}
			}
			if r.A == 0 {
				return affineForm{A: r.C * l.A, C: r.C * l.C, OK: true}
			}
		}
	}
	return affineForm{}
}

// litInt extracts an integer literal from an expression, if it is one.
func litInt(e cc.Expr) (int64, bool) {
	if n, ok := e.(*cc.NumLit); ok && !n.IsFloat {
		return n.I, true
	}
	return 0, false
}
