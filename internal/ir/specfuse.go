package ir

import (
	"accmulti/internal/cc"
)

// Superoperator fusion for the per-iteration specialized body.
//
// The generic spec compiler emits one closure per expression node. The
// recognizers below collapse the integer shapes that head every
// per-iteration body still on the hot path — untiled kernels, the few
// loops the tiled bodies run lane by lane (none of the apps', whose CSR
// walks run as flat tiles), and every uniform subtree a tile evaluates
// once per step — into single closures:
//
//   - index expressions (i, i+c, k*i+c, s1*s2+s3, ...) become one
//     closure instead of a closure subtree,
//   - int array loads evaluate their index inline,
//   - int comparisons (guards, loop conditions) evaluate both operands
//     inline and skip the b2i/!=0 wrapper entirely,
//   - canonical counted loops hoist their bound and count in bulk.
//
// Fusion replaces only the runtime closure; the generic compile pass
// still runs first so cost accounting, access recording and the
// prover/vec mirrors are untouched. Each fused closure performs the
// exact operations of the subtree it replaces, in the same order: loads
// use the same off/Base remap, and integer division panics identically.

// iTerm is a fused integer expression over the scalar slots: the
// index-shaped linear/multiplicative forms the apps use.
type iTerm struct {
	mode    uint8
	a, b, c int
	k1, k2  int64
}

const (
	ixNone      uint8 = iota
	ixLit             // k1
	ixVar             // s[a]
	ixVarK            // s[a] + k1
	ixAddVV           // s[a] + s[b]
	ixSubVV           // s[a] - s[b]
	ixSubKV           // k1 - s[a]
	ixMulVV           // s[a] * s[b]
	ixMulKV           // k1 * s[a]
	ixMulVVaddV       // s[a]*s[b] + s[c]
	ixMulVVaddK       // s[a]*s[b] + k1
	ixMulKVaddK       // k1*s[a] + k2
	ixMulKVaddV       // k1*s[a] + s[b]
)

// fuseAtomI matches a literal or an int scalar.
func fuseAtomI(e cc.Expr) (slot int, k int64, isVar, ok bool) {
	switch x := e.(type) {
	case *cc.NumLit:
		if !x.IsFloat {
			return 0, x.I, false, true
		}
	case *cc.Ident:
		if x.Type() == cc.TInt && !x.Decl.IsArray {
			return x.Decl.Slot, 0, true, true
		}
	}
	return 0, 0, false, false
}

// fuseMul matches s1*s2 or k*s (either operand order; int multiply is
// order-insensitive including overflow wrap).
func fuseMul(x *cc.BinaryExpr) (iTerm, bool) {
	sa, ka, av, ok := fuseAtomI(x.X)
	if !ok {
		return iTerm{}, false
	}
	sb, kb, bv, ok := fuseAtomI(x.Y)
	if !ok {
		return iTerm{}, false
	}
	switch {
	case av && bv:
		return iTerm{mode: ixMulVV, a: sa, b: sb}, true
	case av:
		return iTerm{mode: ixMulKV, k1: kb, a: sa}, true
	case bv:
		return iTerm{mode: ixMulKV, k1: ka, a: sb}, true
	}
	return iTerm{}, false
}

// fuseTerm matches the index-shaped integer forms. The input has been
// constant-folded already, so literal subtrees are single NumLits.
func fuseTerm(e cc.Expr) (iTerm, bool) {
	if s, k, v, ok := fuseAtomI(e); ok {
		if v {
			return iTerm{mode: ixVar, a: s}, true
		}
		return iTerm{mode: ixLit, k1: k}, true
	}
	x, ok := e.(*cc.BinaryExpr)
	if !ok || x.Type() != cc.TInt {
		return iTerm{}, false
	}
	switch x.Op {
	case "*":
		return fuseMul(x)
	case "+", "-":
		sub := x.Op == "-"
		// Left operand: a product or an atom.
		if mx, ok := x.X.(*cc.BinaryExpr); ok && mx.Op == "*" && !sub {
			m, ok := fuseMul(mx)
			if !ok {
				return iTerm{}, false
			}
			sr, kr, rv, ok := fuseAtomI(x.Y)
			if !ok {
				return iTerm{}, false
			}
			switch {
			case m.mode == ixMulVV && rv:
				return iTerm{mode: ixMulVVaddV, a: m.a, b: m.b, c: sr}, true
			case m.mode == ixMulVV:
				return iTerm{mode: ixMulVVaddK, a: m.a, b: m.b, k1: kr}, true
			case rv:
				return iTerm{mode: ixMulKVaddV, k1: m.k1, a: m.a, b: sr}, true
			default:
				return iTerm{mode: ixMulKVaddK, k1: m.k1, a: m.a, k2: kr}, true
			}
		}
		sa, ka, av, ok := fuseAtomI(x.X)
		if !ok {
			return iTerm{}, false
		}
		sb, kb, bv, ok := fuseAtomI(x.Y)
		if !ok {
			return iTerm{}, false
		}
		switch {
		case av && bv && sub:
			return iTerm{mode: ixSubVV, a: sa, b: sb}, true
		case av && bv:
			return iTerm{mode: ixAddVV, a: sa, b: sb}, true
		case av && sub:
			return iTerm{mode: ixVarK, a: sa, k1: -kb}, true
		case av:
			return iTerm{mode: ixVarK, a: sa, k1: kb}, true
		case bv && sub:
			return iTerm{mode: ixSubKV, k1: ka, a: sb}, true
		case bv:
			return iTerm{mode: ixVarK, a: sb, k1: ka}, true
		}
	}
	return iTerm{}, false
}

// emitTerm compiles a matched term to a dedicated single closure (no
// dispatch at run time for the hottest modes).
func emitTerm(t iTerm) dExprI {
	switch t.mode {
	case ixLit:
		k := t.k1
		return func(e *DEnv) int64 { return k }
	case ixVar:
		a := t.a
		return func(e *DEnv) int64 { return e.Ints[a] }
	case ixVarK:
		a, k := t.a, t.k1
		return func(e *DEnv) int64 { return e.Ints[a] + k }
	case ixAddVV:
		a, b := t.a, t.b
		return func(e *DEnv) int64 { return e.Ints[a] + e.Ints[b] }
	case ixSubVV:
		a, b := t.a, t.b
		return func(e *DEnv) int64 { return e.Ints[a] - e.Ints[b] }
	case ixSubKV:
		k, a := t.k1, t.a
		return func(e *DEnv) int64 { return k - e.Ints[a] }
	case ixMulVV:
		a, b := t.a, t.b
		return func(e *DEnv) int64 { return e.Ints[a] * e.Ints[b] }
	case ixMulKV:
		k, a := t.k1, t.a
		return func(e *DEnv) int64 { return k * e.Ints[a] }
	case ixMulVVaddV:
		a, b, c := t.a, t.b, t.c
		return func(e *DEnv) int64 { return e.Ints[a]*e.Ints[b] + e.Ints[c] }
	case ixMulVVaddK:
		a, b, k := t.a, t.b, t.k1
		return func(e *DEnv) int64 { return e.Ints[a]*e.Ints[b] + k }
	case ixMulKVaddK:
		k, a, k2 := t.k1, t.a, t.k2
		return func(e *DEnv) int64 { return k*e.Ints[a] + k2 }
	default: // ixMulKVaddV
		k, a, b := t.k1, t.a, t.b
		return func(e *DEnv) int64 { return k*e.Ints[a] + e.Ints[b] }
	}
}

// fexprI is a fused integer operand: literal, scalar, or int-array
// load with a fused index.
type fexprI struct {
	kind uint8 // fiLit, fiVar, fiLoad
	k    int64
	slot int
	arr  int
	idx  iTerm
}

const (
	fiLit uint8 = iota
	fiVar
	fiLoad
)

func fuseSideI(e cc.Expr) (fexprI, bool) {
	if s, k, v, ok := fuseAtomI(e); ok {
		if v {
			return fexprI{kind: fiVar, slot: s}, true
		}
		return fexprI{kind: fiLit, k: k}, true
	}
	if x, ok := e.(*cc.IndexExpr); ok && x.Array.Type == cc.TInt {
		if t, ok := fuseTerm(foldExpr(x.Index)); ok {
			return fexprI{kind: fiLoad, arr: x.Array.Slot, idx: t}, true
		}
	}
	return fexprI{}, false
}

// fuseExprI fuses a whole int-typed expression: a term or an int load
// with a fused index. Returns nil when the shape is not covered (the
// generic closure stays in place).
func fuseExprI(e cc.Expr) dExprI {
	if t, ok := fuseTerm(e); ok {
		return emitTerm(t)
	}
	if s, ok := fuseSideI(e); ok {
		return emitI(s)
	}
	return nil
}

// fuseCond fuses a branch/loop condition, skipping the !=0 wrapper.
func fuseCond(e cc.Expr) func(*DEnv) bool {
	x, ok := e.(*cc.BinaryExpr)
	if !ok || cmpCode[x.Op] == 0 || x.X.Type() != cc.TInt || x.Y.Type() != cc.TInt {
		return nil
	}
	lf, ok := fuseSideI(foldExpr(x.X))
	if !ok {
		return nil
	}
	rf, ok := fuseSideI(foldExpr(x.Y))
	if !ok {
		return nil
	}
	return emitCmpI(x.Op, lf, rf)
}

// emitCmpI emits an int comparison with scalar-variable and literal
// operands read inline; other fusable shapes go through one emitted
// closure per side. The guard conditions of the per-iteration kernels
// are var-vs-lit, var-vs-var, load-vs-lit (cost[w] < 0) or load-vs-var
// (cost[i] == level), so the common cases run in a single closure.
func emitCmpI(op string, lf, rf fexprI) func(*DEnv) bool {
	switch {
	case lf.kind == fiVar && rf.kind == fiLit:
		a, k := lf.slot, rf.k
		switch op {
		case "<":
			return func(e *DEnv) bool { return e.Ints[a] < k }
		case "<=":
			return func(e *DEnv) bool { return e.Ints[a] <= k }
		case ">":
			return func(e *DEnv) bool { return e.Ints[a] > k }
		case ">=":
			return func(e *DEnv) bool { return e.Ints[a] >= k }
		case "==":
			return func(e *DEnv) bool { return e.Ints[a] == k }
		default:
			return func(e *DEnv) bool { return e.Ints[a] != k }
		}
	case lf.kind == fiVar && rf.kind == fiVar:
		a, b := lf.slot, rf.slot
		switch op {
		case "<":
			return func(e *DEnv) bool { return e.Ints[a] < e.Ints[b] }
		case "<=":
			return func(e *DEnv) bool { return e.Ints[a] <= e.Ints[b] }
		case ">":
			return func(e *DEnv) bool { return e.Ints[a] > e.Ints[b] }
		case ">=":
			return func(e *DEnv) bool { return e.Ints[a] >= e.Ints[b] }
		case "==":
			return func(e *DEnv) bool { return e.Ints[a] == e.Ints[b] }
		default:
			return func(e *DEnv) bool { return e.Ints[a] != e.Ints[b] }
		}
	case rf.kind == fiLit:
		l, k := emitI(lf), rf.k
		switch op {
		case "<":
			return func(e *DEnv) bool { return l(e) < k }
		case "<=":
			return func(e *DEnv) bool { return l(e) <= k }
		case ">":
			return func(e *DEnv) bool { return l(e) > k }
		case ">=":
			return func(e *DEnv) bool { return l(e) >= k }
		case "==":
			return func(e *DEnv) bool { return l(e) == k }
		default:
			return func(e *DEnv) bool { return l(e) != k }
		}
	case rf.kind == fiVar:
		l, b := emitI(lf), rf.slot
		switch op {
		case "<":
			return func(e *DEnv) bool { return l(e) < e.Ints[b] }
		case "<=":
			return func(e *DEnv) bool { return l(e) <= e.Ints[b] }
		case ">":
			return func(e *DEnv) bool { return l(e) > e.Ints[b] }
		case ">=":
			return func(e *DEnv) bool { return l(e) >= e.Ints[b] }
		case "==":
			return func(e *DEnv) bool { return l(e) == e.Ints[b] }
		default:
			return func(e *DEnv) bool { return l(e) != e.Ints[b] }
		}
	default:
		l, r := emitI(lf), emitI(rf)
		switch op {
		case "<":
			return func(e *DEnv) bool { return l(e) < r(e) }
		case "<=":
			return func(e *DEnv) bool { return l(e) <= r(e) }
		case ">":
			return func(e *DEnv) bool { return l(e) > r(e) }
		case ">=":
			return func(e *DEnv) bool { return l(e) >= r(e) }
		case "==":
			return func(e *DEnv) bool { return l(e) == r(e) }
		default:
			return func(e *DEnv) bool { return l(e) != r(e) }
		}
	}
}

// fuseAssignI collapses `v = <side>` — most importantly the load that
// heads a CSR walk (e = off[i], w = edges[e]) — into a single closure
// with the load inlined.
func fuseAssignI(st *cc.AssignStmt, slot int) DStmt {
	if st.Op != "=" {
		return nil
	}
	s, ok := fuseSideI(foldExpr(st.RHS))
	if !ok {
		return nil
	}
	switch s.kind {
	case fiLit:
		k := s.k
		return func(e *DEnv) { e.Ints[slot] = k }
	case fiVar:
		src := s.slot
		return func(e *DEnv) { e.Ints[slot] = e.Ints[src] }
	}
	arr := s.arr
	switch s.idx.mode {
	case ixVar:
		si := s.idx.a
		return func(e *DEnv) {
			a := &e.Arrays[arr]
			e.Ints[slot] = int64(a.I32[a.off(e.Ints[si]-a.Base)])
		}
	default:
		d := emitI(s)
		return func(e *DEnv) { e.Ints[slot] = d(e) }
	}
}

// ---- fused counted loops ----------------------------------------------
//
// An inner sequential loop of the canonical shape
//
//	for (v = init; v < bound; v++) body      (also <=)
//
// whose bound is provably loop-invariant runs as one fused closure: the
// bound is hoisted and evaluated once, the trip count is computed up
// front (so both Branch counters become bulk adds and the cost model
// sees exactly the per-trip numbers the open-coded loop produced), and
// the induction variable advances as a plain Go loop variable instead
// of a compiled post-statement. For the paper apps this removes the
// dominant per-iteration interpretive overhead: BFS re-evaluated
// off[i+1] once per edge, MD and KMEANS re-evaluated a scalar bound
// once per neighbor/feature.

// stmtWrites collects the scalar slots assigned and the array slots
// stored to anywhere under s, including nested loop inits and posts.
func stmtWrites(s cc.Stmt, scalars, arrays map[int]bool) {
	eachAssign(s, func(st *cc.AssignStmt) {
		switch lhs := st.LHS.(type) {
		case *cc.Ident:
			scalars[lhs.Decl.Slot] = true
		case *cc.IndexExpr:
			arrays[lhs.Array.Slot] = true
		}
	})
}

// exprReads collects the scalar slots and array slots e reads.
func exprReads(e cc.Expr, scalars, arrays map[int]bool) {
	switch x := e.(type) {
	case *cc.Ident:
		scalars[x.Decl.Slot] = true
	case *cc.IndexExpr:
		arrays[x.Array.Slot] = true
		exprReads(x.Index, scalars, arrays)
	case *cc.BinaryExpr:
		exprReads(x.X, scalars, arrays)
		exprReads(x.Y, scalars, arrays)
	case *cc.UnaryExpr:
		exprReads(x.X, scalars, arrays)
	case *cc.CastExpr:
		exprReads(x.X, scalars, arrays)
	case *cc.CondExpr:
		exprReads(x.Cond, scalars, arrays)
		exprReads(x.Then, scalars, arrays)
		exprReads(x.Else, scalars, arrays)
	case *cc.CallExpr:
		for _, a := range x.Args {
			exprReads(a, scalars, arrays)
		}
	}
}

// sideExprI compiles a second evaluator for a subtree whose cost and
// accesses the normal walk already recorded: nothing is charged and no
// access records are appended (the prover's cursor must not move).
func (b *specBuilder) sideExprI(e cc.Expr) dExprI {
	savedCur, savedNR := b.cur, b.noRecord
	b.cur = &IterCost{} // an expression never touches the store counts
	b.noRecord = true
	d, err := b.exprI(e)
	b.cur, b.noRecord = savedCur, savedNR
	if err != nil {
		return nil
	}
	return d
}

// canonicalFor matches the counted loop `for (...; v < bound; v++)`
// (also <=) over an int scalar v and returns v, the folded bound and
// whether the comparison includes it.
func canonicalFor(st *cc.ForStmt) (lv *cc.VarDecl, bound cc.Expr, incl, ok bool) {
	post := st.Post
	if post == nil || post.Op != "+=" || st.Cond == nil {
		return nil, nil, false, false
	}
	id, isID := post.LHS.(*cc.Ident)
	one, isLit := post.RHS.(*cc.NumLit)
	if !isID || id.Decl.Type != cc.TInt || !isLit || one.IsFloat || one.I != 1 {
		return nil, nil, false, false
	}
	cmp, isCmp := foldExpr(st.Cond).(*cc.BinaryExpr)
	if !isCmp || (cmp.Op != "<" && cmp.Op != "<=") {
		return nil, nil, false, false
	}
	if cv, isCV := cmp.X.(*cc.Ident); !isCV || cv.Decl != id.Decl {
		return nil, nil, false, false
	}
	bound = foldExpr(cmp.Y)
	if bound.Type() != cc.TInt {
		return nil, nil, false, false
	}
	return id.Decl, bound, cmp.Op == "<=", true
}

// fuseFor recognizes the canonical counted loop and returns the fused
// closure, or nil when the shape or the invariance proof does not hold
// (the caller then emits the open-coded loop). init and body are the
// already-compiled pieces; condIdx/bodyIdx are the loop's cost-bucket
// counters, incremented in bulk with exactly the open-coded totals.
func (b *specBuilder) fuseFor(st *cc.ForStmt, init, body DStmt, condIdx, bodyIdx int) DStmt {
	lvd, bound, incl, ok := canonicalFor(st)
	if !ok {
		return nil
	}
	// Invariance: nothing the body writes — scalars or arrays — may
	// feed the bound, and the body must not touch the induction
	// variable (the post statement is its only writer).
	ws, wa := map[int]bool{}, map[int]bool{}
	stmtWrites(st.Body, ws, wa)
	if ws[lvd.Slot] {
		return nil
	}
	rs, ra := map[int]bool{}, map[int]bool{}
	exprReads(bound, rs, ra)
	if rs[lvd.Slot] {
		return nil
	}
	for s := range rs {
		if ws[s] {
			return nil
		}
	}
	for a := range ra {
		if wa[a] {
			return nil
		}
	}
	boundEval := b.sideExprI(bound)
	if boundEval == nil {
		return nil
	}
	slot := lvd.Slot
	if init == nil {
		init = dNop
	}
	if body == nil {
		body = dNop
	}
	return func(env *DEnv) {
		init(env)
		v := env.Ints[slot]
		bnd := boundEval(env)
		if incl {
			bnd++
		}
		n := bnd - v
		if n < 0 {
			n = 0
		}
		env.Branch[condIdx] += n + 1
		env.Branch[bodyIdx] += n
		for ; v < bnd; v++ {
			env.Ints[slot] = v
			body(env)
		}
		env.Ints[slot] = v
	}
}

// ---- emitted closures --------------------------------------------------
//
// The fexprI/fexprF structs above are the *analysis* representation; at
// run time their eval methods still pay a kind switch per call. The
// emitters below compile a matched operand to a dedicated closure with
// the switch resolved at build time, specializing the index modes the
// paper apps hit hardest (i, i+c, k*s, k*s+c, s1*s2+s3).

// emitI compiles a fused integer operand to a dedicated closure.
func emitI(f fexprI) dExprI {
	switch f.kind {
	case fiLit:
		k := f.k
		return func(e *DEnv) int64 { return k }
	case fiVar:
		s := f.slot
		return func(e *DEnv) int64 { return e.Ints[s] }
	}
	arr := f.arr
	switch f.idx.mode {
	case ixVar:
		si := f.idx.a
		return func(e *DEnv) int64 {
			a := &e.Arrays[arr]
			return int64(a.I32[a.off(e.Ints[si]-a.Base)])
		}
	case ixVarK:
		si, k := f.idx.a, f.idx.k1
		return func(e *DEnv) int64 {
			a := &e.Arrays[arr]
			return int64(a.I32[a.off(e.Ints[si]+k-a.Base)])
		}
	default:
		t := emitTerm(f.idx)
		return func(e *DEnv) int64 {
			a := &e.Arrays[arr]
			return int64(a.I32[a.off(t(e)-a.Base)])
		}
	}
}
