package ir

import (
	"accmulti/internal/cc"
)

// Fused counted loops for the per-iteration specialized body.
//
// The per-iteration body is a cold path: every inner loop of the shipped
// apps runs inside the tile body (specvec.go, specflat.go), and what
// reaches Body is hazard lanes and the safety pieces. It compiles one
// closure per expression node and nothing here changes that. The one
// shape it is still the designated engine for is a body that is nothing
// but a loop with stores in it (Untiled "shape"), and for that shape
// this file keeps one rewrite (DESIGN §11 has the number that keeps
// it). An inner sequential loop of the canonical shape
//
//	for (v = init; v < bound; v++) body      (also <=)
//
// whose bound is provably loop-invariant runs as one fused closure: the
// bound is hoisted and evaluated once, the trip count is computed up
// front (so both Branch counters become bulk adds and the cost model
// sees exactly the per-trip numbers the open-coded loop produced), and
// the induction variable advances as a plain Go loop variable instead
// of a compiled post-statement.

// stmtWrites collects the scalar slots assigned and the array slots
// stored to anywhere under s, including nested loop inits and posts.
func stmtWrites(s cc.Stmt, scalars, arrays map[int]bool) {
	cc.EachAssign(s, func(st *cc.AssignStmt) {
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
	cc.EachExpr(e, func(x cc.Expr) {
		switch x := x.(type) {
		case *cc.Ident:
			scalars[x.Decl.Slot] = true
		case *cc.IndexExpr:
			arrays[x.Array.Slot] = true
		}
	})
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
	// A second evaluator for the bound, whose cost and accesses the
	// condition's walk already recorded: nothing is charged and no access
	// records are appended (the prover's cursor must not move).
	savedCur, savedNR := b.cur, b.noRecord
	b.cur, b.noRecord = &IterCost{}, true // an expression never touches the store counts
	boundEval, err := b.exprI(bound)
	b.cur, b.noRecord = savedCur, savedNR
	if err != nil {
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
		for v < bnd {
			for end := env.blockEnd(v, bnd); v < end; v++ {
				env.Ints[slot] = v
				body(env)
			}
		}
		env.Ints[slot] = v
	}
}
