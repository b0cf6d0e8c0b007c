package cc

// The read-only traversal family: the one place the node kinds of ast.go
// are enumerated for walks that only look. The translator's access
// analysis, the vet passes and the spec builders' eligibility checks all
// go through it, so a node kind added to ast.go is visited everywhere
// once it is added here (TestEachVisitsEveryNodeKind holds the two
// together).

// EachExpr calls fn for every expression under e, operands left to
// right, and then for e itself: a subscript is visited before the load
// it feeds.
func EachExpr(e Expr, fn func(Expr)) {
	switch x := e.(type) {
	case *IndexExpr:
		EachExpr(x.Index, fn)
	case *UnaryExpr:
		EachExpr(x.X, fn)
	case *BinaryExpr:
		EachExpr(x.X, fn)
		EachExpr(x.Y, fn)
	case *CondExpr:
		EachExpr(x.Cond, fn)
		EachExpr(x.Then, fn)
		EachExpr(x.Else, fn)
	case *CallExpr:
		for _, a := range x.Args {
			EachExpr(a, fn)
		}
	case *CastExpr:
		EachExpr(x.X, fn)
	}
	fn(e)
}

// EachStmt calls fn for s and then for every statement nested under it,
// in source order. The Init and Post of a for statement are parts of the
// for, like its condition, and are not visited on their own (EachAssign
// yields them).
func EachStmt(s Stmt, fn func(Stmt)) {
	fn(s)
	switch st := s.(type) {
	case *Block:
		for _, c := range st.Stmts {
			EachStmt(c, fn)
		}
	case *IfStmt:
		EachStmt(st.Then, fn)
		if st.Else != nil {
			EachStmt(st.Else, fn)
		}
	case *WhileStmt:
		EachStmt(st.Body, fn)
	case *ForStmt:
		EachStmt(st.Body, fn)
	}
}

// EachAssign calls fn for every assignment under s, loop headers
// included (a for's Init and Post come before its body).
func EachAssign(s Stmt, fn func(*AssignStmt)) {
	EachStmt(s, func(x Stmt) {
		switch st := x.(type) {
		case *AssignStmt:
			fn(st)
		case *ForStmt:
			if st.Init != nil {
				fn(st.Init)
			}
			if st.Post != nil {
				fn(st.Post)
			}
		}
	})
}

// AssignedScalars records in out every scalar assigned under s.
func AssignedScalars(s Stmt, out map[*VarDecl]bool) {
	EachAssign(s, func(st *AssignStmt) {
		if id, ok := st.LHS.(*Ident); ok {
			out[id.Decl] = true
		}
	})
}
