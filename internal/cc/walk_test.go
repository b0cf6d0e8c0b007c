package cc

import (
	"go/ast"
	goparser "go/parser"
	"go/token"
	"reflect"
	"testing"
)

// nodeKinds reads ast.go and returns the struct types that embed base:
// the node kinds of the AST.
func nodeKinds(t *testing.T, base string) map[string]bool {
	t.Helper()
	f, err := goparser.ParseFile(token.NewFileSet(), "ast.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok {
			return true
		}
		if st, ok := ts.Type.(*ast.StructType); ok {
			for _, fld := range st.Fields.List {
				if id, ok := fld.Type.(*ast.Ident); ok && len(fld.Names) == 0 && id.Name == base {
					kinds[ts.Name.Name] = true
				}
			}
		}
		return true
	})
	return kinds
}

// TestEachVisitsEveryNodeKind holds walk.go to ast.go: a program using
// every statement and expression form is walked, and every node kind
// ast.go declares must have been handed to the callback.
func TestEachVisitsEveryNodeKind(t *testing.T) {
	prog, err := ParseProgram(`int n;
float a[n];
void main() {
    int i;
    float x;
    #pragma acc data copy(a)
    {
        i = 0;
        while (i < n) {
            if (i == 3) { break; } else { i++; continue; }
        }
        #pragma acc parallel loop
        for (i = 0; i < n; i++) { a[i] = (float)(-i) + (i > 1 ? sqrt(2.0) : x); }
        #pragma acc update host(a)
    }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	stmts, exprs := map[string]bool{}, map[string]bool{}
	see := func(e Expr) {
		if e != nil {
			EachExpr(e, func(x Expr) { exprs[reflect.TypeOf(x).Elem().Name()] = true })
		}
	}
	assign := func(st *AssignStmt) {
		if st != nil {
			see(st.LHS)
			see(st.RHS)
		}
	}
	EachStmt(prog.Main.Body, func(s Stmt) {
		stmts[reflect.TypeOf(s).Elem().Name()] = true
		switch st := s.(type) {
		case *AssignStmt:
			assign(st)
		case *IfStmt:
			see(st.Cond)
		case *WhileStmt:
			see(st.Cond)
		case *ForStmt:
			assign(st.Init)
			see(st.Cond)
			assign(st.Post)
		}
	})
	for _, c := range []struct {
		base string
		seen map[string]bool
	}{{"stmtBase", stmts}, {"exprBase", exprs}} {
		kinds := nodeKinds(t, c.base)
		if len(kinds) < 8 {
			t.Fatalf("found only %d kinds embedding %s in ast.go", len(kinds), c.base)
		}
		for k := range kinds {
			if !c.seen[k] {
				t.Errorf("%s: declared in ast.go, never visited", k)
			}
		}
	}

	n := 0
	EachAssign(prog.Main.Body, func(*AssignStmt) { n++ })
	if n != 5 { // i = 0; i++ (while); the for's init and post; a[i] = ...
		t.Errorf("EachAssign visited %d assignments, want 5", n)
	}
}
