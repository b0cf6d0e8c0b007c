package ir

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// TestProductsKeepTheirRounding holds the lane loops that form a float
// product and add or subtract it in the same pass (mulAddLanes, fuseLanes)
// to an explicit float64(...) around every product: without one the Go
// spec lets a compiler fuse x*y + z into one FMA, and the interpreter
// rounds the product first. The compiler does not fuse on amd64, so no
// differential run there sees a conversion go missing; on arm64, ppc64le,
// riscv64 and s390x it does.
func TestProductsKeepTheirRounding(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "specvec.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Name.Name != "mulAddLanes" && fn.Name.Name != "fuseLanes" {
			continue
		}
		checked++
		// The lane values are what the loops assign; the case labels are
		// int constants.
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for _, rhs := range as.Rhs {
				ast.Inspect(rhs, func(n ast.Node) bool {
					b, ok := n.(*ast.BinaryExpr)
					if !ok || b.Op != token.ADD && b.Op != token.SUB {
						return true
					}
					for _, x := range []ast.Expr{b.X, b.Y} {
						if m, ok := ast.Unparen(x).(*ast.BinaryExpr); ok && m.Op == token.MUL {
							t.Errorf("%s: %s: a product is an operand of %s without float64(...)", fn.Name.Name, fset.Position(m.Pos()), b.Op)
						}
					}
					return true
				})
			}
			return false
		})
	}
	if checked != 2 {
		t.Fatalf("found %d of mulAddLanes and fuseLanes in specvec.go", checked)
	}
}
