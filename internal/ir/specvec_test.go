package ir

import (
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"testing"
)

// TestProductsKeepTheirRounding holds every lane loop of the tile builder
// that adds or subtracts a product to its rounding. Where the product is
// a float value (mulAddLanes, which also writes a dense store's array,
// fuseLanes and distance, KMEANS's pair in one pass) it must sit in an
// explicit float64(...): without one the Go spec lets a compiler fuse
// x*y + z into one FMA, and the interpreter rounds the product first. The
// compiler does not fuse on amd64, so no differential run there sees a
// conversion go missing; on arm64, ppc64le, riscv64 and s390x it does. The
// other loops form int indices, which no compiler fuses. The loops are
// found from the source: a product that is an operand of + or - in a value
// a loop assigns, outside an index; the set of functions that hold one
// must be exactly the table's, and each float one holds the count of
// products its forms have.
func TestProductsKeepTheirRounding(t *testing.T) {
	float := map[string]bool{
		"mulAddLanes": true, "fuseLanes": true, "distance": true,
		"idxVec": false, "storeLanes": false, "buildVec": false,
	}
	products := map[string]int{"mulAddLanes": 6, "fuseLanes": 2, "distance": 1}
	declared := map[string]bool{}
	fset := token.NewFileSet()
	found := map[string]int{}
	for _, file := range []string{"specvec.go", "specflat.go"} {
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			name := fn.Name.Name
			declared[name] = true
			for _, m := range loopProducts(fn.Body) {
				found[name]++
				if c, ok := m.(*ast.CallExpr); float[name] && (!ok || !isIdent(c.Fun, "float64")) {
					t.Errorf("%s: %s: a product is an operand of + or - without float64(...)", name, fset.Position(m.Pos()))
				}
			}
		}
	}
	if got, want := sortedKeys(found), sortedKeys(float); !slices.Equal(got, want) {
		t.Fatalf("lane loops that add or subtract a product: %v, want %v", got, want)
	}
	for name, n := range products {
		if !declared[name] || found[name] != n {
			t.Errorf("%s: %d products checked, want %d (mulAddLanes: P + P, P ± K, V ± P; fuseLanes: += x*v dense and indexed; distance: y += x*x)", name, found[name], n)
		}
	}
}

// loopProducts returns the products, each with the one-argument
// conversion around it if any, that are operands of + or - in the values
// the loops of body assign, outside index expressions.
func loopProducts(body *ast.BlockStmt) []ast.Expr {
	var out []ast.Expr
	ast.Inspect(body, func(n ast.Node) bool {
		var loop *ast.BlockStmt
		switch l := n.(type) {
		case *ast.ForStmt:
			loop = l.Body
		case *ast.RangeStmt:
			loop = l.Body
		default:
			return true
		}
		ast.Inspect(loop, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for _, rhs := range as.Rhs {
				ast.Inspect(rhs, func(n ast.Node) bool {
					if _, ok := n.(*ast.IndexExpr); ok {
						return false
					}
					b, ok := n.(*ast.BinaryExpr)
					if !ok || b.Op != token.ADD && b.Op != token.SUB {
						return true
					}
					for _, x := range []ast.Expr{b.X, b.Y} {
						x, m := ast.Unparen(x), ast.Unparen(x)
						if c, ok := x.(*ast.CallExpr); ok && len(c.Args) == 1 {
							m = ast.Unparen(c.Args[0])
						}
						if p, ok := m.(*ast.BinaryExpr); ok && p.Op == token.MUL {
							out = append(out, x)
						}
					}
					return true
				})
			}
			return true
		})
		return false
	})
	return out
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}

func sortedKeys[V any](m map[string]V) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
