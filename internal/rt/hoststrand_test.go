package rt

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"
)

// TestTracerIsHostStrandOnly holds the rule that lets trace.Tracer go
// unsynchronized: nothing that can run on a sim.FanOut or ForWorkers
// goroutine touches the tracer. It reads the package's non-test source,
// takes every function literal handed to FanOut/ForWorkers (directly, or
// through the variable or field named at the call) as a root, follows
// calls by name — over-approximating: a name stands for every function
// and method of the package that bears it — and fails if a reachable
// body mentions Options.Tracer or calls one of the emitters.
func TestTracerIsHostStrandOnly(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	lastName := func(e ast.Expr) string {
		switch x := e.(type) {
		case *ast.Ident:
			return x.Name
		case *ast.SelectorExpr:
			return x.Sel.Name
		}
		return ""
	}
	bodies := map[string][]ast.Node{}   // function or method name → bodies
	assigned := map[string][]ast.Node{} // variable or field name → literals assigned to it
	for _, f := range pkgs["rt"].Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncDecl:
				if x.Body != nil {
					bodies[x.Name.Name] = append(bodies[x.Name.Name], x.Body)
				}
			case *ast.AssignStmt:
				for i, rhs := range x.Rhs {
					if lit, ok := rhs.(*ast.FuncLit); ok && i < len(x.Lhs) {
						assigned[lastName(x.Lhs[i])] = append(assigned[lastName(x.Lhs[i])], lit.Body)
					}
				}
			}
			return true
		})
	}
	var roots []ast.Node
	for _, f := range pkgs["rt"].Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || lastName(call.Fun) != "FanOut" && lastName(call.Fun) != "ForWorkers" {
				return true
			}
			fn := call.Args[len(call.Args)-1]
			if lit, ok := fn.(*ast.FuncLit); ok {
				roots = append(roots, lit.Body)
			} else if lits := assigned[lastName(fn)]; len(lits) > 0 {
				roots = append(roots, lits...)
			} else {
				t.Errorf("%s: cannot resolve the function handed to %s", fset.Position(call.Pos()), lastName(call.Fun))
			}
			return true
		})
	}
	if len(roots) < 6 {
		t.Fatalf("found %d fan-out closures, want at least 6: the scan is broken", len(roots))
	}
	emitters := map[string]bool{"Emit": true, "Metrics": true, "addEvent": true,
		"emitKernelSpans": true, "emitTransferSpans": true, "emitSysAlloc": true}
	seen := map[ast.Node]bool{}
	var visit func(n ast.Node, path string)
	visit = func(body ast.Node, path string) {
		if seen[body] {
			return
		}
		seen[body] = true
		ast.Inspect(body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				if x.Sel.Name == "Tracer" {
					t.Errorf("%s: Options.Tracer read on a fan-out goroutine (%s)", fset.Position(x.Pos()), path)
				}
			case *ast.CallExpr:
				name := lastName(x.Fun)
				if emitters[name] {
					t.Errorf("%s: %s called on a fan-out goroutine (%s)", fset.Position(x.Pos()), name, path)
				}
				for _, b := range bodies[name] {
					visit(b, path+" > "+name)
				}
			}
			return true
		})
	}
	for _, root := range roots {
		visit(root, "closure at "+fset.Position(root.Pos()).String())
	}
}
