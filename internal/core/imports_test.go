package core

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestCompileSideDoesNotImportRuntime pins the layering of the compile
// side: parsing, directives, diagnostics, translation and accvet reason
// about a program without linking what runs it. The analyzer and the
// lowering share one subscript algebra (translator/subscript.go) instead
// of the runtime's interval sets, so none of their non-test files imports
// the runtime, the simulator or the service.
func TestCompileSideDoesNotImportRuntime(t *testing.T) {
	banned := []string{"accmulti/internal/rt", "accmulti/internal/sim", "accmulti/internal/serve"}
	for _, pkg := range []string{"cc", "acc", "diag", "translator", "analysis"} {
		files, err := filepath.Glob(filepath.Join("..", pkg, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no sources for internal/%s: %v", pkg, err)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				for _, b := range banned {
					if path == b || strings.HasPrefix(path, b+"/") {
						t.Errorf("%s imports %s", file, path)
					}
				}
			}
		}
	}
}
