package ftpim

// API-convention guards. Each walks the whole module with go/parser:
//
//   - The fault.Scenario registry is the one way to select a fault
//     distribution, and fault.NewModel the one way to build a custom
//     SA0/SA1 mix. Constructing fault.Model by composite literal
//     outside internal/fault bypasses both (and the Validate
//     conventions they enforce), so any such literal fails. The
//     deprecation shim inside internal/fault itself is exempt.
//   - Float state goes to disk only through the checksummed FTCK
//     container (internal/ckpt) and the tensor-list codec, so no file
//     may import encoding/gob.
//   - The float kernels have one numerics contract, exact. The tensor
//     package's numerics names remain only as a shim for perfbench,
//     a separate module, so nothing outside perfbench/ may use them.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

const (
	faultImportPath  = "github.com/ftpim/ftpim/internal/fault"
	tensorImportPath = "github.com/ftpim/ftpim/internal/tensor"
)

// walkGoFiles parses every .go file of the module with mode and hands
// it to visit, skipping directories that hold no module source.
func walkGoFiles(t *testing.T, fset *token.FileSet, mode parser.Mode, visit func(path string, f *ast.File)) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".cache", "testdata", "results":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, perr := parser.ParseFile(fset, path, nil, mode)
		if perr != nil {
			return perr
		}
		visit(path, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// importName returns the identifier that names the package at path in
// f, honoring a renamed import, or "" when f does not import it.
func importName(f *ast.File, path string) string {
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == path {
			if imp.Name != nil {
				return imp.Name.Name
			}
			return path[strings.LastIndex(path, "/")+1:]
		}
	}
	return ""
}

func TestNoFaultModelLiteralsOutsideFaultPackage(t *testing.T) {
	fset := token.NewFileSet()
	var violations []string
	walkGoFiles(t, fset, 0, func(path string, f *ast.File) {
		if filepath.ToSlash(filepath.Dir(path)) == "internal/fault" {
			return // the shim's home package is exempt
		}
		alias := importName(f, faultImportPath)
		if alias == "" || alias == "_" {
			return
		}

		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			sel, ok := lit.Type.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok || pkg.Name != alias || sel.Sel.Name != "Model" {
				return true
			}
			violations = append(violations,
				fset.Position(lit.Pos()).String())
			return true
		})
	})
	if len(violations) > 0 {
		t.Fatalf("fault.Model composite literals outside internal/fault "+
			"(use fault.NewModel, a scenario constructor, or fault.Parse):\n  %s",
			strings.Join(violations, "\n  "))
	}
}

func TestNoEncodingGobImports(t *testing.T) {
	fset := token.NewFileSet()
	var violations []string
	walkGoFiles(t, fset, parser.ImportsOnly, func(path string, f *ast.File) {
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "encoding/gob" {
				violations = append(violations, fset.Position(imp.Pos()).String())
			}
		}
	})
	if len(violations) > 0 {
		t.Fatalf("encoding/gob imports (write float state as ckpt sections "+
			"with tensor.AppendTensors instead):\n  %s", strings.Join(violations, "\n  "))
	}
}

// numericsShim lists the tensor names kept only for perfbench.
var numericsShim = map[string]bool{
	"Numerics": true, "NumericsExact": true, "SetNumerics": true, "ActiveNumerics": true,
}

func TestNumericsShimOnlyInPerfbench(t *testing.T) {
	fset := token.NewFileSet()
	var violations []string
	walkGoFiles(t, fset, 0, func(path string, f *ast.File) {
		path = filepath.ToSlash(path)
		if strings.HasPrefix(path, "perfbench/") || path == "internal/tensor/numerics.go" {
			return
		}
		if filepath.Dir(path) == "internal/tensor" {
			// Inside the package a use is a name this file leaves
			// unresolved: one declared in another of its files.
			for _, id := range f.Unresolved {
				if numericsShim[id.Name] {
					violations = append(violations, fset.Position(id.Pos()).String())
				}
			}
			return
		}
		alias := importName(f, tensorImportPath)
		if alias == "" || alias == "_" {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == alias && numericsShim[sel.Sel.Name] {
					violations = append(violations, fset.Position(sel.Pos()).String())
				}
			}
			return true
		})
	})
	if len(violations) > 0 {
		t.Fatalf("uses of tensor's numerics shim outside perfbench/ "+
			"(there is one numerics contract, exact; select nothing):\n  %s",
			strings.Join(violations, "\n  "))
	}
}
