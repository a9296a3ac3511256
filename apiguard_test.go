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

const faultImportPath = "github.com/ftpim/ftpim/internal/fault"

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

func TestNoFaultModelLiteralsOutsideFaultPackage(t *testing.T) {
	fset := token.NewFileSet()
	var violations []string
	walkGoFiles(t, fset, 0, func(path string, f *ast.File) {
		if filepath.ToSlash(filepath.Dir(path)) == "internal/fault" {
			return // the shim's home package is exempt
		}
		// Resolve what identifier (if any) names the fault package in
		// this file, honoring renamed imports.
		alias := ""
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if p != faultImportPath {
				continue
			}
			alias = "fault"
			if imp.Name != nil {
				alias = imp.Name.Name
			}
		}
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
