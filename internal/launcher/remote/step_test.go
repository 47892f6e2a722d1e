package remote

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// TestStepIsPure keeps the coordinator's decisions apart from its I/O:
// in coord.go only the driver — drive, which starts every goroutine,
// perform, which sends every request and runs OnDone, and write, which
// journals and runs OnCheckpoint — reads the clock, starts a goroutine,
// sends a request or writes a record. Any other function that does fails
// here, so a run's schedule stays a function of the inputs the step is
// handed, which is what lets the seeded harness replay it.
func TestStepIsPure(t *testing.T) {
	driver := map[string]bool{"drive": true, "perform": true, "write": true}
	clock := map[string]bool{"Now": true, "Since": true, "Until": true, "NewTicker": true, "NewTimer": true,
		"After": true, "AfterFunc": true, "Sleep": true, "Tick": true}
	io := map[string]bool{"Status": true, "Lease": true, "Events": true, "Steal": true, "Do": true,
		"SleepCtx": true, "OnDone": true, "OnCheckpoint": true, "Start": true, "Done": true}
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "coord.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	goes := 0
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				goes++
				if fn.Name.Name != "drive" {
					t.Errorf("%s: %s starts a goroutine; only drive does", fset.Position(n.Pos()), fn.Name.Name)
				}
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok || driver[fn.Name.Name] {
					break
				}
				if pkg, ok := sel.X.(*ast.Ident); ok && (pkg.Name == "time" && clock[sel.Sel.Name] || pkg.Name == "http") {
					t.Errorf("%s: %s calls %s.%s", fset.Position(n.Pos()), fn.Name.Name, pkg.Name, sel.Sel.Name)
				}
				if io[sel.Sel.Name] {
					t.Errorf("%s: %s calls %s: only the driver sends requests and writes records", fset.Position(n.Pos()), fn.Name.Name, sel.Sel.Name)
				}
			}
			return true
		})
	}
	if goes != 1 {
		t.Errorf("coord.go has %d go statements; drive starts every goroutine from one", goes)
	}
}
