package firemarshal

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestOnePlatformKernelOneRetireLoop keeps the simulator layer at one of
// each, the way TestOneWayToExecuteAJob does for job execution: one place
// that builds a machine and speaks the checkpoint protocol (the platform
// kernel), one loop over StepInto (RunBatch), one place that picks a loop
// (runToHalt), one loop per role that charges a timing model (RunBatch on
// the reference path, runFast on the predecoded one, which alone replays
// a model's log), one definition of
// every RV64IM rule that is more than an operator (semantics.go), and one
// device lookup (AddrRange; no Contains). A second copy of any of them
// fails here instead of drifting from the first. It parses product sources
// only: tests, benchmark/ and the verification farm (which builds bare
// machines to compare tiers) may do as they like.
func TestOnePlatformKernelOneRetireLoop(t *testing.T) {
	const kernel = "internal/sim/platform/host.go"
	// call name -> "file:enclosing function" of every call site found.
	calls := map[string][]string{}
	track := map[string]bool{
		"NewMachine": true, "ReplayNext": true, "BeginExec": true, "FinishExec": true,
		"LoadExecutable": true, "StepInto": true, "sext32": true,
		"runFast": true, "charge": true, "ChargeEvent": true, "Replay": true,
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "benchmark" || path == "internal/verify" || strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		path = filepath.ToSlash(path)
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		for _, decl := range file.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if isContains(decl.Name.Name, decl.Type) {
					t.Errorf("%s declares Contains(addr uint64) bool: devices are looked up by AddrRange only", path)
				}
				if decl.Body == nil {
					continue
				}
				where := path + ":" + decl.Name.Name
				executor := strings.HasPrefix(path, "internal/sim/") &&
					(decl.Name.Name == "StepInto" || decl.Name.Name == "runFast" || decl.Name.Name == "runTrace" ||
						decl.Name.Name == "runPasses")
				ast.Inspect(decl.Body, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CallExpr:
						name := ""
						switch fun := n.Fun.(type) {
						case *ast.Ident:
							name = fun.Name
						case *ast.SelectorExpr:
							name = fun.Sel.Name
						}
						if track[name] {
							calls[name] = append(calls[name], where)
						}
					case *ast.BinaryExpr:
						// Guest division never reaches a Go operator directly:
						// the zero-divisor and overflow rules sit in front of it.
						if executor && (n.Op == token.QUO || n.Op == token.REM) {
							t.Errorf("%s divides at %s: division rules live in semantics.go", where, fset.Position(n.Pos()))
						}
					}
					return true
				})
				// Each platform's Exec is the kernel plus a tweak and a loop.
				if decl.Name.Name == "Exec" && strings.HasPrefix(path, "internal/sim/") && path != kernel {
					if lines := fset.Position(decl.End()).Line - fset.Position(decl.Pos()).Line + 1; lines > 40 {
						t.Errorf("%s is %d lines, want at most 40: the protocol belongs to the kernel", where, lines)
					}
				}
			case *ast.GenDecl:
				ast.Inspect(decl, func(n ast.Node) bool {
					if it, ok := n.(*ast.InterfaceType); ok {
						for _, m := range it.Methods.List {
							if ft, ok := m.Type.(*ast.FuncType); ok && len(m.Names) == 1 && isContains(m.Names[0].Name, ft) {
								t.Errorf("%s: an interface requires Contains(addr uint64) bool", path)
							}
						}
					}
					return true
				})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for name, want := range map[string][]string{
		"NewMachine":     {kernel + ":Run"},
		"ReplayNext":     {kernel + ":Run"},
		"BeginExec":      {kernel + ":Run"},
		"FinishExec":     {kernel + ":Run"},
		"LoadExecutable": {kernel + ":Run"},
		"StepInto": {
			"internal/sim/fastpath.go:RunBatch", // the one loop
			"internal/sim/fastpath.go:runFast",  // its slow path: one instruction, then back
			"internal/sim/machine.go:Step",      // the single-step API
		},
		"runFast": {"internal/sim/env.go:runToHalt"},
	} {
		got := append([]string(nil), calls[name]...)
		sort.Strings(got)
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s( is called from %v, want exactly %v", name, got, want)
		}
	}
	// A timing model is charged per event (RunBatch's charge parameter, or
	// a model's ChargeEvent) only by the two retire loops: RunBatch for
	// every instruction, runFast for a slow step. Its log is replayed only
	// by runFast, at a chunk end and before a slow step.
	perEvent := append(append([]string(nil), calls["charge"]...), calls["ChargeEvent"]...)
	sort.Strings(perEvent)
	if want := "internal/sim/fastpath.go:RunBatch internal/sim/fastpath.go:runFast"; strings.Join(perEvent, " ") != want {
		t.Errorf("a timing model is charged per event from %v, want exactly RunBatch and runFast once each", perEvent)
	}
	if got := strings.Join(calls["Replay"], " "); got != "internal/sim/fastpath.go:runFast internal/sim/fastpath.go:runFast" {
		t.Errorf("a timing model's log is replayed from %v, want runFast twice", calls["Replay"])
	}
	for _, where := range calls["sext32"] {
		if !strings.HasPrefix(where, "internal/sim/semantics.go:") {
			t.Errorf("sext32( is called from %s: W-form rules live in semantics.go", where)
		}
	}
	if len(calls["sext32"]) == 0 {
		t.Error("found no sext32( call at all: has semantics.go moved?")
	}
}

// isContains reports whether a method is the old per-device address test.
func isContains(name string, ft *ast.FuncType) bool {
	if name != "Contains" || ft.Params == nil || ft.Results == nil ||
		len(ft.Params.List) != 1 || len(ft.Results.List) != 1 {
		return false
	}
	p, pok := ft.Params.List[0].Type.(*ast.Ident)
	r, rok := ft.Results.List[0].Type.(*ast.Ident)
	return pok && rok && p.Name == "uint64" && r.Name == "bool"
}
