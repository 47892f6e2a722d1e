package firemarshal

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"firemarshal/internal/cas"
)

// TestOneWayToExecuteAJob keeps "one way to execute a job" true: a second
// job runner, a second reader of Retry-After, a second HTTP request loop, a
// second extraction of outputs from a boot's final filesystem or a second
// way to move a blob fails here instead of drifting from the first.
// It scans product sources only (tests, benchmark/ and examples/ may boot
// guests however they like).
func TestOneWayToExecuteAJob(t *testing.T) {
	guards := []struct {
		what    string
		pattern string
		allowed []string
	}{
		// The execution kernel, plus build-time guest-init — which overrides
		// the run script and persists the filesystem, so sharing the kernel
		// would make it branch on its caller.
		{"boots a guest", "guestos.Boot(", []string{"internal/core/build.go", "internal/launcher/remote/exec.go"}},
		{"reads a Retry-After header", `.Get("Retry-After")`, []string{"internal/hostutil/retry.go"}},
		// Output extraction starts from the final filesystem of a boot, and
		// the kernel is its only reader.
		{"reads a boot's final filesystem", ".FinalFS", []string{"internal/launcher/remote/exec.go"}},
		// One request loop under the cache client and the worker client.
		{"builds an HTTP request", "http.NewRequest", []string{"internal/hostutil/http.go"}},
	}
	found := make([][]string, len(guards))
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "benchmark" || path == "examples" || strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, g := range guards {
			if strings.Contains(string(src), g.pattern) {
				found[i] = append(found[i], filepath.ToSlash(path))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range guards {
		sort.Strings(found[i])
		if !reflect.DeepEqual(found[i], g.allowed) {
			t.Errorf("code that %s (%q) is in %v, want exactly %v", g.what, g.pattern, found[i], g.allowed)
		}
	}

	// One blob path: a remote moves whole blobs and whole action entries, and
	// has no second, streaming or chunked, way to move either.
	var methods []string
	remote := reflect.TypeOf((*cas.Remote)(nil)).Elem()
	for i := 0; i < remote.NumMethod(); i++ {
		methods = append(methods, remote.Method(i).Name)
	}
	if want := []string{"GetAction", "GetBlob", "PutAction", "PutBlob"}; !reflect.DeepEqual(methods, want) {
		t.Errorf("cas.Remote has methods %v, want exactly %v", methods, want)
	}
}

// TestFileDataIsWrittenOnlyByFsimg keeps fsimg.File.Data immutable, which is
// what lets FS.Clone share file contents between images and fsimg.Decode
// hand out slices of its input: outside internal/fsimg, product code may
// read a Data but never assign it, store through an index or slice of it,
// copy into it, append to it (append writes into spare capacity), or build
// a fsimg.File around a slice of its own. The check is by field name, so it
// also fires on a write to another type's Data field — none exists today;
// if one is added, exempt that type here rather than weakening the rule.
func TestFileDataIsWrittenOnlyByFsimg(t *testing.T) {
	// dataOf reports whether e is x.Data, possibly indexed, sliced,
	// parenthesised or dereferenced.
	var dataOf func(e ast.Expr) bool
	dataOf = func(e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.SelectorExpr:
			return e.Sel.Name == "Data"
		case *ast.IndexExpr:
			return dataOf(e.X)
		case *ast.SliceExpr:
			return dataOf(e.X)
		case *ast.ParenExpr:
			return dataOf(e.X)
		case *ast.StarExpr:
			return dataOf(e.X)
		}
		return false
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "benchmark" || path == "examples" || filepath.ToSlash(path) == "internal/fsimg" || strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(file, func(n ast.Node) bool {
			bad := ""
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if n.Tok != token.DEFINE && dataOf(lhs) {
						bad = "assigns to a Data field"
					}
				}
			case *ast.IncDecStmt:
				if dataOf(n.X) {
					bad = "increments a Data field"
				}
			case *ast.CallExpr:
				if fn, ok := n.Fun.(*ast.Ident); ok && (fn.Name == "copy" || fn.Name == "append") && len(n.Args) > 0 && dataOf(n.Args[0]) {
					bad = "passes a Data field to " + fn.Name + " as its destination"
				}
			case *ast.CompositeLit:
				if sel, ok := n.Type.(*ast.SelectorExpr); ok && sel.Sel.Name == "File" {
					if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "fsimg" {
						bad = "builds a fsimg.File of its own"
					}
				}
			}
			if bad != "" {
				t.Errorf("%s %s: fsimg.File.Data is immutable, write files with FS.WriteFile", fset.Position(n.Pos()), bad)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestArtifactsAreReplacedNeverRewritten keeps the invariant hard-linked
// artifacts rest on: a work tree's artifact is the same inode as its cache
// blob, so a write into one is a write into both. Product code opens a file
// for writing only in hostutil's writeAtomic, whose temporary file is renamed
// over the path — a new inode, never a rewrite — and in the three append-only
// logs (the run journal, the cas action log, a job's checkpoint pointer
// file), which no artifact is, plus `launch -trace`'s trace.log, created new
// in a run directory each attempt, and the digest cache's timestamp probe, a
// file no directory lists (or lists only until it is unlinked at once).
func TestArtifactsAreReplacedNeverRewritten(t *testing.T) {
	opens := map[string]bool{"WriteFile": true, "Create": true, "CreateTemp": true, "OpenFile": true, "Truncate": true}
	var found []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "benchmark" || path == "examples" || strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || !opens[sel.Sel.Name] {
					return true
				}
				if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "os" && pkg.Name != "ioutil" {
					return true
				}
				site := fmt.Sprintf("%s:%s:%s.%s", filepath.ToSlash(path), fn.Name.Name, sel.X.(*ast.Ident).Name, sel.Sel.Name)
				if sel.Sel.Name == "OpenFile" && len(call.Args) > 1 {
					if flags := types.ExprString(call.Args[1]); !strings.Contains(flags, "O_APPEND") {
						site += " without O_APPEND"
					}
				}
				found = append(found, site)
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(found)
	want := []string{
		"internal/cas/actionlog.go:reopen:os.OpenFile",
		"internal/checkpoint/pointer.go:appendPointer:os.OpenFile",
		"internal/core/launch.go:launchJob:os.Create",
		"internal/hostutil/filekey_linux.go:openProbe:os.CreateTemp",
		"internal/hostutil/filekey_linux.go:openProbe:os.OpenFile without O_APPEND",
		"internal/hostutil/hostutil.go:writeAtomic:os.CreateTemp",
		"internal/launcher/journal.go:OpenJournal:os.OpenFile",
	}
	if !reflect.DeepEqual(found, want) {
		t.Errorf("product code opens files for writing at %v, want exactly %v: write whole files with hostutil.WriteFileAtomic (or WriteStreamAtomic)", found, want)
	}
}
