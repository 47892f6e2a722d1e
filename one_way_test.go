package firemarshal

import (
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestOneWayToExecuteAJob keeps "one way to execute a job" true: a second
// job runner, a second reader of Retry-After, or a second extraction of
// outputs from a boot's final filesystem fails here instead of drifting
// from the first.
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
}
