package dag

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"firemarshal/internal/cas"
	"firemarshal/internal/hostutil"
)

func testCache(t *testing.T) *cas.Cache {
	t.Helper()
	store, err := cas.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return cas.NewCache(store, nil)
}

// chainTasks registers a depth-deep chain a0 <- a1 <- ... where each task
// writes its target from its predecessor's output, counting executions.
func chainTasks(t *testing.T, e *Engine, dir string, depth int, execs *int) string {
	t.Helper()
	prev := ""
	for i := 0; i < depth; i++ {
		name := fmt.Sprintf("a%d", i)
		target := filepath.Join(dir, name+".out")
		task := &Task{
			Name:      name,
			ValueDeps: map[string]string{"spec": name + "-spec"},
			Targets:   []string{target},
			Action: func() error {
				*execs++
				return hostutil.WriteFileAtomic(target, []byte("content of "+name), 0o644)
			},
		}
		if prev != "" {
			task.TaskDeps = []string{fmt.Sprintf("a%d", i-1)}
			task.FileDeps = []string{filepath.Join(dir, prev+".out")}
		}
		if err := e.Register(task); err != nil {
			t.Fatal(err)
		}
		prev = name
	}
	return fmt.Sprintf("a%d", depth-1)
}

// A fresh engine (no state DB, no targets on disk) sharing a warm cache
// restores the whole chain without executing a single action.
func TestCacheRestoresChainWithoutExecuting(t *testing.T) {
	cache := testCache(t)
	const depth = 4

	dir1 := t.TempDir()
	e1, _ := NewEngine(filepath.Join(dir1, "state.json"))
	e1.SetCache(cache)
	var execs1 int
	final := chainTasks(t, e1, dir1, depth, &execs1)
	if err := e1.RunMany([]string{final}, 2); err != nil {
		t.Fatal(err)
	}
	if execs1 != depth {
		t.Fatalf("cold build executed %d, want %d", execs1, depth)
	}

	// "Fresh checkout": new dir, new state DB, same cache.
	dir2 := t.TempDir()
	e2, _ := NewEngine(filepath.Join(dir2, "state.json"))
	e2.SetCache(cache)
	var execs2 int
	final2 := chainTasks(t, e2, dir2, depth, &execs2)
	if err := e2.RunMany([]string{final2}, 2); err != nil {
		t.Fatal(err)
	}
	if execs2 != 0 {
		t.Fatalf("warm rebuild executed %d actions, want 0 (pure restore)", execs2)
	}
	if len(e2.Restored) != depth {
		t.Fatalf("restored %v, want %d tasks", e2.Restored, depth)
	}
	for i := 0; i < depth; i++ {
		p := filepath.Join(dir2, fmt.Sprintf("a%d.out", i))
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("content of a%d", i); string(data) != want {
			t.Fatalf("%s = %q, want %q", p, data, want)
		}
	}

	// Third rebuild in place: everything up to date, nothing restored.
	e3, _ := NewEngine(filepath.Join(dir2, "state.json"))
	e3.SetCache(cache)
	var execs3 int
	final3 := chainTasks(t, e3, dir2, depth, &execs3)
	if err := e3.RunMany([]string{final3}, 2); err != nil {
		t.Fatal(err)
	}
	if execs3 != 0 || len(e3.Restored) != 0 || len(e3.Skipped) != depth {
		t.Fatalf("in-place rebuild: execs=%d restored=%v skipped=%v", execs3, e3.Restored, e3.Skipped)
	}
}

// The serial Run path takes the same cache branch as RunMany.
func TestCacheRestoreSerialRun(t *testing.T) {
	cache := testCache(t)
	dir1 := t.TempDir()
	e1, _ := NewEngine("")
	e1.SetCache(cache)
	var execs1 int
	final := chainTasks(t, e1, dir1, 2, &execs1)
	if _, err := e1.Run(final); err != nil {
		t.Fatal(err)
	}

	dir2 := t.TempDir()
	e2, _ := NewEngine("")
	e2.SetCache(cache)
	var execs2 int
	final2 := chainTasks(t, e2, dir2, 2, &execs2)
	ran, err := e2.Run(final2)
	if err != nil {
		t.Fatal(err)
	}
	if ran || execs2 != 0 {
		t.Fatalf("serial warm run: ran=%v execs=%d, want pure restore", ran, execs2)
	}
}

// A cache hit whose blob was corrupted falls back to executing the action.
func TestCorruptCacheFallsBackToExecution(t *testing.T) {
	store, err := cas.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cache := cas.NewCache(store, nil)

	dir1 := t.TempDir()
	e1, _ := NewEngine("")
	e1.SetCache(cache)
	var execs1 int
	chainTasks(t, e1, dir1, 1, &execs1)
	if _, err := e1.Run("a0"); err != nil {
		t.Fatal(err)
	}

	// Corrupt every blob in the store (replacing the files: each is also
	// the inode of a target in dir1).
	blobRoot := filepath.Join(store.Dir(), "blobs")
	filepath.Walk(blobRoot, func(path string, fi os.FileInfo, _ error) error {
		if fi != nil && !fi.IsDir() {
			if err := hostutil.WriteFileAtomic(path, []byte("garbage"), 0o444); err != nil {
				t.Fatal(err)
			}
		}
		return nil
	})

	dir2 := t.TempDir()
	e2, _ := NewEngine("")
	e2.SetCache(cache)
	var execs2 int
	chainTasks(t, e2, dir2, 1, &execs2)
	if _, err := e2.Run("a0"); err != nil {
		t.Fatal(err)
	}
	if execs2 != 1 {
		t.Fatalf("corrupt cache: executed %d, want 1 (fallback to action)", execs2)
	}
	if data, _ := os.ReadFile(filepath.Join(dir2, "a0.out")); string(data) != "content of a0" {
		t.Fatalf("fallback produced %q", data)
	}
}

// AlwaysRun and target-less tasks stay out of the action cache.
func TestSideEffectTasksNotCached(t *testing.T) {
	cache := testCache(t)
	e, _ := NewEngine("")
	e.SetCache(cache)
	runs := 0
	e.Register(&Task{Name: "host", ValueDeps: map[string]string{"v": "1"}, Action: func() error { runs++; return nil }})
	if _, err := e.Run("host"); err != nil {
		t.Fatal(err)
	}
	e2, _ := NewEngine("")
	e2.SetCache(cache)
	e2.Register(&Task{Name: "host", ValueDeps: map[string]string{"v": "1"}, Action: func() error { runs++; return nil }})
	if _, err := e2.Run("host"); err != nil {
		t.Fatal(err)
	}
	if runs != 2 {
		t.Fatalf("target-less task runs = %d, want 2 (never cache-satisfied)", runs)
	}
}

// ActionKeys exposes the live set for GC.
func TestActionKeysRecorded(t *testing.T) {
	cache := testCache(t)
	dir := t.TempDir()
	db := filepath.Join(dir, "state.json")
	e, _ := NewEngine(db)
	e.SetCache(cache)
	var execs int
	final := chainTasks(t, e, dir, 3, &execs)
	if err := e.RunMany([]string{final}, 2); err != nil {
		t.Fatal(err)
	}
	e2, _ := NewEngine(db)
	keys := e2.ActionKeys()
	if len(keys) != 3 {
		t.Fatalf("action keys %v, want 3", keys)
	}
}

// Wide fan-out under RunMany with a shared state DB: exercised for data
// races (run the package tests with -race; scripts/check.sh does).
func TestRunManyConcurrentStateAccess(t *testing.T) {
	cache := testCache(t)
	dir := t.TempDir()
	e, _ := NewEngine(filepath.Join(dir, "state.json"))
	e.SetCache(cache)
	root := filepath.Join(dir, "root.out")
	e.Register(&Task{
		Name:    "root",
		Targets: []string{root},
		Action:  func() error { return os.WriteFile(root, []byte("root"), 0o644) },
	})
	var finals []string
	const width = 32
	for i := 0; i < width; i++ {
		name := fmt.Sprintf("leaf%d", i)
		target := filepath.Join(dir, name+".out")
		e.Register(&Task{
			Name:      name,
			TaskDeps:  []string{"root"},
			FileDeps:  []string{root},
			ValueDeps: map[string]string{"leaf": name},
			Targets:   []string{target},
			Action:    func() error { return os.WriteFile(target, []byte(name), 0o644) },
		})
		finals = append(finals, name)
	}
	if err := e.RunMany(finals, 8); err != nil {
		t.Fatal(err)
	}
	if len(e.Executed) != width+1 {
		t.Fatalf("executed %d, want %d", len(e.Executed), width+1)
	}
	// Second pass: all leaves consult state concurrently while nothing runs.
	e2, _ := NewEngine(filepath.Join(dir, "state.json"))
	e2.SetCache(cache)
	e2.Register(&Task{Name: "root", Targets: []string{root}, Action: func() error { return os.WriteFile(root, []byte("root"), 0o644) }})
	for i := 0; i < width; i++ {
		name := fmt.Sprintf("leaf%d", i)
		target := filepath.Join(dir, name+".out")
		e2.Register(&Task{
			Name: name, TaskDeps: []string{"root"}, FileDeps: []string{root},
			ValueDeps: map[string]string{"leaf": name}, Targets: []string{target},
			Action: func() error { return os.WriteFile(target, []byte(name), 0o644) },
		})
	}
	if err := e2.RunMany(finals, 8); err != nil {
		t.Fatal(err)
	}
	if len(e2.Executed) != 0 {
		t.Fatalf("no-op pass executed %v", e2.Executed)
	}
}
