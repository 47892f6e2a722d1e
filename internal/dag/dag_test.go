package dag

import (
	"os"
	"path/filepath"
	"testing"
)

// testTask returns a task that writes counter-stamped output to target.
func testTask(t *testing.T, name string, deps []string, target string, count *int) *Task {
	t.Helper()
	return &Task{
		Name:     name,
		FileDeps: deps,
		Targets:  []string{target},
		Action: func() error {
			*count++
			return os.WriteFile(target, []byte(name), 0o644)
		},
	}
}

func TestRunsOnceThenSkips(t *testing.T) {
	dir := t.TempDir()
	dep := filepath.Join(dir, "dep.txt")
	os.WriteFile(dep, []byte("v1"), 0o644)
	target := filepath.Join(dir, "out.txt")
	db := filepath.Join(dir, "state.json")

	count := 0
	for i := 0; i < 3; i++ {
		e, err := NewEngine(db)
		if err != nil {
			t.Fatal(err)
		}
		e.Register(testTask(t, "build", []string{dep}, target, &count))
		ran, err := e.Run("build")
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 && !ran {
			t.Error("first run should execute")
		}
		if i > 0 && ran {
			t.Errorf("run %d should have been skipped", i)
		}
	}
	if count != 1 {
		t.Errorf("action executed %d times, want 1", count)
	}
}

func TestRerunsOnDepChange(t *testing.T) {
	dir := t.TempDir()
	dep := filepath.Join(dir, "dep.txt")
	os.WriteFile(dep, []byte("v1"), 0o644)
	target := filepath.Join(dir, "out.txt")
	db := filepath.Join(dir, "state.json")

	count := 0
	run := func() bool {
		e, _ := NewEngine(db)
		e.Register(testTask(t, "build", []string{dep}, target, &count))
		ran, err := e.Run("build")
		if err != nil {
			t.Fatal(err)
		}
		return ran
	}
	run()
	os.WriteFile(dep, []byte("v2"), 0o644)
	if !run() {
		t.Error("dep change should trigger rerun")
	}
	if count != 2 {
		t.Errorf("count = %d", count)
	}
}

func TestContentHashNotTimestamp(t *testing.T) {
	dir := t.TempDir()
	dep := filepath.Join(dir, "dep.txt")
	os.WriteFile(dep, []byte("same"), 0o644)
	target := filepath.Join(dir, "out.txt")
	db := filepath.Join(dir, "state.json")

	count := 0
	e, _ := NewEngine(db)
	e.Register(testTask(t, "build", []string{dep}, target, &count))
	e.Run("build")

	// Rewrite the dep with identical content (new mtime).
	os.WriteFile(dep, []byte("same"), 0o644)
	e2, _ := NewEngine(db)
	e2.Register(testTask(t, "build", []string{dep}, target, &count))
	ran, _ := e2.Run("build")
	if ran {
		t.Error("touching a dep without content change must not rebuild")
	}
}

func TestMissingTargetForcesRun(t *testing.T) {
	dir := t.TempDir()
	dep := filepath.Join(dir, "dep.txt")
	os.WriteFile(dep, []byte("v"), 0o644)
	target := filepath.Join(dir, "out.txt")
	db := filepath.Join(dir, "state.json")

	count := 0
	e, _ := NewEngine(db)
	e.Register(testTask(t, "build", []string{dep}, target, &count))
	e.Run("build")
	os.Remove(target)
	e2, _ := NewEngine(db)
	e2.Register(testTask(t, "build", []string{dep}, target, &count))
	ran, _ := e2.Run("build")
	if !ran || count != 2 {
		t.Errorf("ran=%v count=%d, want rerun after target removal", ran, count)
	}
}

func TestValueDepChange(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "out.txt")
	db := filepath.Join(dir, "state.json")

	count := 0
	run := func(cfg string) bool {
		e, _ := NewEngine(db)
		task := testTask(t, "build", nil, target, &count)
		task.ValueDeps = map[string]string{"config": cfg}
		e.Register(task)
		ran, err := e.Run("build")
		if err != nil {
			t.Fatal(err)
		}
		return ran
	}
	run("a")
	if run("a") {
		t.Error("unchanged value dep must skip")
	}
	if !run("b") {
		t.Error("changed value dep must rerun")
	}
}

func TestTaskDepCascade(t *testing.T) {
	dir := t.TempDir()
	dep := filepath.Join(dir, "src.txt")
	os.WriteFile(dep, []byte("v1"), 0o644)
	parentOut := filepath.Join(dir, "parent.img")
	childOut := filepath.Join(dir, "child.img")
	db := filepath.Join(dir, "state.json")

	var parents, children int
	build := func() (bool, bool) {
		e, _ := NewEngine(db)
		e.Register(testTask(t, "parent", []string{dep}, parentOut, &parents))
		child := testTask(t, "child", []string{parentOut}, childOut, &children)
		child.TaskDeps = []string{"parent"}
		e.Register(child)
		e.Run("child")
		pr := contains(e.Executed, "parent")
		cr := contains(e.Executed, "child")
		return pr, cr
	}
	build()
	if parents != 1 || children != 1 {
		t.Fatalf("initial build: parents=%d children=%d", parents, children)
	}
	// No changes: both skipped.
	pr, cr := build()
	if pr || cr {
		t.Error("no-op rebuild should skip both tasks")
	}
	// Parent dep changes: both rebuild (child because upstream ran).
	os.WriteFile(dep, []byte("v2"), 0o644)
	pr, cr = build()
	if !pr || !cr {
		t.Errorf("cascade failed: parent=%v child=%v", pr, cr)
	}
}

func TestDeepChainOnlyDirtySuffixRuns(t *testing.T) {
	// Models a deep inheritance hierarchy: change a leaf-only input and
	// confirm ancestors are skipped.
	dir := t.TempDir()
	db := filepath.Join(dir, "state.json")
	leafDep := filepath.Join(dir, "leaf.cfg")
	os.WriteFile(leafDep, []byte("v1"), 0o644)

	counts := make([]int, 5)
	build := func() *Engine {
		e, _ := NewEngine(db)
		var prevTarget, prevName string
		for i := 0; i < 5; i++ {
			i := i
			name := string(rune('a' + i))
			target := filepath.Join(dir, name+".img")
			task := &Task{
				Name:    name,
				Targets: []string{target},
				Action: func() error {
					counts[i]++
					return os.WriteFile(target, []byte(name), 0o644)
				},
			}
			if prevName != "" {
				task.TaskDeps = []string{prevName}
				task.FileDeps = []string{prevTarget}
			}
			if i == 4 {
				task.FileDeps = append(task.FileDeps, leafDep)
			}
			e.Register(task)
			prevTarget, prevName = target, name
		}
		e.Run("e")
		return e
	}
	build()
	os.WriteFile(leafDep, []byte("v2"), 0o644)
	e := build()
	if !contains(e.Executed, "e") {
		t.Error("leaf must rebuild")
	}
	for _, name := range []string{"a", "b", "c", "d"} {
		if contains(e.Executed, name) {
			t.Errorf("ancestor %s rebuilt unnecessarily", name)
		}
	}
}

func TestCycleDetection(t *testing.T) {
	e, _ := NewEngine("")
	e.Register(&Task{Name: "a", TaskDeps: []string{"b"}, Action: func() error { return nil }})
	e.Register(&Task{Name: "b", TaskDeps: []string{"a"}, Action: func() error { return nil }})
	if _, err := e.Run("a"); err == nil {
		t.Error("expected cycle error")
	}
}

func TestUnknownTask(t *testing.T) {
	e, _ := NewEngine("")
	if _, err := e.Run("nope"); err == nil {
		t.Error("expected unknown task error")
	}
}

func TestDuplicateRegistration(t *testing.T) {
	e, _ := NewEngine("")
	e.Register(&Task{Name: "x"})
	if err := e.Register(&Task{Name: "x"}); err == nil {
		t.Error("expected duplicate task error")
	}
}

func TestActionFailurePropagates(t *testing.T) {
	dir := t.TempDir()
	e, _ := NewEngine(filepath.Join(dir, "db.json"))
	e.Register(&Task{
		Name:    "boom",
		Targets: []string{filepath.Join(dir, "never")},
		Action:  func() error { return os.ErrPermission },
	})
	if _, err := e.Run("boom"); err == nil {
		t.Error("expected action error")
	}
	// State must not record a failed task as done.
	e2, _ := NewEngine(filepath.Join(dir, "db.json"))
	ok := false
	e2.Register(&Task{
		Name:    "boom",
		Targets: []string{filepath.Join(dir, "out")},
		Action: func() error {
			ok = true
			return os.WriteFile(filepath.Join(dir, "out"), nil, 0o644)
		},
	})
	e2.Run("boom")
	if !ok {
		t.Error("failed task was cached as successful")
	}
}

func TestMissingTargetAfterActionIsError(t *testing.T) {
	e, _ := NewEngine("")
	e.Register(&Task{
		Name:    "liar",
		Targets: []string{"/nonexistent/target/file"},
		Action:  func() error { return nil },
	})
	if _, err := e.Run("liar"); err == nil {
		t.Error("expected missing-target error")
	}
}

func TestCorruptStateDBDegradesToRebuild(t *testing.T) {
	dir := t.TempDir()
	db := filepath.Join(dir, "state.json")
	os.WriteFile(db, []byte("{not json"), 0o644)
	e, err := NewEngine(db)
	if err != nil {
		t.Fatalf("corrupt DB should not be fatal: %v", err)
	}
	count := 0
	target := filepath.Join(dir, "out")
	e.Register(testTask(t, "t", nil, target, &count))
	ran, err := e.Run("t")
	if err != nil || !ran {
		t.Errorf("ran=%v err=%v", ran, err)
	}
}

func TestForget(t *testing.T) {
	dir := t.TempDir()
	db := filepath.Join(dir, "db.json")
	count := 0
	target := filepath.Join(dir, "out")
	e, _ := NewEngine(db)
	e.Register(testTask(t, "t", nil, target, &count))
	e.Run("t")
	e.Forget("t")

	e2, _ := NewEngine(db)
	e2.Register(testTask(t, "t", nil, target, &count))
	ran, _ := e2.Run("t")
	if !ran {
		t.Error("Forget should force a rebuild")
	}
}

func TestDirectoryDep(t *testing.T) {
	dir := t.TempDir()
	overlay := filepath.Join(dir, "overlay")
	os.MkdirAll(filepath.Join(overlay, "sub"), 0o755)
	os.WriteFile(filepath.Join(overlay, "sub", "f"), []byte("1"), 0o644)
	db := filepath.Join(dir, "db.json")
	target := filepath.Join(dir, "out")

	count := 0
	run := func() bool {
		e, _ := NewEngine(db)
		e.Register(testTask(t, "t", []string{overlay}, target, &count))
		ran, _ := e.Run("t")
		return ran
	}
	run()
	if run() {
		t.Error("unchanged dir dep must skip")
	}
	os.WriteFile(filepath.Join(overlay, "sub", "g"), []byte("2"), 0o644)
	if !run() {
		t.Error("new file in dir dep must rebuild")
	}
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}
