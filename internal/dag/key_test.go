package dag

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"firemarshal/internal/hostutil"
)

// concatTask registers a task whose target is its two file deps' bytes, in
// order.
func concatTask(t *testing.T, e *Engine, a, b, target string) {
	t.Helper()
	err := e.Register(&Task{Name: "cat", FileDeps: []string{a, b}, Targets: []string{target}, Action: func() error {
		var out []byte
		for _, dep := range []string{a, b} {
			data, err := os.ReadFile(dep)
			if err != nil {
				return err
			}
			out = append(out, data...)
		}
		return hostutil.WriteFileAtomic(target, out, 0o644)
	}})
	if err != nil {
		t.Fatal(err)
	}
}

// Two file deps that swap contents change the task's inputs even though the
// set of their digests is the same: the task runs, and is never restored
// from the entry the old inputs published.
func TestSwappedDepsRebuild(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a"), filepath.Join(dir, "b")
	target := filepath.Join(dir, "out")
	cache := testCache(t)
	build := func() *Engine {
		t.Helper()
		e, _ := NewEngine(filepath.Join(dir, "state.json"))
		e.SetCache(cache)
		concatTask(t, e, a, b, target)
		if _, err := e.Run("cat"); err != nil {
			t.Fatal(err)
		}
		return e
	}
	os.WriteFile(a, []byte("first,"), 0o644)
	os.WriteFile(b, []byte("second"), 0o644)
	build()
	os.WriteFile(a, []byte("second"), 0o644)
	os.WriteFile(b, []byte("first,"), 0o644)
	e := build()
	if len(e.Executed) != 1 {
		t.Errorf("after the swap executed %v, restored %v; want the task to run", e.Executed, e.Restored)
	}
	if data, _ := os.ReadFile(target); string(data) != "secondfirst," {
		t.Errorf("after the swap the target holds %q, want %q", data, "secondfirst,")
	}
}

// A build in which one task fails still records the tasks that succeeded:
// once the failure is fixed, the next build skips them.
func TestFailedBuildKeepsWhatSucceeded(t *testing.T) {
	dir := t.TempDir()
	db := filepath.Join(dir, "state.json")
	fail := true
	var runsA int
	build := func() error {
		e, _ := NewEngine(db)
		e.Register(testTask(t, "a", nil, filepath.Join(dir, "a.out"), &runsA))
		outB := filepath.Join(dir, "b.out")
		e.Register(&Task{Name: "b", TaskDeps: []string{"a"}, Targets: []string{outB}, Action: func() error {
			if fail {
				return errors.New("broken")
			}
			return os.WriteFile(outB, []byte("b"), 0o644)
		}})
		return e.RunMany([]string{"b"}, 1)
	}
	if build() == nil {
		t.Fatal("the build with b broken succeeded")
	}
	fail = false
	if err := build(); err != nil {
		t.Fatal(err)
	}
	if runsA != 1 {
		t.Errorf("a ran %d times, want once: its success was not recorded when b failed", runsA)
	}
}

// A task whose action failed is not up to date with the inputs it last
// succeeded with: the failed attempt may have changed what it makes, so
// putting those inputs back runs it again.
func TestFailedTaskIsNotUpToDate(t *testing.T) {
	dir := t.TempDir()
	dep := filepath.Join(dir, "dep")
	var runs int
	build := func(content string) error {
		if err := os.WriteFile(dep, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		e, _ := NewEngine(filepath.Join(dir, "state.json"))
		task := testTask(t, "t", []string{dep}, filepath.Join(dir, "out"), &runs)
		write := task.Action
		task.Action = func() error {
			if err := write(); err != nil {
				return err
			}
			if content == "broken" {
				return errors.New("broken")
			}
			return nil
		}
		e.Register(task)
		_, err := e.Run("t")
		return err
	}
	if err := build("good"); err != nil {
		t.Fatal(err)
	}
	if build("broken") == nil {
		t.Fatal("the broken build succeeded")
	}
	if err := build("good"); err != nil {
		t.Fatal(err)
	}
	if runs != 3 {
		t.Errorf("the action ran %d times, want 3: the build after the failure was skipped", runs)
	}
}

// Whatever bytes the state DB holds, the engine opens, and a build over them
// leaves the targets a build with no DB leaves: a corrupt DB may cost runs,
// never a skip. A second build, after an input changed, reads back what the
// first saved over those bytes and must follow the change too.
func FuzzStateDB(f *testing.F) {
	f.Add([]byte(``))
	f.Add([]byte(`{not json`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"tasks":{"cat":"00"},"files":[{"dev":1,"ino":2,"size":3,"mtime":4,"ctime":5,"digest":"x"}]}`))
	f.Add([]byte(`{"tasks":{"cat":""},"files":null}`))
	f.Add([]byte(`{"":{"files":[]},"cat":{"depHashes":{},"valueHashes":{},"targetsSeen":[],"actionKey":"00"}}`))
	f.Add([]byte(`{"tasks":[],"files":{}}`))
	f.Fuzz(func(t *testing.T, db []byte) {
		dir := t.TempDir()
		a, b := filepath.Join(dir, "a"), filepath.Join(dir, "b")
		target := filepath.Join(dir, "out")
		state := filepath.Join(dir, "state.json")
		if err := os.WriteFile(state, db, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{"v1|w1", "v2|w1"} {
			os.WriteFile(a, []byte(want[:3]), 0o644)
			os.WriteFile(b, []byte(want[3:]), 0o644)
			e, err := NewEngine(state)
			if err != nil {
				t.Fatalf("NewEngine over %q: %v", db, err)
			}
			concatTask(t, e, a, b, target)
			if _, err := e.Run("cat"); err != nil {
				t.Fatal(err)
			}
			if data, _ := os.ReadFile(target); string(data) != want {
				t.Fatalf("over the state DB %q the target holds %q, want %q", db, data, want)
			}
		}
	})
}
