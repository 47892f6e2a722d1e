package dag

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"firemarshal/internal/cas"
	"firemarshal/internal/obs"
)

// fanTasks registers the shape of a workload build: a 4-deep chain
// c0 <- c1 <- c2 <- c3 and 8 leaves over c3, every task reading one small
// source file and its parent's target and writing a target of payloadBytes.
// It returns the leaf names and the total size of the source files.
func fanTasks(t *testing.T, e *Engine, dir string, payloadBytes int) (leaves []string, sourceBytes int64) {
	t.Helper()
	add := func(name, parent string) {
		src := filepath.Join(dir, name+".src")
		content := []byte("source of " + name + "\n")
		if err := os.WriteFile(src, content, 0o644); err != nil {
			t.Fatal(err)
		}
		sourceBytes += int64(len(content))
		target := filepath.Join(dir, name+".img")
		task := &Task{Name: name, FileDeps: []string{src}, Targets: []string{target}}
		if parent != "" {
			task.TaskDeps = []string{parent}
			task.FileDeps = append(task.FileDeps, filepath.Join(dir, parent+".img"))
		}
		task.Action = func() error {
			payload := bytes.Repeat([]byte{byte(len(name))}, payloadBytes)
			copy(payload, name)
			return os.WriteFile(target, payload, 0o644)
		}
		if err := e.Register(task); err != nil {
			t.Fatal(err)
		}
	}
	add("c0", "")
	for i := 1; i < 4; i++ {
		add(fmt.Sprintf("c%d", i), fmt.Sprintf("c%d", i-1))
	}
	for i := 0; i < 8; i++ {
		leaf := fmt.Sprintf("leaf%d", i)
		add(leaf, "c3")
		leaves = append(leaves, leaf)
	}
	return leaves, sourceBytes
}

// With a cache attached, the dependency tracker hashes no byte of any task
// target: the cache hashed each one when it published or restored it, and
// hands that digest to the tasks downstream. Only the source files are read —
// twice per executed task (for the action key, and again after the action,
// which may regenerate its own inputs), once per restored one.
func TestDepHashesReadNoTargetTheCacheHasSeen(t *testing.T) {
	const payload = 1 << 20
	hashed := func(reg *obs.Registry) int64 {
		return int64(reg.Snapshot().Counters["dag_dep_bytes_hashed_total"])
	}
	run := func(cache *cas.Cache) (*Engine, *obs.Registry, int64) {
		t.Helper()
		e, _ := NewEngine("")
		reg := obs.NewRegistry()
		e.SetObs(reg, nil)
		if cache != nil {
			e.SetCache(cache)
		}
		leaves, sourceBytes := fanTasks(t, e, t.TempDir(), payload)
		if err := e.RunMany(leaves, 2); err != nil {
			t.Fatal(err)
		}
		return e, reg, sourceBytes
	}

	cache := testCache(t)
	cold, reg, sourceBytes := run(cache)
	if len(cold.Executed) != 12 {
		t.Fatalf("cold build executed %v, want all 12 tasks", cold.Executed)
	}
	if got := hashed(reg); got != 2*sourceBytes {
		t.Errorf("cold build hashed %d dependency bytes, want the %d source bytes twice and no target", got, sourceBytes)
	}

	fresh, reg, sourceBytes := run(cache)
	if len(fresh.Executed) != 0 || len(fresh.Restored) != 12 {
		t.Fatalf("fresh checkout: executed %v restored %v, want 12 restores", fresh.Executed, fresh.Restored)
	}
	if got := hashed(reg); got != sourceBytes {
		t.Errorf("fresh-checkout restore hashed %d dependency bytes, want the %d source bytes once and no target", got, sourceBytes)
	}

	// The counter does count targets where they are hashed: with no cache
	// there is no digest to hand off, and all 11 parent images are read.
	_, reg, _ = run(nil)
	if got := hashed(reg); got < 11*payload {
		t.Errorf("cache-less build hashed %d dependency bytes, want at least the 11 parent images", got)
	}
}

// The action keys below were computed by the commit before digest hand-off
// existed, which read and hashed every dependency file. A handed-off digest
// must produce the same keys — otherwise every deployed cache goes cold — and
// a build made with hand-off must be fully restorable by a fresh engine and
// seen as up to date by one that hashes the files on disk.
func TestActionKeysAreStableAcrossHandoff(t *testing.T) {
	pinned := map[string]string{
		"a0": "364aae75f93d37467eaa221e1664eeaa6334e28ab0ea2147e1e936edf1010e92",
		"a1": "fae6d3fce356da851deaf575cd90f22ed92a2da5d7683d3cfa8e4075f8813ba2",
		"a2": "eba01622979fff2ebea410eeb956ae683f83d13a0ccbe2c9595da1814b708b9b",
	}
	cache := testCache(t)
	checkKeys := func(e *Engine, how string) {
		t.Helper()
		for name, want := range pinned {
			if got := e.state[name].ActionKey; got != want {
				t.Errorf("%s: action key of %s = %s, want the pinned %s", how, name, got, want)
			}
		}
	}

	dir := t.TempDir()
	built, _ := NewEngine(filepath.Join(dir, "state.json"))
	built.SetCache(cache)
	var execs int
	final := chainTasks(t, built, dir, 3, &execs)
	if err := built.RunMany([]string{final}, 1); err != nil {
		t.Fatal(err)
	}
	checkKeys(built, "built (digests handed off by Publish)")

	dir2 := t.TempDir()
	restored, _ := NewEngine("")
	restored.SetCache(cache)
	execs = 0
	if err := restored.RunMany([]string{chainTasks(t, restored, dir2, 3, &execs)}, 1); err != nil {
		t.Fatal(err)
	}
	if execs != 0 || len(restored.Restored) != 3 {
		t.Fatalf("fresh engine: %d executed, restored %v; want 0 and all 3", execs, restored.Restored)
	}
	checkKeys(restored, "restored (digests handed off by Restore)")

	// A later run starts with nothing handed off: it hashes the files on
	// disk and must find them equal to what the first run recorded.
	again, _ := NewEngine(filepath.Join(dir, "state.json"))
	again.SetCache(cache)
	if err := again.RunMany([]string{chainTasks(t, again, dir, 3, &execs)}, 1); err != nil {
		t.Fatal(err)
	}
	if execs != 0 || len(again.Skipped) != 3 {
		t.Fatalf("in-place rerun: %d executed, skipped %v; want 0 and all 3", execs, again.Skipped)
	}
}

// A digest handed off in one run is not trusted in the next: an edit made to
// a target between two runs of the same engine is seen.
func TestHandoffDoesNotOutliveItsRun(t *testing.T) {
	dir := t.TempDir()
	e, _ := NewEngine("")
	e.SetCache(testCache(t))
	var execs int
	final := chainTasks(t, e, dir, 2, &execs)
	if err := e.RunMany([]string{final}, 1); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "a0.out"), []byte("edited by hand"), 0o644); err != nil {
		t.Fatal(err)
	}
	execs = 0
	if err := e.RunMany([]string{final}, 1); err != nil {
		t.Fatal(err)
	}
	if execs != 1 {
		t.Errorf("after editing a0's target, %d actions ran, want a1 alone to rebuild", execs)
	}
}
