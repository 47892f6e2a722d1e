package dag

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"firemarshal/internal/cas"
	"firemarshal/internal/hostutil"
	"firemarshal/internal/obs"
)

// fanTasks registers the shape of a workload build: a 4-deep chain
// c0 <- c1 <- c2 <- c3 and 8 leaves over c3, every task reading one small
// source file and its parent's target and writing a target of payloadBytes.
// A source file already in dir is left as it is. It returns the leaf names
// and the total size of the source files.
func fanTasks(t *testing.T, e *Engine, dir string, payloadBytes int) (leaves []string, sourceBytes int64) {
	t.Helper()
	add := func(name, parent string) {
		src := filepath.Join(dir, name+".src")
		content := []byte("source of " + name + "\n")
		if _, err := os.Stat(src); err != nil {
			if err := os.WriteFile(src, content, 0o644); err != nil {
				t.Fatal(err)
			}
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
			return hostutil.WriteFileAtomic(target, payload, 0o644)
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

func bytesHashed(reg *obs.Registry) int64 {
	return int64(reg.Snapshot().Counters["dag_dep_bytes_hashed_total"])
}

// settle waits out a coarse file-system clock tick, so that a file changed
// before the call is recorded when it is next hashed. On a file system with
// coarse timestamps a file hashed in the tick it changed in is racily clean
// and not recorded (see hostutil's digest cache).
func settle() { time.Sleep(25 * time.Millisecond) }

// fineTimestamps reports whether dir's file system stamps two writes a
// moment apart with different times, as one with multigrain timestamps
// does. Only then is a file's digest recorded in the tick the file was
// written or placed in; with coarse timestamps it is read once more later.
func fineTimestamps(t *testing.T, dir string) bool {
	t.Helper()
	f, err := os.CreateTemp(dir, "stamped-")
	if err != nil {
		t.Fatal(err)
	}
	defer os.Remove(f.Name())
	defer f.Close()
	for i := 0; i < 3; i++ {
		before, err := f.Stat()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte{byte(i)}, 0); err != nil {
			t.Fatal(err)
		}
		after, err := f.Stat()
		if err != nil {
			t.Fatal(err)
		}
		if !after.ModTime().After(before.ModTime()) {
			return false
		}
	}
	return true
}

// With a cache attached the dependency tracker hashes no byte of any task
// target — Publish hashed each one as it filed it, Restore verified each one
// as it placed it, and the digest cache answers for them — and each source
// file once: the look after the action finds its stat unchanged. A no-op
// rebuild reads no dependency byte at all. The counts of the builds that
// write or place files hold where timestamps are fine-grained; with coarse
// ones a file is not recorded in its own tick and is read once more.
func TestDepHashesReadNoTargetTheCacheHasSeen(t *testing.T) {
	const payload = 1 << 20
	run := func(cache *cas.Cache, dir string, workers int) (*Engine, int64, int64) {
		t.Helper()
		e, err := NewEngine(filepath.Join(dir, "state.json"))
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		e.SetObs(reg, nil)
		if cache != nil {
			e.SetCache(cache)
		}
		leaves, sourceBytes := fanTasks(t, e, dir, payload)
		if err := e.RunMany(leaves, workers); err != nil {
			t.Fatal(err)
		}
		return e, bytesHashed(reg), sourceBytes
	}

	cache := testCache(t)
	dir := t.TempDir()
	fine := fineTimestamps(t, dir)
	if !fine {
		t.Log("coarse timestamps here: only the no-op rebuilds' counts are checked")
	}
	cold, got, sourceBytes := run(cache, dir, 2)
	if len(cold.Executed) != 12 {
		t.Fatalf("cold build executed %v, want all 12 tasks", cold.Executed)
	}
	if fine && got != sourceBytes {
		t.Errorf("cold build hashed %d dependency bytes, want the %d source bytes once and no target", got, sourceBytes)
	}

	settle()
	if noop, got, _ := run(cache, dir, 2); len(noop.Executed)+len(noop.Restored) != 0 {
		t.Fatalf("first no-op rebuild executed %v, restored %v", noop.Executed, noop.Restored)
	} else {
		t.Logf("first no-op rebuild hashed %d dependency bytes", got)
	}
	if noop, got, _ := run(cache, dir, 2); len(noop.Skipped) != 12 || got != 0 {
		t.Errorf("no-op rebuild skipped %d tasks and hashed %d dependency bytes, want 12 and none", len(noop.Skipped), got)
	}

	fresh, got, sourceBytes := run(cache, t.TempDir(), 2)
	if len(fresh.Executed) != 0 || len(fresh.Restored) != 12 {
		t.Fatalf("fresh checkout: executed %v restored %v, want 12 restores", fresh.Executed, fresh.Restored)
	}
	if fine && got != sourceBytes {
		t.Errorf("fresh-checkout restore hashed %d dependency bytes, want the %d source bytes once and no target", got, sourceBytes)
	}

	// The counter does count targets where they are hashed: with no cache
	// nothing published them, and each of the four parent images is read by
	// the first task that depends on it (one worker: no two race to).
	if _, got, sourceBytes := run(nil, t.TempDir(), 1); fine && got != sourceBytes+4*payload {
		t.Errorf("cache-less build hashed %d dependency bytes, want the sources and the 4 parent images once: %d", got, sourceBytes+4*payload)
	}
}

// The action keys below are pinned: they were computed when the key took
// its present form ("task/2": file deps in their position, with exec bits).
// The key is the same whether a digest came from Publish, Restore or a read
// of the file — otherwise every deployed cache goes cold — and a build made
// with it must be fully restorable by a fresh engine and seen as up to date
// by one that reads its state back. Only a deliberate key change re-pins
// them.
func TestActionKeysAreStableAcrossHandoff(t *testing.T) {
	pinned := map[string]string{
		"a0": "55bb2b6922d8fd29a61efc43955576bb78738fd78aa8ca77c3747ad8e7626258",
		"a1": "fd25914601b198a2276dcff0d1fc1bb154205c345b21655f190d9785a3a5ce25",
		"a2": "a9c4dc02d870da33f9ba19fe2d00d3bc048ad7b2e54fe47d679a80be88ea8939",
	}
	cache := testCache(t)
	checkKeys := func(e *Engine, how string) {
		t.Helper()
		for name, want := range pinned {
			if got := e.keys[name]; got != want {
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
	checkKeys(built, "built (digests recorded by Publish)")

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
	checkKeys(restored, "restored (digests recorded by Restore)")

	again, _ := NewEngine(filepath.Join(dir, "state.json"))
	again.SetCache(cache)
	if err := again.RunMany([]string{chainTasks(t, again, dir, 3, &execs)}, 1); err != nil {
		t.Fatal(err)
	}
	if execs != 0 || len(again.Skipped) != 3 {
		t.Fatalf("in-place rerun: %d executed, skipped %v; want 0 and all 3", execs, again.Skipped)
	}
}

// A recorded digest never outlives its stat: an artifact replaced by rename,
// or rewritten in place by a user who first gave it back its write bits, is
// read again, and the task downstream of it rebuilds — in the same engine,
// whose entries were recorded in this process, and in a fresh one reading
// them back from the state DB.
func TestRecordedDigestNeverOutlivesItsStat(t *testing.T) {
	for _, persisted := range []bool{false, true} {
		dir := t.TempDir()
		db := ""
		if persisted {
			db = filepath.Join(dir, "state.json")
		}
		cache := testCache(t)
		e, _ := NewEngine(db)
		e.SetCache(cache)
		var execs int
		final := chainTasks(t, e, dir, 2, &execs)
		if err := e.RunMany([]string{final}, 1); err != nil {
			t.Fatal(err)
		}
		a0 := filepath.Join(dir, "a0.out")
		for _, edit := range []struct {
			how string
			do  func() error
		}{
			{"replaced by rename", func() error { return hostutil.WriteFileAtomic(a0, []byte("edited by hand"), 0o644) }},
			{"rewritten in place", func() error {
				if err := os.Chmod(a0, 0o644); err != nil {
					return err
				}
				return os.WriteFile(a0, []byte("EDITED BY HAND"), 0o644)
			}},
		} {
			if err := edit.do(); err != nil {
				t.Fatal(err)
			}
			if persisted {
				e, _ = NewEngine(db)
				e.SetCache(cache)
				final = chainTasks(t, e, dir, 2, &execs)
			}
			execs = 0
			if err := e.RunMany([]string{final}, 1); err != nil {
				t.Fatal(err)
			}
			if execs != 1 || !reflect.DeepEqual(e.Executed[len(e.Executed)-1:], []string{"a1"}) {
				t.Errorf("persisted=%v: after a0's target was %s, %d actions ran (%v), want a1 alone to rebuild", persisted, edit.how, execs, e.Executed)
			}
		}
	}
}

// depTask registers one cache-less task reading dep and writing target.
func depTask(t *testing.T, dir, dep string, execs *int) (*Engine, *obs.Registry) {
	t.Helper()
	e, err := NewEngine(filepath.Join(dir, "state.json"))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	e.SetObs(reg, nil)
	target := filepath.Join(dir, "out")
	e.Register(&Task{Name: "t", FileDeps: []string{dep}, Targets: []string{target}, Action: func() error {
		*execs++
		data, err := os.ReadFile(dep)
		if err != nil {
			return err
		}
		return hostutil.WriteFileAtomic(target, data, 0o644)
	}})
	return e, reg
}

// Every way a dependency's bytes can change under the digest cache makes the
// task run again; a change of its metadata alone costs one read and no run.
// The dependency is settled before the first build, so that build records
// it, and each edit follows that build at once. (With coarse timestamps the
// edited file shares its tick with the rebuild's first look, is not
// recorded, and is read again after the action.)
func TestDigestCacheSoundness(t *testing.T) {
	fine := fineTimestamps(t, t.TempDir())
	for _, c := range []struct {
		name    string
		edit    func(t *testing.T, dep string)
		rebuild bool
	}{
		{"in-place edit keeping the size, right after the build", func(t *testing.T, dep string) {
			if err := os.WriteFile(dep, []byte("version 2"), 0o644); err != nil {
				t.Fatal(err)
			}
		}, true},
		{"edit with the old mtime put back", func(t *testing.T, dep string) {
			fi, err := os.Stat(dep)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(dep, []byte("version 2"), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.Chtimes(dep, fi.ModTime(), fi.ModTime()); err != nil {
				t.Fatal(err)
			}
		}, true},
		{"replaced by rename", func(t *testing.T, dep string) {
			if err := hostutil.WriteFileAtomic(dep, []byte("version 2"), 0o644); err != nil {
				t.Fatal(err)
			}
		}, true},
		{"chmod alone", func(t *testing.T, dep string) {
			if err := os.Chmod(dep, 0o600); err != nil {
				t.Fatal(err)
			}
		}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			dep := filepath.Join(dir, "dep")
			if err := os.WriteFile(dep, []byte("version 1"), 0o644); err != nil {
				t.Fatal(err)
			}
			settle()
			var execs int
			e, reg := depTask(t, dir, dep, &execs)
			if _, err := e.Run("t"); err != nil {
				t.Fatal(err)
			}
			if got := bytesHashed(reg); got != int64(len("version 1")) {
				t.Fatalf("the first build read the dependency for %d bytes, want once: it was settled", got)
			}
			c.edit(t, dep)
			e, reg = depTask(t, dir, dep, &execs)
			ran, err := e.Run("t")
			if err != nil {
				t.Fatal(err)
			}
			if ran != c.rebuild {
				t.Errorf("after the %s the task ran = %v, want %v", c.name, ran, c.rebuild)
			}
			if got := bytesHashed(reg); got < int64(len("version 1")) || fine && got != int64(len("version 1")) {
				t.Errorf("after the %s the dependency was read for %d bytes, want once: %d", c.name, got, len("version 1"))
			}
			if data, _ := os.ReadFile(filepath.Join(dir, "out")); c.rebuild && string(data) != "version 2" {
				t.Errorf("after the %s the target holds %q", c.name, data)
			}
		})
	}
}

// A state DB without its digest table ("files") is read as it always was:
// every dependency is hashed, and the decisions are the ones a DB with the
// table gives.
func TestStateDBWithoutDigestTable(t *testing.T) {
	decisions := func(strip bool) [][]string {
		dir := t.TempDir()
		db := filepath.Join(dir, "state.json")
		var out [][]string
		build := func() {
			t.Helper()
			if strip {
				data, err := os.ReadFile(db)
				if err == nil {
					var doc map[string]json.RawMessage
					if err := json.Unmarshal(data, &doc); err != nil {
						t.Fatal(err)
					}
					if _, ok := doc["files"]; !ok {
						t.Fatal("the state DB has no digest table to strip")
					}
					delete(doc, "files")
					data, _ = json.Marshal(doc)
					if err := os.WriteFile(db, data, 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}
			e, _ := NewEngine(db)
			leaves, _ := fanTasks(t, e, dir, 64)
			if err := e.RunMany(leaves, 1); err != nil {
				t.Fatal(err)
			}
			ran := append([]string(nil), e.Executed...)
			sort.Strings(ran)
			out = append(out, ran)
		}
		build()
		build()
		if err := os.WriteFile(filepath.Join(dir, "c2.src"), []byte("source of c2, edited\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		build()
		build()
		return out
	}
	with, without := decisions(false), decisions(true)
	if !reflect.DeepEqual(with, without) {
		t.Errorf("executed per build with the digest table %v, without it %v", with, without)
	}
	if len(with[1]) != 0 || len(with[2]) != 10 || len(with[3]) != 0 {
		t.Errorf("executed per build %v, want all, none, c2 and below (10), none", with)
	}
}
