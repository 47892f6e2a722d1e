package cas

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"firemarshal/internal/hostutil"
)

// Store layout v3: the action log shared between handles and processes,
// its salvaging reader, compaction, and the one-shot migration.

const (
	helperEnv     = "CAS_TEST_APPEND_HELPER" // "<store dir>:<process id>"
	helperRecords = 200
)

// TestMain lets the test binary re-exec itself as an appender process: the
// log's promises are between processes, which goroutines cannot stand in
// for (a process has its own descriptors, index and flock).
func TestMain(m *testing.M) {
	if spec := os.Getenv(helperEnv); spec != "" {
		os.Exit(appendHelper(spec))
	}
	os.Exit(m.Run())
}

func helperAction(proc, i int) *Action {
	data := fmt.Sprintf("process %d artifact %d", proc, i)
	return &Action{
		Key:     hostutil.HashBytes([]byte(fmt.Sprintf("process %d task %d", proc, i))),
		Task:    fmt.Sprintf("stress:%d/%d", proc, i),
		Outputs: []Output{{Name: "out", Digest: hostutil.HashBytes([]byte(data)), Mode: 0o644, Size: int64(len(data))}},
	}
}

// appendHelper opens the store, says so, waits for its stdin to close (the
// start signal, so both helpers append at once) and appends its records.
func appendHelper(spec string) int {
	dir, id, _ := strings.Cut(spec, ":")
	var proc int
	fmt.Sscan(id, &proc)
	s, err := Open(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "helper:", err)
		return 1
	}
	fmt.Println("ready")
	io.Copy(io.Discard, os.Stdin)
	for i := 0; i < helperRecords; i++ {
		if err := s.PutAction(helperAction(proc, i)); err != nil {
			fmt.Fprintln(os.Stderr, "helper:", err)
			return 1
		}
	}
	return 0
}

// startAppenders starts two helper processes on dir and returns once both
// have the store open; release starts their appends and wait collects them.
func startAppenders(t *testing.T, dir string) (release func(), wait func()) {
	t.Helper()
	var cmds []*exec.Cmd
	var stdins []io.Closer
	for proc := 0; proc < 2; proc++ {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%s:%d", helperEnv, dir, proc))
		cmd.Stderr = os.Stderr
		in, err := cmd.StdinPipe()
		if err != nil {
			t.Fatal(err)
		}
		out, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		if line, err := bufio.NewReader(out).ReadString('\n'); err != nil || line != "ready\n" {
			t.Fatalf("helper %d did not come up: %q, %v", proc, line, err)
		}
		cmds, stdins = append(cmds, cmd), append(stdins, in)
	}
	release = func() {
		for _, in := range stdins {
			in.Close()
		}
	}
	wait = func() {
		for proc, cmd := range cmds {
			if err := cmd.Wait(); err != nil {
				t.Errorf("helper %d: %v", proc, err)
			}
		}
	}
	return release, wait
}

// checkHelperRecords: every record both helpers appended is in s, intact.
func checkHelperRecords(t *testing.T, s *Store) {
	t.Helper()
	for proc := 0; proc < 2; proc++ {
		for i := 0; i < helperRecords; i++ {
			want := helperAction(proc, i)
			got, err := s.GetAction(want.Key)
			if err != nil {
				t.Errorf("process %d record %d: %v", proc, i, err)
			} else if !reflect.DeepEqual(got, want) {
				t.Errorf("process %d record %d came back as %+v", proc, i, got)
			}
		}
	}
}

// TestActionLogSharedByProcesses: two processes append 200 records each to
// one store while a third handle reads. Every record is found and none is
// torn; the reading handle was opened before any append, so it finds them
// by folding the file in on a miss.
func TestActionLogSharedByProcesses(t *testing.T) {
	dir := t.TempDir()
	reader, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	release, wait := startAppenders(t, dir)
	done := make(chan struct{})
	go func() { wait(); close(done) }()
	release()
	for i, appending := 0, true; appending; i++ {
		// Read while they write: a record is absent or whole, never partial.
		want := helperAction(i%2, i/2%helperRecords)
		if got, err := reader.GetAction(want.Key); err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("read during the appends: %+v, want %+v", got, want)
		} else if err != nil && !errors.Is(err, ErrNotFound) {
			t.Fatal(err)
		}
		select {
		case <-done:
			appending = false
		default:
		}
	}
	checkHelperRecords(t, reader)
	if torn, err := reader.log.check(); err != nil || torn != nil {
		t.Fatalf("interleaved appends tore the log: %v, %v", torn, err)
	}
	if u, _ := reader.Usage(); u.Actions != 2*helperRecords {
		t.Fatalf("%d actions, want %d", u.Actions, 2*helperRecords)
	}
}

// TestCompactionLosesNoConcurrentAppend: a collector compacts the log over
// and over — each round has a dead record to drop — while two processes
// and a second handle in this one append. The appenders' keys are live, so
// whether a record was in a round's snapshot or appended after it, it must
// be there at the end.
func TestCompactionLosesNoConcurrentAppend(t *testing.T) {
	dir := t.TempDir()
	collector, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	other, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	live := map[string]bool{}
	for proc := 0; proc < 3; proc++ {
		for i := 0; i < helperRecords; i++ {
			live[helperAction(proc, i).Key] = true
		}
	}
	release, wait := startAppenders(t, dir)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < helperRecords; i++ {
			if err := other.PutAction(helperAction(2, i)); err != nil {
				t.Error(err)
				return
			}
		}
		wait()
	}()
	release()
	compactions, rounds := 0, 0
	for appending := true; appending; rounds++ {
		dead := &Action{Key: hostutil.HashBytes([]byte(fmt.Sprintf("dead %d", rounds))), Task: "dead"}
		if err := collector.PutAction(dead); err != nil {
			t.Fatal(err)
		}
		st, err := collector.GC(live, nil)
		if err != nil {
			t.Fatal(err)
		}
		compactions += st.ActionsRemoved
		select {
		case <-done:
			appending = false
		default:
		}
	}
	if compactions == 0 {
		t.Fatal("no round compacted anything; the race was not run")
	}
	t.Logf("%d compactions in %d rounds raced the appenders", compactions, rounds)
	fresh, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Store{fresh, collector, other} {
		checkHelperRecords(t, s)
		for i := 0; i < helperRecords; i++ {
			if _, err := s.GetAction(helperAction(2, i).Key); err != nil {
				t.Errorf("in-process appender's record %d: %v", i, err)
			}
		}
	}
	if torn, err := fresh.log.check(); err != nil || torn != nil {
		t.Fatalf("log after the race: %v, %v", torn, err)
	}
}

// seedLog fills a fresh store with n output-less records and returns them
// with the log's bytes.
func seedLog(t *testing.T, dir string, n int) ([]*Action, []byte) {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var recs []*Action
	for i := 0; i < n; i++ {
		a := &Action{Key: hostutil.HashBytes([]byte(fmt.Sprintf("seed %d", i))), Task: fmt.Sprintf("seed:%d", i)}
		if err := s.PutAction(a); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, a)
	}
	data, err := os.ReadFile(s.log.path)
	if err != nil {
		t.Fatal(err)
	}
	return recs, data
}

func wantTasks(t *testing.T, s *Store, want []*Action) {
	t.Helper()
	got, err := s.Actions()
	if err != nil {
		t.Fatal(err)
	}
	tasks := map[string]string{}
	for _, a := range got {
		tasks[a.Key] = a.Task
	}
	if len(got) != len(want) {
		t.Errorf("%d records, want %d", len(got), len(want))
	}
	for _, a := range want {
		if tasks[a.Key] != a.Task {
			t.Errorf("record %s: task %q, want %q", a.Key[:12], tasks[a.Key], a.Task)
		}
	}
}

// TestActionLogTornTail: a log cut at every byte offset of its last record
// loads everything before it, and the next append lands intact — the torn
// bytes never swallow it. (Cut of its newline only, the last record is
// incomplete until that append ends its line, and is then read whole.)
func TestActionLogTornTail(t *testing.T) {
	recs, data := seedLog(t, t.TempDir(), 4)
	lastStart := bytes.LastIndexByte(data[:len(data)-1], '\n') + 1
	next := &Action{Key: hostutil.HashBytes([]byte("after the tear")), Task: "next"}
	for cut := lastStart; cut < len(data); cut++ {
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, "blobs"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "actions"), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		wantTasks(t, s, recs[:3])
		if err := s.PutAction(next); err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		reopened, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		after := append(append([]*Action(nil), recs[:3]...), next)
		if cut == len(data)-1 {
			after = append(after, recs[3])
		}
		wantTasks(t, reopened, after)
		if t.Failed() {
			t.Fatalf("failed with the log cut at byte %d of %d", cut, len(data))
		}
	}
}

// TestActionLogBitFlip: a flipped bit in a middle record costs that record
// only; `cache verify` counts and names it, and the next GC compacts it
// away.
func TestActionLogBitFlip(t *testing.T) {
	dir := t.TempDir()
	recs, data := seedLog(t, dir, 5)
	at := bytes.Index(data, []byte(recs[2].Key))
	data[at+70] ^= 0x04 // inside the third record's JSON
	if err := os.WriteFile(filepath.Join(dir, "actions"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	survivors := []*Action{recs[0], recs[1], recs[3], recs[4]}
	wantTasks(t, s, survivors)
	if _, err := s.GetAction(recs[2].Key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("the flipped record: %v, want ErrNotFound", err)
	}
	problems, err := s.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 1 || !strings.Contains(problems[0], "action log") || !strings.Contains(problems[0], "1 line(s)") || !strings.Contains(problems[0], "crc mismatch") {
		t.Fatalf("verify = %q, want the one corrupt log line named", problems)
	}
	live := map[string]bool{}
	for _, a := range survivors {
		live[a.Key] = true
	}
	if _, err := s.GC(live, nil); err != nil {
		t.Fatal(err)
	}
	if problems, _ := s.Verify(); len(problems) != 0 {
		t.Fatalf("verify after GC = %q, want the bad line compacted away", problems)
	}
	wantTasks(t, s, survivors)
}

// TestPutActionSupersedesAndDedups: an identical re-put appends nothing; a
// different record for the key appends, and the last one wins, in this
// handle and in the next.
func TestPutActionSupersedesAndDedups(t *testing.T) {
	s := openTestStore(t)
	key := hostutil.HashBytes([]byte("k"))
	first := &Action{Key: key, Task: "probe"} // no outputs: a legal record, not a tombstone
	if err := s.PutAction(first); err != nil {
		t.Fatal(err)
	}
	size := func() int64 {
		fi, err := os.Stat(s.log.path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	before := size()
	if err := s.PutAction(&Action{Key: key, Task: "probe"}); err != nil {
		t.Fatal(err)
	}
	if size() != before {
		t.Fatal("an identical re-put grew the log")
	}
	if got, err := s.GetAction(key); err != nil || got.Task != "probe" || len(got.Outputs) != 0 {
		t.Fatalf("output-less record = %+v, %v", got, err)
	}
	second := &Action{Key: key, Task: "probe", Outputs: []Output{{Name: "o", Digest: key}}}
	if err := s.PutAction(second); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []*Store{s, reopened} {
		if got, err := h.GetAction(key); err != nil || !reflect.DeepEqual(got, second) {
			t.Fatalf("after a superseding put: %+v, %v", got, err)
		}
		if u, _ := h.Usage(); u.Actions != 1 {
			t.Fatalf("%d actions, want 1", u.Actions)
		}
	}
}

// TestGCRemovesStaleTempFiles: a writer killed between CreateTemp and
// Rename leaves a temp file nothing else ever removes; GC does, once it is
// too old to belong to a write in flight.
func TestGCRemovesStaleTempFiles(t *testing.T) {
	s := openTestStore(t)
	stale, fresh := s.blobPath(".tmp-put-stale"), s.blobPath(".tmp-put-fresh")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte("half an image"), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-staleTempAge - time.Minute)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	if u, _ := s.Usage(); u.Blobs != 0 {
		t.Fatalf("temp files counted as %d blob(s)", u.Blobs)
	}
	st, err := s.GC(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.TempsRemoved != 1 || st.BlobsRemoved != 0 || st.BytesReclaimed != int64(len("half an image")) {
		t.Fatalf("gc stats %+v, want exactly the stale temp file removed", st)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale temp file survived GC")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Errorf("a write in flight lost its temp file: %v", err)
	}
}

// --- migration ---

// oldStore writes a layout 1 (flat) or layout 2 (sharded) store by hand,
// as the binaries of that time did, with a killed writer's temp file in it.
func oldStore(t *testing.T, dir string, sharded bool, blobs [][]byte, actions []*Action) {
	t.Helper()
	place := func(kind, name string) string {
		p := filepath.Join(dir, kind, name)
		if sharded {
			p = filepath.Join(dir, kind, name[:2], name)
		}
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, data := range blobs {
		p := place("blobs", hostutil.HashBytes(data))
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(filepath.Dir(p), ".tmp-put-killed"), data[:1], 0o600); err != nil {
			t.Fatal(err)
		}
	}
	for _, a := range actions {
		data, err := json.MarshalIndent(a, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(place("actions", a.Key+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMigrationMatrix: a layout 2 store, a layout 1 store, a store whose
// migration died at each step, and a layout 3 store all open to the same
// actions, usage and blob bytes, in the one layout.
func TestMigrationMatrix(t *testing.T) {
	var blobs [][]byte
	var actions []*Action
	for i := 0; i < 6; i++ {
		data := []byte(fmt.Sprintf("artifact %d of an old store", i))
		blobs = append(blobs, data)
		actions = append(actions, &Action{
			Key:     hostutil.HashBytes([]byte(fmt.Sprintf("old task %d", i))),
			Task:    fmt.Sprintf("bin:%d", i),
			Outputs: []Output{{Name: "out", Digest: hostutil.HashBytes(data), Mode: 0o755, Size: int64(len(data))}},
		})
	}
	actions = append(actions, &Action{Key: hostutil.HashBytes([]byte("probe")), Task: "probe"})
	v2 := func(t *testing.T, dir string) { oldStore(t, dir, true, blobs, actions) }
	folded := func(t *testing.T, dir string) {
		v2(t, dir)
		if err := flattenBlobs(filepath.Join(dir, "blobs")); err != nil {
			t.Fatal(err)
		}
		if err := foldActionFiles(filepath.Join(dir, "actions"), filepath.Join(dir, "actions.new"), filepath.Join(dir, "blobs")); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name  string
		build func(t *testing.T, dir string)
	}{
		{"layout 2", v2},
		{"layout 1", func(t *testing.T, dir string) { oldStore(t, dir, false, blobs, actions) }},
		{"killed while flattening blobs", func(t *testing.T, dir string) {
			v2(t, dir)
			first := hostutil.HashBytes(blobs[0])
			sharded, err := filepath.Glob(filepath.Join(dir, "blobs", "*", first))
			if err != nil || len(sharded) != 1 {
				t.Fatal(sharded, err)
			}
			if err := os.Rename(sharded[0], BlobPath(dir, first)); err != nil {
				t.Fatal(err)
			}
		}},
		{"killed with the log folded", folded},
		{"killed while removing the old tree", func(t *testing.T, dir string) {
			folded(t, dir)
			shards, err := os.ReadDir(filepath.Join(dir, "actions"))
			if err != nil || len(shards) < 2 {
				t.Fatal(shards, err)
			}
			if err := os.RemoveAll(filepath.Join(dir, "actions", shards[0].Name())); err != nil {
				t.Fatal(err)
			}
		}},
		{"killed before the last rename", func(t *testing.T, dir string) {
			folded(t, dir)
			if err := os.RemoveAll(filepath.Join(dir, "actions")); err != nil {
				t.Fatal(err)
			}
		}},
		{"layout 3", func(t *testing.T, dir string) {
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, data := range blobs {
				if _, err := s.Put(data); err != nil {
					t.Fatal(err)
				}
			}
			for _, a := range actions {
				if err := s.PutAction(a); err != nil {
					t.Fatal(err)
				}
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			c.build(t, dir)
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			logBytes, err := os.ReadFile(filepath.Join(dir, "actions"))
			if err != nil {
				t.Fatalf("no action log after Open: %v", err)
			}
			got, err := s.Actions()
			if err != nil {
				t.Fatal(err)
			}
			want, _ := json.Marshal(sortedByKey(actions))
			if have, _ := json.Marshal(got); !bytes.Equal(have, want) {
				t.Errorf("Actions() = %s\nwant %s", have, want)
			}
			var total int64
			for _, data := range blobs {
				total += int64(len(data))
				if have, err := s.Get(hostutil.HashBytes(data)); err != nil || !bytes.Equal(have, data) {
					t.Errorf("blob %q: %v", data, err)
				}
			}
			if u, err := s.Usage(); err != nil || u != (Usage{Blobs: len(blobs), BlobBytes: total, Actions: len(actions)}) {
				t.Errorf("Usage() = %+v, %v", u, err)
			}
			if problems, err := s.Verify(); err != nil || len(problems) != 0 {
				t.Errorf("Verify() = %q, %v", problems, err)
			}
			// One layout: the log, the flat blobs, and nothing of the old ones.
			top, _ := os.ReadDir(dir)
			for _, e := range top {
				if e.Name() != "actions" && e.Name() != "blobs" {
					t.Errorf("left behind: %s", e.Name())
				}
			}
			entries, _ := os.ReadDir(filepath.Join(dir, "blobs"))
			for _, e := range entries {
				if !e.Type().IsRegular() || !validDigest(e.Name()) && !isTemp(e.Name()) {
					t.Errorf("blobs/%s is neither a blob nor a temp file", e.Name())
				}
			}
			// What stops the parent commit's binary: its Open starts with
			// MkdirAll(<dir>/actions).
			if err := os.MkdirAll(filepath.Join(dir, "actions"), 0o755); err == nil {
				t.Error("MkdirAll(<dir>/actions) succeeded on a layout 3 store")
			}
			// Opening again is a no-op.
			if _, err := Open(dir); err != nil {
				t.Fatal(err)
			}
			if again, _ := os.ReadFile(filepath.Join(dir, "actions")); !bytes.Equal(again, logBytes) {
				t.Error("a second Open rewrote the log")
			}
		})
	}
}

func sortedByKey(actions []*Action) []*Action {
	out := append([]*Action(nil), actions...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// TestNewerLayoutRefused: a store whose log announces a layout this binary
// does not know is refused, by name, and left untouched.
func TestNewerLayoutRefused(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "blobs"), 0o755); err != nil {
		t.Fatal(err)
	}
	log := filepath.Join(dir, "actions")
	data := frame(nil, time.Now().UnixNano(), []byte(`{"layout":4}`))
	if err := os.WriteFile(log, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir)
	if err == nil || !strings.Contains(err.Error(), log) || !strings.Contains(err.Error(), "layout 4") {
		t.Fatalf("Open of a layout 4 store = %v, want a refusal naming %s", err, log)
	}
	if after, _ := os.ReadFile(log); !bytes.Equal(after, data) {
		t.Error("the refused store's log was modified")
	}
}

// FuzzActionLog hammers the log reader: whatever bytes the file holds, Open
// neither panics nor fails (short of a newer layout's header), every record
// it salvages is a valid one, and the next append lands and is read back by
// a fresh handle.
func FuzzActionLog(f *testing.F) {
	key := hostutil.HashBytes([]byte("k"))
	good := frame(nil, 1, []byte(`{"key":"`+key+`","task":"t","outputs":null}`))
	f.Add(good)
	f.Add(append(headerLine(), good...))
	f.Add(good[:len(good)/2])
	f.Add(append(append([]byte(nil), good[:20]...), good...))
	f.Add(frame(nil, 1, []byte(`{"layout":4}`)))
	f.Add(frame(nil, 1, []byte(`{"key":"short"}`)))
	f.Add([]byte("00000000 \n\x00\xff\n\n"))
	next := &Action{Key: hostutil.HashBytes([]byte("next")), Task: "next"}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, "blobs"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "actions"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			if strings.Contains(err.Error(), "is store layout") {
				return
			}
			t.Fatalf("Open failed on salvageable input: %v", err)
		}
		actions, err := s.Actions()
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range actions {
			if !validDigest(a.Key) {
				t.Fatalf("salvaged a record with key %q", a.Key)
			}
		}
		if err := s.PutAction(next); err != nil {
			t.Fatal(err)
		}
		reopened, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := reopened.GetAction(next.Key); err != nil || got.Task != "next" {
			t.Fatalf("append after salvage: %+v, %v", got, err)
		}
		if u, _ := reopened.Usage(); u.Actions < len(actions) {
			t.Fatalf("the append lost records: %d before, %d after", len(actions), u.Actions)
		}
	})
}
