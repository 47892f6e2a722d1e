package core

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"firemarshal/internal/asm"
	"firemarshal/internal/checkpoint"
	"firemarshal/internal/isa"
	"firemarshal/internal/launcher"
	"firemarshal/internal/obs"
)

// writeLoopOverlay installs a guest binary that spins for ~2*count
// instructions and exits 0 — long enough that the fault injector can cancel
// the run while the job is mid-flight with checkpoints on disk.
func writeLoopOverlay(t *testing.T, e *testEnv, count int) {
	t.Helper()
	exe, err := asm.Assemble(`
_start:
    li s0, `+itoa(count)+`
loop:
    addi s0, s0, -1
    bnez s0, loop
    li a0, 0
    li a7, 93
    ecall
`, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := e.wlDir + "/overlay-loop/bench"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir+"/loop", isa.EncodeExecutable(exe), 0o755); err != nil {
		t.Fatal(err)
	}
}

// cancelWhenCheckpointed fires cancel as soon as a checkpoint pointer for
// job appears — guaranteeing the "crash" lands while that job is in flight
// with at least one snapshot persisted. done stops the watcher.
func cancelWhenCheckpointed(ptrPath string, cancel context.CancelFunc, done <-chan struct{}) {
	for {
		if _, err := os.Stat(ptrPath); err == nil {
			cancel()
			return
		}
		select {
		case <-done:
			return
		case <-time.After(time.Millisecond):
		}
	}
}

// TestLaunchCrashResumeBitIdentical is the launch-level half of the
// tentpole's determinism gate: a run killed while one job is done and
// another is mid-flight (with live checkpoints), then re-run with -resume,
// reports per-job cycle counts bit-identical to an uninterrupted run. The
// carried job must not re-simulate, and the summary must account attempts
// across the interruption.
func TestLaunchCrashResumeBitIdentical(t *testing.T) {
	e := newEnv(t)
	writeLoopOverlay(t, e, 15000000)
	e.write(t, "crashy.json", `{
  "name": "crashy", "base": "br-base", "overlay": "overlay-loop",
  "jobs": [
    {"name": "quick", "command": "echo quick-done"},
    {"name": "slow", "command": "/bench/loop"}
  ]}`)

	// Uninterrupted reference run (no checkpointing).
	straight, err := e.m.Launch("crashy", LaunchOpts{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]uint64{}
	for _, r := range straight {
		want[r.Target] = r.Cycles
	}
	if len(want) != 2 {
		t.Fatalf("reference run results = %d", len(want))
	}

	// Crashed run: sequential workers guarantee quick completes first; the
	// watcher kills the run once slow has a checkpoint on disk.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go cancelWhenCheckpointed(checkpoint.PointerPath(e.m.CkptDir(), "crashy-slow"), cancel, done)
	_, err = e.m.Launch("crashy", LaunchOpts{Jobs: 1, Context: ctx, CkptEvery: 100000})
	close(done)
	if err == nil {
		t.Fatal("interrupted launch reported success (job too short to be caught mid-flight?)")
	}
	recs := readManifest(t, e.m.LastManifest)
	if len(recs) != 2 || recs[0].Status != launcher.StatusOK || recs[1].Status != launcher.StatusCancelled {
		t.Fatalf("post-crash manifest = %+v, want quick ok + slow cancelled", recs)
	}
	if _, err := checkpoint.LoadPointer(checkpoint.PointerPath(e.m.CkptDir(), "crashy-slow")); err != nil {
		t.Fatalf("cancelled job's checkpoint pointer missing: %v", err)
	}

	// Resume: quick carries, slow restores mid-flight and finishes.
	var log bytes.Buffer
	e.m.Log = &log
	results, err := e.m.Launch("crashy", LaunchOpts{Jobs: 1, Resume: true, CkptEvery: 100000})
	if err != nil {
		t.Fatalf("resume: %v (log:\n%s)", err, log.String())
	}
	if len(results) != 2 {
		t.Fatalf("resume results = %d", len(results))
	}
	for _, r := range results {
		if r.Cycles != want[r.Target] {
			t.Errorf("job %s cycles = %d after resume, want %d (uninterrupted)", r.Target, r.Cycles, want[r.Target])
		}
		if r.ExitCode != 0 {
			t.Errorf("job %s exit = %d", r.Target, r.ExitCode)
		}
	}
	if !strings.Contains(log.String(), "already ok") || !strings.Contains(log.String(), "restoring from checkpoint") {
		t.Errorf("resume log missing carry/restore markers:\n%s", log.String())
	}

	// Attempts account across the interruption: slow ran once before the
	// crash and once after, rendered "1+1" in the summary table.
	sum := e.m.LastLaunch
	if sum == nil {
		t.Fatal("no launch summary")
	}
	for _, j := range sum.Jobs {
		if j.Name == "crashy-slow" {
			if j.Prior != 1 || !j.Resumed || j.Status != launcher.StatusOK {
				t.Errorf("slow summary = %+v, want prior=1 resumed ok", j)
			}
		}
	}
	if table := launcher.FormatTable(sum); !strings.Contains(table, "1+1") {
		t.Errorf("summary table lacks prior+new attempts:\n%s", table)
	}

	recs = readManifest(t, e.m.LastManifest)
	for _, r := range recs {
		if r.Status != launcher.StatusOK || !r.Resumed {
			t.Errorf("post-resume manifest record = %+v, want ok+resumed", r)
		}
		if r.Cycles != want[r.Job] {
			t.Errorf("manifest %s cycles = %d, want %d", r.Job, r.Cycles, want[r.Job])
		}
	}
	if r := recs[1]; r.Attempts != 2 {
		t.Errorf("slow manifest attempts = %d, want 2 (1 prior + 1 new)", r.Attempts)
	}

	// Terminal success cleared the checkpoint state and the journal.
	if _, err := os.Stat(e.m.JournalPath("crashy")); !os.IsNotExist(err) {
		t.Errorf("journal survived compaction: %v", err)
	}
	ptrs, err := checkpoint.Pointers(e.m.CkptDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(ptrs) != 0 {
		t.Errorf("pointers after successful resume: %+v", ptrs)
	}
}

// TestResumeFailsJobStillNonZero: a resume whose remaining job fails must
// exit non-zero even though the carried jobs are all ok.
func TestResumeFailsJobStillNonZero(t *testing.T) {
	e := newEnv(t)
	// A guest binary that executes an all-zero word traps the machine,
	// which surfaces as a permanent job failure.
	exe, err := asm.Assemble("_start:\n    .word 0\n", asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := e.wlDir + "/overlay-bad/bad"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir+"/trap", isa.EncodeExecutable(exe), 0o755); err != nil {
		t.Fatal(err)
	}
	e.write(t, "mixed.json", `{
  "name": "mixed", "base": "br-base", "overlay": "overlay-bad",
  "jobs": [
    {"name": "good", "command": "echo fine"},
    {"name": "bad", "command": "/bad/trap"}
  ]}`)

	// First run: good finishes, bad traps. Re-running with -resume carries
	// good and re-attempts bad, which fails again — the launch must still
	// report failure.
	if _, err := e.m.Launch("mixed", LaunchOpts{Jobs: 1}); err == nil {
		t.Fatal("first launch should fail (bad traps)")
	}
	_, err = e.m.Launch("mixed", LaunchOpts{Jobs: 1, Resume: true})
	if err == nil {
		t.Fatal("resume with a failing job must return an error")
	}
	recs := readManifest(t, e.m.LastManifest)
	if len(recs) != 2 {
		t.Fatalf("manifest records = %d", len(recs))
	}
	if recs[0].Job != "mixed-good" || recs[0].Status != launcher.StatusOK || !recs[0].Resumed {
		t.Errorf("good record = %+v", recs[0])
	}
	if recs[1].Job != "mixed-bad" || recs[1].Status != launcher.StatusFailed {
		t.Errorf("bad record = %+v", recs[1])
	}
}

// TestUnreadableCheckpointRestartsJob: a checkpoint -resume cannot read is
// that job starting over from instruction 0 with a log line saying why,
// never a failed job — what the parent commit left behind (an indented
// pointer file naming a version-1 JSON document), a current pointer naming
// such a document, and a pointer naming a pack the store does not have.
func TestUnreadableCheckpointRestartsJob(t *testing.T) {
	const v1Doc = `{"version":1,"job":"crashy-slow","exec":0,"sig":"s","arch":{"regs":[],"pc":0},"pages":[{"pn":16,"digest":"00"}],"console":""}`
	v1Pointer := func(digest string) string {
		return "{\n  \"job\": \"crashy-slow\",\n  \"digest\": \"" + digest + "\",\n  \"exec\": 0,\n  \"instret\": 100000\n}"
	}
	linePointer := func(digest string) string {
		return `{"job":"crashy-slow","digest":"` + digest + `","exec":0,"instret":100000}` + "\n"
	}
	for _, tc := range []struct {
		name    string
		pointer func(v1Digest string) string
	}{
		{"v1 pointer and document", v1Pointer},
		{"pointer naming a v1 document", linePointer},
		{"pointer naming an absent pack", func(string) string { return linePointer(strings.Repeat("ab", 32)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkout := func() *testEnv {
				e := newEnv(t)
				writeLoopOverlay(t, e, 300000)
				e.write(t, "crashy.json", `{
  "name": "crashy", "base": "br-base", "overlay": "overlay-loop",
  "jobs": [{"name": "slow", "command": "/bench/loop"}]}`)
				return e
			}
			// The uninterrupted run has a checkout of its own: in e it would
			// leave a manifest for -resume to carry.
			straight, err := checkout().m.Launch("crashy", LaunchOpts{Jobs: 1})
			if err != nil {
				t.Fatal(err)
			}
			e := checkout()

			cache, err := e.m.Cache()
			if err != nil {
				t.Fatal(err)
			}
			digest, err := cache.Local().Put([]byte(v1Doc))
			if err != nil {
				t.Fatal(err)
			}
			ptrPath := checkpoint.PointerPath(e.m.CkptDir(), "crashy-slow")
			if err := os.MkdirAll(e.m.CkptDir(), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(ptrPath, []byte(tc.pointer(digest)), 0o644); err != nil {
				t.Fatal(err)
			}

			var log bytes.Buffer
			e.m.Log = &log
			results, err := e.m.Launch("crashy", LaunchOpts{Jobs: 1, Resume: true, CkptEvery: 100000})
			if err != nil {
				t.Fatalf("resume over an unreadable checkpoint: %v (log:\n%s)", err, log.String())
			}
			if len(results) != 1 || results[0].Cycles != straight[0].Cycles || results[0].ExitCode != 0 {
				t.Errorf("resumed result = %+v, want the uninterrupted run's %+v", results[0], straight[0])
			}
			if j := e.m.LastLaunch.Jobs[0]; j.Status != launcher.StatusOK || j.Resumed || j.Attempts != 1 {
				t.Errorf("summary = %+v, want ok in one attempt, not resumed", j)
			}
			if n := strings.Count(log.String(), "starts from instruction 0"); n != 1 {
				t.Errorf("%d log lines name the restart, want 1:\n%s", n, log.String())
			}
		})
	}
}

// TestCheckpointInodeCensus pins what checkpointing leaves on disk: a job
// that takes N snapshots adds N packs and the consoles of its finished
// execs under blobs/ — not a blob per page — and one pointer file, which is
// there while the job is unfinished and gone once it is; nothing is written
// by temp+rename beside the pointers.
func TestCheckpointInodeCensus(t *testing.T) {
	e := newEnv(t)
	writeLoopOverlay(t, e, 15000000)
	e.write(t, "crashy.json", `{
  "name": "crashy", "base": "br-base", "overlay": "overlay-loop",
  "jobs": [{"name": "slow", "command": "/bench/loop"}]}`)
	if _, err := e.m.Build("crashy", BuildOpts{}); err != nil {
		t.Fatal(err)
	}
	cache, err := e.m.Cache()
	if err != nil {
		t.Fatal(err)
	}
	blobs := func() int {
		ents, err := os.ReadDir(filepath.Join(cache.Local().Dir(), "blobs"))
		if err != nil {
			t.Fatal(err)
		}
		for _, ent := range ents {
			if strings.HasPrefix(ent.Name(), ".tmp-") {
				t.Errorf("temp file %s left under blobs/", ent.Name())
			}
		}
		return len(ents)
	}
	ckptFiles := func() []string {
		ents, err := os.ReadDir(e.m.CkptDir())
		if err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		var names []string
		for _, ent := range ents {
			names = append(names, ent.Name())
		}
		return names
	}
	built := blobs()
	e.m.Obs = obs.NewRegistry()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	ptrPath := checkpoint.PointerPath(e.m.CkptDir(), "crashy-slow")
	go func() {
		// Let a fair number of snapshots land before the kill.
		for {
			if ptr, err := checkpoint.LoadPointer(ptrPath); err == nil && ptr.Instret >= 2000000 {
				cancel()
				return
			}
			select {
			case <-done:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	_, err = e.m.Launch("crashy", LaunchOpts{Jobs: 1, Context: ctx, CkptEvery: 100000})
	close(done)
	if err == nil {
		t.Fatal("interrupted launch reported success")
	}
	snaps := int(e.m.Obs.Counter("checkpoint_writes_total").Value())
	if snaps < 20 {
		t.Fatalf("%d snapshots before the kill, want at least 20", snaps)
	}
	// k: the consoles of the execs the guest finished before its loop.
	const k = 4
	if got := blobs() - built; got < snaps || got > snaps+k {
		t.Errorf("%d snapshots added %d entries under blobs/, want between N and N+%d", snaps, got, k)
	}
	if got := ckptFiles(); len(got) != 1 || got[0] != filepath.Base(ptrPath) {
		t.Errorf("checkpoint directory holds %v, want the unfinished job's pointer file alone", got)
	}

	if _, err := e.m.Launch("crashy", LaunchOpts{Jobs: 1, Resume: true, CkptEvery: 100000}); err != nil {
		t.Fatal(err)
	}
	if got := ckptFiles(); len(got) != 0 {
		t.Errorf("checkpoint directory holds %v after the job finished", got)
	}
	total := int(e.m.Obs.Counter("checkpoint_writes_total").Value())
	if got := blobs() - built; got < total || got > total+2*k {
		t.Errorf("%d snapshots over both attempts added %d entries under blobs/, want between N and N+%d", total, got, 2*k)
	}
}
