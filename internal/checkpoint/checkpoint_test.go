package checkpoint

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"firemarshal/internal/asm"
	"firemarshal/internal/cas"
	"firemarshal/internal/hostutil"
	"firemarshal/internal/sim"
)

// progShort prints one value and exits 3 — the "first exec" of a job.
const progShort = `
_start:
    li a0, 41
    addi a0, a0, 1
    li a7, 0x101
    ecall
    li a0, 3
    li a7, 93
    ecall
`

// progLong mixes ALU work, stores across several pages, and console
// output over ~18k instructions — the in-flight exec checkpoints land in.
const progLong = `
_start:
    li s0, 2000
    li s1, 0
    li s2, 0x100000
outer:
    andi t0, s0, 255
    slli t1, t0, 3
    add  t2, s2, t1
    sd   s1, 0(t2)
    ld   t3, 0(t2)
    add  s1, s1, t3
    mul  s1, s1, s0
    addi s0, s0, -1
    bnez s0, outer
    mv a0, s1
    li a7, 0x101
    ecall
    li a0, 7
    li a7, 93
    ecall
`

func openStore(t testing.TB) (*cas.Store, string) {
	t.Helper()
	dir := t.TempDir()
	store, err := cas.Open(filepath.Join(dir, "cas"))
	if err != nil {
		t.Fatal(err)
	}
	return store, filepath.Join(dir, "ckpt")
}

// miniPlatform drives execs the way funcsim does, threading the platform
// cycle counter through successive machines.
type miniPlatform struct {
	t      testing.TB
	rt     *Runtime
	cycles uint64
}

type miniResult struct {
	exit    int64
	instrs  uint64
	cycles  uint64
	console string
}

// exec runs one executable, replaying or restoring through the runtime.
// crashAfter > 0 aborts the run after that many snapshots (simulating a
// kill) and returns nil.
func (p *miniPlatform) exec(src string, crashAfter int) *miniResult {
	p.t.Helper()
	exe, err := asm.Assemble(src, asm.Options{})
	if err != nil {
		p.t.Fatal(err)
	}
	sig := ExecSig(exe.Entry, []string{src[:8]})

	if rec, console, ok, err := p.rt.ReplayNext(sig); err != nil {
		p.t.Fatal(err)
	} else if ok {
		p.cycles += rec.Cycles
		return &miniResult{exit: rec.Exit, instrs: rec.Instrs, cycles: rec.Cycles, console: string(console)}
	}

	var console bytes.Buffer
	m := sim.NewMachine()
	m.Console = &console
	m.SyscallFn = sim.BareSyscalls()
	m.Devices = []sim.Device{&sim.UART{}}
	m.MaxInstrs = 10_000_000
	m.LoadExecutable(exe, sim.DefaultStackTop)
	m.Now = p.cycles
	start := p.cycles
	startInstrs := m.Instret // before BeginExec: a restore advances Instret

	w, _, err := p.rt.BeginExec(sig, m, &console)
	if err != nil {
		p.t.Fatal(err)
	}
	m.Console = w

	if crashAfter > 0 {
		orig := m.CkptFn
		snaps := 0
		m.CkptFn = func(mm *sim.Machine) error {
			if err := orig(mm); err != nil {
				return err
			}
			snaps++
			if snaps == crashAfter {
				return errors.New("simulated crash")
			}
			return nil
		}
	}

	_, err = sim.RunFunctional(m)
	if crashAfter > 0 {
		if err == nil {
			p.t.Fatal("crash never fired")
		}
		return nil
	}
	if err != nil {
		p.t.Fatal(err)
	}
	p.cycles = m.Now
	instrs := m.Instret - startInstrs
	if err := p.rt.FinishExec(m.ExitCode, instrs, p.cycles-start); err != nil {
		p.t.Fatal(err)
	}
	// The recorder buffered everything written through w.
	return &miniResult{exit: m.ExitCode, instrs: instrs, cycles: p.cycles - start, console: console.String()}
}

// TestCrashResumeBitIdentical is the package's tentpole property: a run
// killed mid-exec (after a completed exec and several snapshots) and
// resumed from its checkpoint produces bit-identical exec records —
// exits, instruction counts, cycle deltas, and console transcripts.
func TestCrashResumeBitIdentical(t *testing.T) {
	store, ptrDir := openStore(t)
	cfg := Config{Store: store, Dir: ptrDir, Job: "job0", Every: 1000}

	// Uninterrupted reference run.
	straightRT, err := Open(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	straight := &miniPlatform{t: t, rt: straightRT}
	s0 := straight.exec(progShort, 0)
	s1 := straight.exec(progLong, 0)
	Clear(ptrDir, cfg.Job)

	// Crashed attempt: exec0 completes, exec1 dies after 3 snapshots.
	crashRT, err := Open(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	crash := &miniPlatform{t: t, rt: crashRT}
	crash.exec(progShort, 0)
	crash.exec(progLong, 3)

	ptr, err := LoadPointer(PointerPath(ptrDir, cfg.Job))
	if err != nil {
		t.Fatalf("no pointer after crash: %v", err)
	}
	if ptr.Exec != 1 || ptr.Instret != 3000 {
		t.Fatalf("pointer = %+v, want exec 1 at instret 3000", ptr)
	}

	// Resumed attempt: exec0 replays, exec1 restores mid-flight.
	resumeRT, err := Open(cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	if !resumeRT.Resuming() {
		t.Fatal("resume runtime found no checkpoint")
	}
	resume := &miniPlatform{t: t, rt: resumeRT}
	r0 := resume.exec(progShort, 0)
	r1 := resume.exec(progLong, 0)

	for name, pair := range map[string][2]*miniResult{"exec0": {s0, r0}, "exec1": {s1, r1}} {
		want, got := pair[0], pair[1]
		if got.exit != want.exit || got.instrs != want.instrs || got.cycles != want.cycles {
			t.Errorf("%s: resumed (exit=%d instrs=%d cycles=%d), straight (exit=%d instrs=%d cycles=%d)",
				name, got.exit, got.instrs, got.cycles, want.exit, want.instrs, want.cycles)
		}
		if got.console != want.console {
			t.Errorf("%s: console %q, want %q", name, got.console, want.console)
		}
	}
	if resume.cycles != straight.cycles {
		t.Errorf("final platform cycles %d, want %d", resume.cycles, straight.cycles)
	}

	// The resumed attempt's exec records must match the straight run's.
	sr, rr := straightRT.Execs(), resumeRT.Execs()
	if len(sr) != len(rr) {
		t.Fatalf("%d resumed exec records, want %d", len(rr), len(sr))
	}
	for i := range sr {
		if sr[i] != rr[i] {
			t.Errorf("exec record %d: %+v, want %+v", i, rr[i], sr[i])
		}
	}
}

// TestResumeWithoutPointerRunsFresh checks the resume-iff-pointer policy.
func TestResumeWithoutPointerRunsFresh(t *testing.T) {
	store, ptrDir := openStore(t)
	rt, err := Open(Config{Store: store, Dir: ptrDir, Job: "never-ran", Every: 100}, true)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Resuming() {
		t.Fatal("resuming with no pointer on disk")
	}
	if _, _, ok, err := rt.ReplayNext("sig"); ok || err != nil {
		t.Fatalf("ReplayNext = ok=%v err=%v, want fresh run", ok, err)
	}
}

// TestCorruptBlobRestartsFromScratch: a checkpoint whose latest pack reads
// fine but which names a blob the store cannot produce intact — an earlier
// pack still holding clean pages, a completed exec's console — is discarded
// by Open, before anything is replayed, and the job runs from instruction 0
// to the uninterrupted run's results.
func TestCorruptBlobRestartsFromScratch(t *testing.T) {
	for _, tc := range []struct {
		name   string
		victim func(cp *Checkpoint) string
	}{
		{"earlier pack", func(cp *Checkpoint) string {
			for _, p := range cp.Pages {
				if p.Pack != "" {
					return p.Pack
				}
			}
			return ""
		}},
		{"completed exec's console", func(cp *Checkpoint) string { return cp.Execs[0].Console }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store, ptrDir := openStore(t)
			cfg := Config{Store: store, Dir: ptrDir, Job: "job0", Every: 1000}
			rt, err := Open(cfg, false)
			if err != nil {
				t.Fatal(err)
			}
			straight := &miniPlatform{t: t, rt: rt}
			s0, s1 := straight.exec(progShort, 0), straight.exec(progLong, 0)

			if rt, err = Open(cfg, false); err != nil {
				t.Fatal(err)
			}
			crash := &miniPlatform{t: t, rt: rt}
			crash.exec(progShort, 0)
			crash.exec(progLong, 3)
			ptr, err := LoadPointer(PointerPath(ptrDir, cfg.Job))
			if err != nil {
				t.Fatal(err)
			}
			cp, err := Load(store, ptr)
			if err != nil {
				t.Fatal(err)
			}
			victim := tc.victim(cp)
			if victim == "" || victim == ptr.Digest {
				t.Fatalf("no blob to corrupt beside the latest pack (victim %q)", victim)
			}
			if err := hostutil.WriteFileAtomic(cas.BlobPath(store.Dir(), victim), []byte("bit rot"), 0o444); err != nil {
				t.Fatal(err)
			}

			if rt, err = Open(cfg, true); err != nil {
				t.Fatalf("Open over a corrupt blob: %v", err)
			}
			if rt.Resuming() || rt.Discarded() == nil {
				t.Fatalf("Resuming = %v, Discarded = %v; want the checkpoint discarded", rt.Resuming(), rt.Discarded())
			}
			again := &miniPlatform{t: t, rt: rt}
			if r0, r1 := again.exec(progShort, 0), again.exec(progLong, 0); *r0 != *s0 || *r1 != *s1 {
				t.Errorf("restarted run = %+v, %+v; want %+v, %+v", r0, r1, s0, s1)
			}
		})
	}
}

// TestSigMismatchRefuses checks a changed workload is detected rather
// than silently resumed into the wrong program.
func TestSigMismatchRefuses(t *testing.T) {
	store, ptrDir := openStore(t)
	cfg := Config{Store: store, Dir: ptrDir, Job: "job-sig", Every: 1000}
	rt, err := Open(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	p := &miniPlatform{t: t, rt: rt}
	p.exec(progLong, 2) // crash mid-exec0

	rt2, err := Open(cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	m := sim.NewMachine()
	m.SyscallFn = sim.BareSyscalls()
	if _, _, err := rt2.BeginExec("0000000000000000deadbeef", m, &bytes.Buffer{}); err == nil {
		t.Fatal("BeginExec accepted a mismatched exec signature")
	}
}

// TestSnapshotDedupsCleanPages pins what a page costs: a snapshot is one
// blob whatever the guest mapped, and a page the guest did not write since
// the previous snapshot costs a page-table entry and no bytes (progPages
// maps eight data pages up front, then keeps dirtying one).
func TestSnapshotDedupsCleanPages(t *testing.T) {
	store, ptrDir := openStore(t)
	type snap struct {
		digest     string
		pages, own int
	}
	var snaps []snap
	cfg := Config{Store: store, Dir: ptrDir, Job: "job-dedup", Every: 1000,
		OnSnapshot: func(ptr Pointer, cp *Checkpoint) error {
			s := snap{digest: ptr.Digest, pages: len(cp.Pages)}
			for _, p := range cp.Pages {
				if p.Pack == "" {
					s.own++
				}
			}
			snaps = append(snaps, s)
			return nil
		}}
	rt, err := Open(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	(&miniPlatform{t: t, rt: rt}).exec(progPages, 0)

	if len(snaps) < 5 {
		t.Fatalf("%d snapshots, want several", len(snaps))
	}
	for i, s := range snaps {
		size, err := store.BlobSize(s.digest)
		if err != nil {
			t.Fatal(err)
		}
		if s.pages < 9 {
			t.Errorf("snapshot %d maps %d pages; the bounds below mean nothing under 9", i, s.pages)
		}
		switch {
		case i == 0 && s.own != s.pages:
			t.Errorf("first snapshot holds %d of its %d pages", s.own, s.pages)
		case i > 0 && (s.own > 2 || size > 3*sim.PageSize):
			t.Errorf("snapshot %d: %d own pages in a %d-byte pack; the guest dirtied one data page", i, s.own, size)
		}
	}
	// One pack per snapshot and the finished exec's console: nothing else.
	if puts, _ := store.PutStats(); int(puts) != len(snaps)+1 {
		t.Errorf("%d blobs written for %d snapshots, want snapshots + 1", puts, len(snaps))
	}
}

// TestPointerLifecycle covers listing, clearing, and torn pointers.
func TestPointerLifecycle(t *testing.T) {
	store, ptrDir := openStore(t)
	cfg := Config{Store: store, Dir: ptrDir, Job: "job-a", Every: 1000}
	rt, err := Open(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	p := &miniPlatform{t: t, rt: rt}
	p.exec(progLong, 2)

	// A pointer file with no intact line must not break listing, and an
	// append torn by a crash leaves the line before it in force.
	if err := os.WriteFile(filepath.Join(ptrDir, "garbled.ckpt.json"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(PointerPath(ptrDir, "job-a"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("\n{\"job\":\"job-a\",\"digest\":\"12"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	ptrs, err := Pointers(ptrDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ptrs) != 1 || ptrs[0].Job != "job-a" || ptrs[0].Instret != 2000 {
		t.Fatalf("pointers = %+v, want exactly job-a at its second snapshot", ptrs)
	}

	cp, err := Load(store, ptrs[0])
	if err != nil {
		t.Fatal(err)
	}
	if probs := cp.Verify(store); len(probs) != 0 {
		t.Fatalf("fresh checkpoint has problems: %v", probs)
	}
	if len(cp.Refs()) == 0 {
		t.Fatal("checkpoint references no blobs")
	}

	// Remove the first snapshot's pack, which still holds the pages the
	// second left clean: Verify must report it.
	missing := ""
	for _, p := range cp.Pages {
		if p.Pack != "" {
			missing = p.Pack
		}
	}
	if missing == "" {
		t.Fatal("second snapshot names no earlier pack")
	}
	if err := os.Remove(cas.BlobPath(store.Dir(), missing)); err != nil {
		t.Fatal(err)
	}
	if probs := cp.Verify(store); len(probs) != 1 {
		t.Fatalf("Verify found %d problems, want 1", len(probs))
	}

	if err := Clear(ptrDir, "job-a"); err != nil {
		t.Fatal(err)
	}
	if err := Clear(ptrDir, "job-a"); err != nil {
		t.Fatalf("Clear not idempotent: %v", err)
	}
	ptrs, err = Pointers(ptrDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ptrs) != 0 {
		t.Fatalf("pointers after Clear = %+v", ptrs)
	}

	// Pointers on a directory that never existed is an empty list.
	ptrs, err = Pointers(filepath.Join(ptrDir, "nope"))
	if err != nil || len(ptrs) != 0 {
		t.Fatalf("Pointers(missing dir) = %v, %v", ptrs, err)
	}
}
