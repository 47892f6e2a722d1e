// Package checkpoint persists deterministic simulation checkpoints into
// the content-addressed store, the state behind `marshal launch -resume`.
//
// A checkpoint captures everything a platform needs to continue a job's
// in-flight Exec bit-identically: the machine's architectural state
// (sim.ArchState), every mapped memory page, platform "extra" state (branch
// predictor tables, cache tags, accumulated statistics — opaque named
// blobs saved through callbacks), the console bytes emitted so far, and the
// records of every Exec the platform completed before the in-flight one
// (exit code, instruction/cycle deltas, console digest) so a resumed run
// can replay them without re-simulating.
//
// On disk (format Version 2, the only one) a snapshot is exactly one CAS
// blob, a pack (pack.go): the document followed by the raw bytes of the
// pages dirtied since the previous snapshot. The document's page table
// names, for every mapped page, the pack and slot that hold it, so a clean
// page costs one table entry and no bytes, and a restore reads each named
// pack once. The only non-CAS file is the job's pointer file
// `<dir>/<job>.ckpt.json`: one line appended per snapshot, after the pack
// it names is stored; its last intact line is the pointer (pointer.go). A
// crash mid-snapshot therefore leaves the previous checkpoint in force — at
// worst an orphaned pack that the pinned-aware GC removes once the run is
// no longer live. A pack is pinned whole while any page table still names
// it, and identical pages of different jobs are stored once per job: that
// is the price of one inode per snapshot instead of one per page.
//
// A checkpoint that cannot be read — a garbled pointer, a pack of another
// format version (every checkpoint an older binary left), a missing or
// corrupt blob — is not an error: that job starts from instruction 0 and
// Runtime.Discarded says why. A checkpoint that reads fine but belongs to
// a different exec sequence is refused: the workload changed.
package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"

	"firemarshal/internal/cas"
	"firemarshal/internal/hostutil"
	"firemarshal/internal/obs"
	"firemarshal/internal/sim"
)

// Config parameterizes a job's checkpoint runtime.
type Config struct {
	// Store holds the packs and the completed execs' consoles.
	Store *cas.Store
	// Dir is where the per-job pointer file lives. It must be outside the
	// job's run directory, which launchers wipe per attempt.
	Dir string
	// Job names the job; it keys the pointer file.
	Job string
	// Every is the snapshot interval in retired instructions; 0 disables
	// snapshots (the runtime still records completed Execs in memory).
	Every uint64
	// Obs is the registry checkpoint_writes_total / _restores_total count
	// into; nil resolves to the process-wide obs.Default.
	Obs *obs.Registry
	// Span, when set, parents one "checkpoint" child span per snapshot
	// and one "restore" child span per restore in the run trace.
	Span *obs.Span
	// OnSnapshot, when set, runs after each snapshot's pointer append with
	// the new pointer and the checkpoint it names. Distributed workers use
	// it to replicate what the snapshot added to the shared remote cache and
	// announce the pointer to their coordinator, so the job can be restored
	// on another machine. A non-nil error fails the snapshot (and with it
	// the exec), because a handoff the hook could not make durable must not
	// be reported as one that was.
	OnSnapshot func(ptr Pointer, cp *Checkpoint) error
}

// ExecSig computes an exec's identity from its entry point and argument
// vector — what the guest OS passes to Platform.Exec.
func ExecSig(entry uint64, args []string) string {
	parts := append([]string{fmt.Sprintf("entry=%#x", entry)}, args...)
	return hostutil.HashStrings(parts...)
}

// recorder tees console output into a buffer so snapshots and exec
// records can store the exact transcript.
type recorder struct {
	w   io.Writer
	buf bytes.Buffer
}

func (r *recorder) Write(p []byte) (int, error) {
	r.buf.Write(p)
	if r.w != nil {
		return r.w.Write(p)
	}
	return len(p), nil
}

// Runtime drives checkpointing for one job attempt. The owning platform
// calls ReplayNext before each Exec (replaying completed execs recorded
// by a crashed attempt), then BeginExec / FinishExec around live
// simulation. Snapshots fire from the machine's CkptFn at deterministic
// instruction boundaries (see sim.Machine.CkptEvery).
type Runtime struct {
	cfg Config

	// SaveExtra returns named platform state blobs to include in each
	// snapshot (predictor tables, cache state, statistics). RestoreExtra
	// installs them on resume. Either may be nil for stateless platforms.
	SaveExtra    func() (map[string][]byte, error)
	RestoreExtra func(map[string][]byte) error

	resume *Checkpoint // pending restore target; nil once consumed
	// pages and consoles are what resume keeps outside its document, read
	// by Open: its pages' bytes in table order and its completed execs'
	// transcripts.
	pages     [][]byte
	consoles  [][]byte
	discarded error // why a checkpoint on disk is not the restore target
	execIdx   int   // index of the next exec
	execs     []ExecRecord

	// Per-exec state.
	sig string
	rec *recorder
	// prev is the page table of this exec's previous snapshot (or of the
	// checkpoint it was restored from): where each page that stays clean
	// already is.
	prev []PageRef
}

// Open creates a job's checkpoint runtime. With resume set and a readable
// checkpoint behind the job's pointer file, the runtime replays the
// recorded execs and restores the in-flight one; otherwise the job starts
// from scratch, and Discarded says so if a checkpoint was there. Without
// resume the job's pointer file is removed.
func Open(cfg Config, resume bool) (*Runtime, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("checkpoint: no store configured")
	}
	if cfg.Dir == "" {
		return nil, fmt.Errorf("checkpoint: no pointer directory configured")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	rt := &Runtime{cfg: cfg}
	if !resume {
		// An attempt from instruction 0 supersedes whatever an earlier one
		// left; its pointer file starts empty rather than growing on theirs.
		if err := Clear(cfg.Dir, cfg.Job); err != nil {
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
		return rt, nil
	}
	ptr, err := LoadPointer(PointerPath(cfg.Dir, cfg.Job))
	switch {
	case errors.Is(err, errNoPointerLine):
		rt.discarded = err
		return rt, nil
	case errors.Is(err, fs.ErrNotExist):
		return rt, nil
	case err != nil:
		return nil, err
	}
	rt.discarded = rt.load(ptr)
	return rt, nil
}

// load makes the checkpoint ptr names the restore target, reading every
// blob it references now, each once, so that one the store cannot produce
// is found before anything is replayed. It returns why the checkpoint is
// not usable: it belongs to another job, its exec history does not add up,
// or a blob it names is missing or corrupt.
func (rt *Runtime) load(ptr *Pointer) error {
	job, store := rt.cfg.Job, rt.cfg.Store
	cp, err := Load(store, ptr)
	if err != nil {
		return err
	}
	if cp.Job != job {
		return fmt.Errorf("checkpoint: pointer for %s names job %s", job, cp.Job)
	}
	if cp.ExecIdx != len(cp.Execs) {
		return fmt.Errorf("checkpoint: job %s: in-flight exec %d after %d completed", job, cp.ExecIdx, len(cp.Execs))
	}
	pages, err := cp.pageData(store)
	if err != nil {
		return err
	}
	consoles := make([][]byte, len(cp.Execs))
	for i, e := range cp.Execs {
		if consoles[i], err = store.Get(e.Console); err != nil {
			return fmt.Errorf("checkpoint: job %s exec %d console: %w", job, i, err)
		}
	}
	rt.resume, rt.pages, rt.consoles = cp, pages, consoles
	return nil
}

// Resuming reports whether a restore target is still pending.
func (rt *Runtime) Resuming() bool { return rt.resume != nil }

// Discarded is non-nil when Open found a checkpoint it could not use — a
// garbled pointer, a pack of another format version, a missing or corrupt
// blob — and the job therefore starts from instruction 0.
func (rt *Runtime) Discarded() error { return rt.discarded }

// Execs returns the exec records accumulated this attempt (replayed and
// live), in order.
func (rt *Runtime) Execs() []ExecRecord { return rt.execs }

// ReplayNext replays one completed exec recorded before the crash. When
// the next exec index is below the checkpoint's in-flight index it
// returns that exec's record plus its console transcript and ok=true;
// the platform charges the cycles and emits the bytes without
// simulating. ok=false means the exec must run (possibly restored).
func (rt *Runtime) ReplayNext(sig string) (*ExecRecord, []byte, bool, error) {
	if rt.resume == nil || rt.execIdx >= rt.resume.ExecIdx {
		return nil, nil, false, nil
	}
	rec := rt.resume.Execs[rt.execIdx]
	if rec.Sig != sig {
		return nil, nil, false, rt.sigMismatch(rec.Sig, sig)
	}
	console := rt.consoles[rt.execIdx]
	rt.execs = append(rt.execs, rec)
	rt.execIdx++
	return &rec, console, true, nil
}

func (rt *Runtime) sigMismatch(recorded, issued string) error {
	return fmt.Errorf("checkpoint: job %s exec %d: recorded sig %.12s, workload issued %.12s (workload changed since crash)",
		rt.cfg.Job, rt.execIdx, recorded, issued)
}

// BeginExec prepares a live exec: it installs the snapshot hook on the
// machine and tees the console. If this exec is the checkpoint's
// in-flight one, the machine's memory, architectural state, platform
// extra state, and partial console output are restored first; restored
// reports whether that happened (the caller's instruction/cycle baselines
// must predate BeginExec either way, since a fresh machine starts at
// zero). The returned writer replaces console for the exec's duration.
func (rt *Runtime) BeginExec(sig string, m *sim.Machine, console io.Writer) (io.Writer, bool, error) {
	rt.sig = sig
	rt.rec = &recorder{w: console}
	rt.prev = nil
	m.CkptEvery = rt.cfg.Every
	if rt.cfg.Every != 0 {
		m.CkptFn = rt.snapshot
	}

	if rt.resume == nil || rt.execIdx != rt.resume.ExecIdx {
		return rt.rec, false, nil
	}
	cp, pages := rt.resume, rt.pages
	rt.resume, rt.pages, rt.consoles = nil, nil, nil // consumed either way
	if cp.Sig != sig {
		return nil, false, rt.sigMismatch(cp.Sig, sig)
	}
	if len(cp.Extra) > 0 && rt.RestoreExtra == nil {
		return nil, false, fmt.Errorf("checkpoint: job %s: snapshot has platform state but platform cannot restore it", rt.cfg.Job)
	}
	cp.install(m, pages)
	rt.prev = cp.table()
	if len(cp.Extra) > 0 {
		if err := rt.RestoreExtra(cp.Extra); err != nil {
			return nil, false, fmt.Errorf("checkpoint: job %s: %w", rt.cfg.Job, err)
		}
	}
	// Re-emit the pre-crash output so the resumed transcript is
	// byte-identical, and seed the recorder so the next snapshot and the
	// final exec record carry the full transcript.
	if _, err := rt.rec.Write(cp.Console); err != nil {
		return nil, false, err
	}
	rt.cfg.Obs.Counter("checkpoint_restores_total").Inc()
	restoreSpan := rt.cfg.Span.Child("restore")
	restoreSpan.Attr("exec", fmt.Sprint(rt.execIdx))
	restoreSpan.End()
	return rt.rec, true, nil
}

// FinishExec records a completed live exec. cycles is the platform cycle
// delta the exec charged.
func (rt *Runtime) FinishExec(exit int64, instrs, cycles uint64) error {
	consoleDigest, err := rt.cfg.Store.Put(rt.rec.buf.Bytes())
	if err != nil {
		return fmt.Errorf("checkpoint: job %s: storing console: %w", rt.cfg.Job, err)
	}
	rt.execs = append(rt.execs, ExecRecord{
		Sig:     rt.sig,
		Exit:    exit,
		Instrs:  instrs,
		Cycles:  cycles,
		Console: consoleDigest,
	})
	rt.execIdx++
	rt.rec = nil
	rt.prev = nil
	return nil
}

// snapshot is the sim.Machine CkptFn: serialize the machine at the
// current instruction boundary into one pack and append its pointer.
func (rt *Runtime) snapshot(m *sim.Machine) error {
	span := rt.cfg.Span.Child("checkpoint")
	defer span.End()
	cp := &Checkpoint{
		Job:     rt.cfg.Job,
		ExecIdx: rt.execIdx,
		Sig:     rt.sig,
		Arch:    m.SaveArch(),
		Console: append([]byte(nil), rt.rec.buf.Bytes()...),
		Execs:   append([]ExecRecord(nil), rt.execs...),
	}
	if rt.SaveExtra != nil {
		var err error
		if cp.Extra, err = rt.SaveExtra(); err != nil {
			return fmt.Errorf("checkpoint: job %s: saving platform state: %w", rt.cfg.Job, err)
		}
	}
	digest, err := writePack(rt.cfg.Store, cp, m.Mem, rt.prev, m.Mem.TakeDirty())
	if err != nil {
		return err
	}
	rt.prev = cp.table()
	ptr := Pointer{Job: rt.cfg.Job, Digest: digest, Exec: rt.execIdx, Instret: cp.Arch.Instret}
	// The pointer only ever names a fully stored pack.
	if err := appendPointer(PointerPath(rt.cfg.Dir, rt.cfg.Job), &ptr); err != nil {
		return err
	}
	rt.cfg.Obs.Counter("checkpoint_writes_total").Inc()
	if rt.cfg.OnSnapshot != nil {
		if err := rt.cfg.OnSnapshot(ptr, cp); err != nil {
			return fmt.Errorf("checkpoint: job %s: snapshot hook: %w", rt.cfg.Job, err)
		}
	}
	return nil
}
