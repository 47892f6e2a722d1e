package remote

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"firemarshal/internal/cas"
	"firemarshal/internal/checkpoint"
	"firemarshal/internal/firmware"
	"firemarshal/internal/hostutil"
	"firemarshal/internal/launcher"
	"firemarshal/internal/obs"
	"firemarshal/internal/sim/rtlsim"
)

// Job is one job of a run as a front end declares it: where its artifacts
// are, how to simulate it, and the run directory its result lands in.
type Job struct {
	Name string
	// Bin and Img are the artifact files (Img "" boots without a disk).
	Bin, Img string
	// Sim, RTL and Outputs are the kernel's (see Exec).
	Sim     string
	RTL     rtlsim.Config
	Outputs []string
	// Dir is the job's run directory. It is wiped before every attempt, so
	// a failed attempt never leaves an earlier one's outputs looking
	// current.
	Dir string
	// Attach, when set, adds an in-process attempt's host-local extras to x
	// — fresh device drivers, the fabric NIC, a trace writer, a console
	// tee — and returns what releases them (nil = nothing to release). A
	// job it attaches drivers, devices or a trace to cannot run on a fleet.
	Attach func(x *Exec) (release func(), err error)
	// Post, when set, runs once the job's files are in Dir (the post-run
	// hook); its failure fails the attempt.
	Post func() error
}

// Run describes a whole launch for Drive: the jobs, where the run's record
// is kept, and how the jobs are scheduled.
type Run struct {
	Jobs []Job
	// ManifestPath receives the compacted JSONL manifest; the run journals
	// beside it (ManifestPath + ".journal") while in flight. "" keeps no
	// record: nothing to resume from, nothing written.
	ManifestPath string
	// Resume continues an interrupted run: jobs the prior journal (or
	// manifest) records as ok carry over, the rest run again — from their
	// latest checkpoint where one exists.
	Resume bool
	// CkptDir holds the run's checkpoint pointer files ("" = none kept).
	// CkptStore, when set, arms checkpointing of local attempts into it;
	// CkptEvery is the snapshot interval in retired instructions.
	CkptDir   string
	CkptStore *cas.Store
	CkptEvery uint64

	// Pool schedules the jobs on local simulation slots (Workers of them),
	// Fleet on `marshal worker serve` daemons when Fleet.Workers is set —
	// Pool.Timeout and Pool.Retries then travel in each job spec and apply
	// worker-side, and Remote is the shared cache every artifact, console
	// and output travels through. Drive fills in both sides' journal,
	// registry, log, span and hooks.
	Pool   launcher.Options
	Fleet  CoordOptions
	Remote cas.Remote

	Obs  *obs.Registry
	Log  io.Writer
	Span *obs.Span
}

// Drive runs the jobs to completion and returns each job's result (index-
// aligned with Jobs; nil where a job did not finish ok) and the run
// summary. It is the one launch driver behind `marshal launch` and
// `firesim`: read the prior journal, carry ok jobs, dispatch the rest to
// the local pool or the fleet, merge, compact the journal into the
// manifest, and drop the checkpoints of terminally finished jobs. The
// error is the summary's (some job not ok) or a failure to keep the record.
func Drive(ctx context.Context, r Run) ([]*Result, *launcher.Summary, error) {
	var prior map[string]launcher.PriorJob
	var jnl *launcher.Journal
	journalPath := r.ManifestPath + ".journal"
	if r.ManifestPath != "" {
		if r.Resume {
			var torn *hostutil.Torn
			var err error
			if prior, torn, err = launcher.ReadPrior(journalPath, r.ManifestPath); err != nil {
				return nil, nil, err
			}
			if torn != nil {
				logf(r.Log, "resume: salvaged journal around %s", torn)
			}
		}
		if err := os.MkdirAll(filepath.Dir(r.ManifestPath), 0o755); err != nil {
			return nil, nil, err
		}
		var err error
		if jnl, err = launcher.OpenJournal(journalPath); err != nil {
			return nil, nil, err
		}
		defer jnl.Close()
	}

	order := make([]string, len(r.Jobs))
	carried := map[string]launcher.Result{}
	results := make([]*Result, len(r.Jobs))
	var fresh []int
	for i, j := range r.Jobs {
		order[i] = j.Name
		p := prior[j.Name]
		if p.Done && p.Record.Status == launcher.StatusOK {
			// Completed before the interruption: carry the recorded result
			// and re-journal it, so a crash during THIS run still knows it.
			// Its files are already in its run directory.
			carried[j.Name] = launcher.CarriedResult(p.Record)
			if err := jnl.Done(p.Record); err != nil {
				return nil, nil, err
			}
			results[i] = &Result{ExitCode: p.Record.Exit, Cycles: p.Record.Cycles}
			logf(r.Log, "resume: %s already ok (attempts=%d), carrying result", j.Name, p.Record.Attempts)
			continue
		}
		if p.InFlight {
			logf(r.Log, "resume: %s was in flight; restoring from its latest checkpoint if one exists", j.Name)
		}
		fresh = append(fresh, i)
	}

	var summary *launcher.Summary
	if len(r.Fleet.Workers) > 0 {
		var err error
		if summary, err = r.fleet(ctx, fresh, prior, jnl, results); err != nil {
			return nil, nil, err
		}
	} else {
		summary = r.pool(ctx, fresh, prior, jnl, results)
	}
	merged := launcher.MergeResumed(order, carried, summary)
	if r.ManifestPath != "" {
		jnl.Close()
		if err := launcher.Compact(journalPath, r.ManifestPath, merged); err != nil {
			return results, merged, err
		}
	}
	if r.CkptDir != "" {
		// Checkpoints of terminally-finished jobs are dead state; cancelled
		// and skipped jobs keep theirs for a later -resume.
		for _, res := range merged.Jobs {
			switch res.Status {
			case launcher.StatusOK, launcher.StatusFailed, launcher.StatusTimeout:
				if err := checkpoint.Clear(r.CkptDir, res.Name); err != nil {
					logf(r.Log, "clearing checkpoint for %s: %v", res.Name, err)
				}
			}
		}
	}
	return results, merged, merged.Err()
}

// pool runs the fresh jobs on local simulation slots.
func (r *Run) pool(ctx context.Context, fresh []int, prior map[string]launcher.PriorJob, jnl *launcher.Journal, results []*Result) *launcher.Summary {
	jobs := make([]launcher.Job, 0, len(fresh))
	for _, i := range fresh {
		i, j := i, r.Jobs[i]
		attempts := prior[j.Name].Attempts
		jobs = append(jobs, launcher.Job{
			Name:    j.Name,
			Prior:   attempts,
			Resumed: r.Resume && attempts > 0,
			Run: func(jctx context.Context, attempt int) (launcher.Metrics, error) {
				if attempt > 1 {
					logf(r.Log, "relaunching %s (attempt %d)", j.Name, attempt)
				}
				res, err := r.attempt(jctx, j)
				if err != nil {
					return launcher.Metrics{}, err
				}
				results[i] = res
				return res.metrics(), nil
			},
		})
	}
	opts := r.Pool
	opts.Journal, opts.Obs, opts.Log, opts.Span = jnl, r.Obs, r.Log, r.Span
	return launcher.New(opts).Run(ctx, jobs)
}

// attempt runs one job in this process: artifacts from their files through
// the kernel into the run directory.
func (r *Run) attempt(ctx context.Context, j Job) (*Result, error) {
	if err := os.RemoveAll(j.Dir); err != nil {
		return nil, err
	}
	bin, err := os.ReadFile(j.Bin)
	if err != nil {
		return nil, fmt.Errorf("job %s has no boot binary (bare-metal base without bin?): %w", j.Name, err)
	}
	x := Exec{
		Name:    j.Name,
		Bin:     bin,
		Sim:     j.Sim,
		RTL:     j.RTL,
		Outputs: j.Outputs,
		Resume:  r.Resume,
		Obs:     r.Obs,
		Log:     r.Log,
	}
	if j.Img != "" {
		x.Img = func() ([]byte, error) { return os.ReadFile(j.Img) }
	}
	if r.CkptStore != nil {
		x.Ckpt = &checkpoint.Config{Store: r.CkptStore, Dir: r.CkptDir, Every: r.CkptEvery}
	}
	if j.Attach != nil {
		release, err := j.Attach(&x)
		if err != nil {
			return nil, err
		}
		if release != nil {
			defer release()
		}
	}
	res, files, err := Execute(ctx, x)
	if err != nil {
		return nil, err
	}
	if err := j.land(files); err != nil {
		return nil, err
	}
	return res, nil
}

// land puts a finished job's files into its run directory and runs its
// Post hook — the common tail of a local attempt and a fleet materialize.
func (j *Job) land(files *Files) error {
	if err := files.WriteDir(j.Dir); err != nil {
		return fmt.Errorf("job %s: %w", j.Name, err)
	}
	if j.Post != nil {
		return j.Post()
	}
	return nil
}

// fleet runs the fresh jobs on the worker fleet. Artifacts travel through
// the shared cache and job specs carry only digests; the coordinator folds
// every worker event into the same journal a local run writes, so -resume
// and the compacted manifest behave identically.
func (r *Run) fleet(ctx context.Context, fresh []int, prior map[string]launcher.PriorJob, jnl *launcher.Journal, results []*Result) (*launcher.Summary, error) {
	if r.Remote == nil {
		return nil, fmt.Errorf("a worker fleet needs a shared artifact cache: set -remote-cache to a `marshal cache serve` server every worker can reach")
	}
	index := map[string]int{}
	specs := make([]JobSpec, 0, len(fresh))
	shipped := shipped{bare: map[string]bool{}, sent: map[string]bool{}}
	for _, i := range fresh {
		j := r.Jobs[i]
		spec, err := r.jobSpec(ctx, j, shipped)
		if err != nil {
			return nil, err
		}
		spec.Prior = prior[j.Name].Attempts
		spec.Resumed = r.Resume && spec.Prior > 0
		if r.Resume && r.CkptDir != "" {
			// An interrupted job's latest checkpoint pointer is on the
			// coordinator; its blobs are already in the shared cache (every
			// snapshot replicates before it is announced), so the pointer
			// alone re-arms a bit-identical mid-exec restore on any worker.
			if ptr, err := checkpoint.LoadPointer(checkpoint.PointerPath(r.CkptDir, j.Name)); err == nil {
				spec.Ckpt, spec.Resumed = ptr, true
				logf(r.Log, "resume: %s will restore on a worker from its checkpoint (instret %d)", j.Name, ptr.Instret)
			}
		}
		index[j.Name] = i
		specs = append(specs, *spec)
	}
	opts := r.Fleet
	opts.Journal, opts.Obs, opts.Log = jnl, r.Obs, r.Log
	opts.OnCheckpoint = func(ptr *checkpoint.Pointer) {
		// Persisting the pointer coordinator-side is what makes a
		// COORDINATOR crash resumable too: -resume finds it here.
		if r.CkptDir == "" {
			return
		}
		if err := checkpoint.WritePointer(r.CkptDir, ptr); err != nil {
			logf(r.Log, "persisting checkpoint pointer for %s: %v", ptr.Job, err)
		}
	}
	opts.OnDone = func(ev Event) (err error) {
		i := index[ev.Job]
		results[i], err = r.materialize(ctx, r.Jobs[i], ev)
		return err
	}
	return Launch(ctx, specs, opts)
}

// shipped is what a drive has sent to the shared cache so far, by digest:
// the boot binaries, each with whether it boots bare, and the disk images.
// The jobs of one workload mostly share a boot binary, so each distinct one
// is read, decoded and uploaded once per drive.
type shipped struct {
	bare map[string]bool
	sent map[string]bool
}

// jobSpec publishes one job's artifacts to the shared cache (those not
// shipped already) and captures everything a worker needs to execute it.
// The artifacts' digests come from the digest cache: a build that just
// published or restored them leaves nothing to hash.
func (r *Run) jobSpec(ctx context.Context, j Job, shipped shipped) (*JobSpec, error) {
	if j.Attach != nil {
		var probe Exec
		release, err := j.Attach(&probe)
		if err != nil {
			return nil, err
		}
		if release != nil {
			release()
		}
		if probe.hostLocal() {
			return nil, fmt.Errorf("job %s attaches host-local state (device drivers, a fabric NIC or a trace); a worker fleet runs pure-CPU jobs only", j.Name)
		}
	}
	if err := os.RemoveAll(j.Dir); err != nil {
		return nil, err
	}
	spec := &JobSpec{
		Name:      j.Name,
		Sim:       j.Sim,
		Outputs:   j.Outputs,
		Timeout:   r.Pool.Timeout,
		Retries:   r.Pool.Retries,
		CkptEvery: r.CkptEvery,
	}
	if j.Sim == "rtl" {
		spec.RTL = &j.RTL
	}
	var err error
	if spec.Bin, _, err = hostutil.FileDigest(j.Bin); err != nil {
		return nil, fmt.Errorf("job %s has no boot binary (bare-metal base without bin?): %w", j.Name, err)
	}
	bare, ok := shipped.bare[spec.Bin]
	if !ok {
		bin, err := os.ReadFile(j.Bin)
		if err != nil {
			return nil, fmt.Errorf("job %s has no boot binary (bare-metal base without bin?): %w", j.Name, err)
		}
		boot, err := firmware.Decode(bin)
		if err != nil {
			return nil, fmt.Errorf("job %s: boot binary: %w", j.Name, err)
		}
		if err := cas.PutBlob(ctx, r.Remote, spec.Bin, bin); err != nil {
			return nil, fmt.Errorf("publishing boot binary for %s: %w", j.Name, err)
		}
		bare = boot.IsBare()
		shipped.bare[spec.Bin] = bare
	}
	if j.Img == "" || bare {
		return spec, nil
	}
	if spec.Img, _, err = hostutil.FileDigest(j.Img); err != nil {
		return nil, fmt.Errorf("job %s: disk image: %w", j.Name, err)
	}
	if !shipped.sent[spec.Img] {
		img, err := os.ReadFile(j.Img)
		if err != nil {
			return nil, fmt.Errorf("job %s: disk image: %w", j.Name, err)
		}
		if err := cas.PutBlob(ctx, r.Remote, spec.Img, img); err != nil {
			return nil, fmt.Errorf("publishing disk image for %s: %w", j.Name, err)
		}
		shipped.sent[spec.Img] = true
	}
	return spec, nil
}

// materialize pulls a finished job's console and outputs from the shared
// cache into its run directory — byte-identical to what a local attempt
// writes. Failed and cancelled jobs have nothing published.
func (r *Run) materialize(ctx context.Context, j Job, ev Event) (*Result, error) {
	if ev.Record == nil || ev.Record.Status != launcher.StatusOK {
		return nil, nil
	}
	files := &Files{Outputs: make(map[string][]byte, len(ev.Outputs))}
	var err error
	if files.Console, err = cas.GetBlob(ctx, r.Remote, ev.Console); err != nil {
		return nil, fmt.Errorf("fetching console for %s: %w", j.Name, err)
	}
	for rel, digest := range ev.Outputs {
		if files.Outputs[rel], err = cas.GetBlob(ctx, r.Remote, digest); err != nil {
			return nil, fmt.Errorf("fetching output %s for %s: %w", rel, j.Name, err)
		}
	}
	if err := j.land(files); err != nil {
		return nil, err
	}
	return &Result{
		ExitCode: ev.Record.Exit,
		Cycles:   ev.Record.Cycles,
		Stats:    ev.Stats,
		HostTime: time.Duration(ev.Record.WallMS * float64(time.Millisecond)),
	}, nil
}

// PutBlob publishes data to the shared cache and returns its digest.
func PutBlob(ctx context.Context, rem cas.Remote, data []byte) (string, error) {
	digest := hostutil.HashBytes(data)
	return digest, cas.PutBlob(ctx, rem, digest, data)
}

// WriteObsFiles persists a run's observability artifacts: the span trace
// at tracePath and a metrics snapshot at metricsPath ("" skips either).
// Failures are logged, never fatal — observability must not fail a run
// that otherwise succeeded.
func WriteObsFiles(tracer *obs.Tracer, tracePath, metricsPath string, reg *obs.Registry, log io.Writer) {
	if tracePath != "" {
		var buf bytes.Buffer
		if err := tracer.WriteJSONL(&buf); err == nil {
			if err := hostutil.WriteFileAtomic(tracePath, buf.Bytes(), 0o644); err != nil {
				logf(log, "writing trace: %v", err)
			}
		}
	}
	if metricsPath != "" {
		if err := hostutil.WriteFileAtomic(metricsPath, reg.EncodeSnapshot(), 0o644); err != nil {
			logf(log, "writing metrics snapshot: %v", err)
		}
	}
}
