package remote

import (
	"context"
	"fmt"
	"io"

	"firemarshal/internal/cas"
	"firemarshal/internal/checkpoint"
	"firemarshal/internal/launcher"
	"firemarshal/internal/obs"
	"firemarshal/internal/sim/rtlsim"
)

// RunOutput is what one successful job execution produces, everything
// already published to the remote cache: the coordinator materializes the
// run directory from these digests.
type RunOutput struct {
	Metrics launcher.Metrics
	// Console is the CAS digest of the full console transcript.
	Console string
	// Outputs maps run-directory-relative paths to CAS digests.
	Outputs map[string]string
	// Stats is the cycle-exact timing breakdown (rtl jobs; nil otherwise).
	Stats *rtlsim.Stats
}

// Runner executes one leased job attempt. emit publishes protocol events
// mid-run (checkpoint announcements); start and done events are the
// worker's own. Implementations must honor ctx — the worker threads each
// attempt's context (timeout, shutdown) through it.
type Runner interface {
	Run(ctx context.Context, spec JobSpec, emit func(Event)) (*RunOutput, error)
}

// RunnerFunc adapts a function to the Runner interface (test fakes).
type RunnerFunc func(ctx context.Context, spec JobSpec, emit func(Event)) (*RunOutput, error)

func (f RunnerFunc) Run(ctx context.Context, spec JobSpec, emit func(Event)) (*RunOutput, error) {
	return f(ctx, spec, emit)
}

// ArtifactRunner is the production Runner: it materializes a job's boot
// binary and disk image from the shared remote cache into the worker's
// local store, simulates the job (functional or cycle-exact per the
// spec) or runs its farm shard, checkpoints into the shared cache when
// asked, and publishes the console and outputs there (and only there). It
// holds no per-job state — one runner serves every lease a worker accepts,
// concurrently.
type ArtifactRunner struct {
	// Store is the worker's local CAS (artifact staging + checkpoints).
	Store *cas.Store
	// Remote is the shared cache every artifact and checkpoint flows
	// through (required — a fleet without a shared cache cannot exist).
	Remote cas.Remote
	// CkptDir holds the worker's checkpoint pointer files.
	CkptDir string
	// Obs is the registry sim/checkpoint metrics report into.
	Obs *obs.Registry
	// Log receives progress messages.
	Log io.Writer
}

// Run executes one attempt of the spec'd job — a guest through the
// execution kernel, or a farm shard — and publishes its console and
// outputs to the shared cache.
func (r *ArtifactRunner) Run(ctx context.Context, spec JobSpec, emit func(Event)) (*RunOutput, error) {
	var res *Result
	var files *Files
	var err error
	if spec.Verify != nil {
		res, files, err = r.runShard(ctx, spec)
	} else {
		res, files, err = r.execute(ctx, spec, emit)
	}
	if err != nil {
		return nil, err
	}
	out := &RunOutput{Metrics: res.metrics(), Stats: res.Stats}
	if out.Console, err = PutBlob(ctx, r.Remote, files.Console); err != nil {
		return nil, fmt.Errorf("remote: job %s: publishing console: %w", spec.Name, err)
	}
	if len(files.Outputs) > 0 {
		out.Outputs = make(map[string]string, len(files.Outputs))
	}
	for rel, data := range files.Outputs {
		if out.Outputs[rel], err = PutBlob(ctx, r.Remote, data); err != nil {
			return nil, fmt.Errorf("remote: job %s: publishing output %s: %w", spec.Name, rel, err)
		}
	}
	return out, nil
}

// execute runs one attempt of a guest job: artifacts come out of the
// shared cache, the attempt runs through the execution kernel.
func (r *ArtifactRunner) execute(ctx context.Context, spec JobSpec, emit func(Event)) (*Result, *Files, error) {
	// Artifacts come by cas.Cache's rule: local first, remote fallback with
	// write-back, a corrupt local copy healed (cas_blobs_healed_total).
	cache := cas.NewCache(r.Store, r.Remote)
	cache.SetObs(r.Obs)
	cache.SetContext(ctx)
	bin, err := cache.Blob(spec.Bin)
	if err != nil {
		return nil, nil, fmt.Errorf("remote: job %s: boot binary: %w", spec.Name, err)
	}
	x := Exec{
		Name:    spec.Name,
		Bin:     bin,
		Sim:     spec.Sim,
		Outputs: spec.Outputs,
		Obs:     r.Obs,
		Log:     r.Log,
	}
	if spec.Img != "" {
		x.Img = func() ([]byte, error) { return cache.Blob(spec.Img) }
	}
	if spec.RTL != nil {
		x.RTL = *spec.RTL
	}

	// Checkpointing: a handed-off pointer is fetched from the shared cache
	// and staged locally before the runtime opens it; every snapshot this
	// attempt takes is replicated back and announced, so the NEXT handoff
	// can happen from here. sent is what the remote has already: a snapshot
	// sends only the blobs that are not in it — a handed-off checkpoint's
	// came from there, and after the attempt's first snapshot each one adds
	// a single pack.
	sent := map[string]bool{}
	if spec.Ckpt != nil {
		cp, err := checkpoint.Fetch(ctx, r.Store, r.Remote, spec.Ckpt)
		if err != nil {
			return nil, nil, fmt.Errorf("remote: job %s: fetching checkpoint: %w", spec.Name, err)
		}
		for _, digest := range cp.Refs() {
			sent[digest] = true
		}
		// The staged file is the handed-off pointer alone, whatever an
		// earlier attempt at this job left on this worker.
		if err := checkpoint.Clear(r.CkptDir, spec.Name); err != nil {
			return nil, nil, err
		}
		if err := checkpoint.WritePointer(r.CkptDir, spec.Ckpt); err != nil {
			return nil, nil, err
		}
		logf(r.Log, "remote: job %s restoring from handed-off checkpoint (exec %d, instret %d)",
			spec.Name, spec.Ckpt.Exec, spec.Ckpt.Instret)
	}
	if spec.CkptEvery > 0 || spec.Ckpt != nil {
		x.Resume = spec.Ckpt != nil
		x.Ckpt = &checkpoint.Config{
			Store: r.Store,
			Dir:   r.CkptDir,
			Every: spec.CkptEvery,
			OnSnapshot: func(ptr checkpoint.Pointer, cp *checkpoint.Checkpoint) error {
				if err := checkpoint.Push(ctx, r.Store, r.Remote, cp, sent); err != nil {
					return err
				}
				emit(Event{Type: EventCheckpoint, Job: spec.Name, Ckpt: &ptr})
				return nil
			},
		}
	}

	return Execute(ctx, x)
}
