// Verification-farm shards on the worker fleet: a JobSpec with Verify
// set runs a whole farm session (generate → lockstep → bisect → dedup)
// on the worker instead of booting a guest. The shard's manifest and
// every minimized repro it found are published to the shared cache, so
// the coordinator can merge shards and fetch repros without ever talking
// to the worker again — the same artifact-purity contract regular jobs
// have, with zero artifacts shipped forward (workloads regenerate from
// seeds).
package remote

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"

	"firemarshal/internal/launcher"
	"firemarshal/internal/verify"
)

// VerifyManifestOutput is the Outputs key under which a farm shard's
// JSONL manifest is announced.
const VerifyManifestOutput = "farm.jsonl"

// runVerify executes one farm shard. The farm journal is written to a
// scratch file (the worker keeps no run directory for farm shards) and
// published wholesale; Metrics.Instrs totals the shard's simulated
// instructions so coordinator summaries show throughput.
func (r *ArtifactRunner) runVerify(ctx context.Context, spec JobSpec, emit func(Event)) (*RunOutput, error) {
	dir, err := os.MkdirTemp("", "marshal-verify-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	manifestPath := filepath.Join(dir, VerifyManifestOutput)
	jnl, err := launcher.OpenJournal(manifestPath)
	if err != nil {
		return nil, err
	}

	logf(r.Log, "remote: job %s running verify-farm shard (%d seeds)", spec.Name, len(spec.Verify.Seeds))
	sum, farmErr := verify.RunFarm(verify.FarmOptions{
		Params:  *spec.Verify,
		Store:   r.Store,
		Journal: jnl,
		Obs:     r.Obs,
		Log:     r.Log,
		Ctx:     ctx,
	})
	jnl.Close()
	if farmErr != nil {
		return nil, fmt.Errorf("remote: job %s: farm: %w", spec.Name, farmErr)
	}

	// Replicate repros first — once the manifest is visible its repro
	// digests must resolve from the shared cache.
	for _, digest := range sum.Repros {
		data, err := r.Store.Get(digest)
		if err != nil {
			return nil, fmt.Errorf("remote: job %s: repro %s: %w", spec.Name, digest, err)
		}
		if _, err := PutBlob(ctx, r.Remote, data); err != nil {
			return nil, fmt.Errorf("remote: job %s: publishing repro: %w", spec.Name, err)
		}
	}
	manifest, err := os.ReadFile(manifestPath)
	if err != nil {
		return nil, err
	}
	manifestDigest, err := PutBlob(ctx, r.Remote, manifest)
	if err != nil {
		return nil, fmt.Errorf("remote: job %s: publishing farm manifest: %w", spec.Name, err)
	}

	var instrs uint64
	for _, rec := range sum.Records {
		instrs += rec.Instret
	}
	var console bytes.Buffer
	fmt.Fprintf(&console, "verify-farm shard %s: %d entries, %d divergences, %d unique signatures\n%s",
		spec.Name, sum.Entries, sum.Divergences, len(sum.Signatures), sum.Coverage.Report())
	consoleDigest, err := PutBlob(ctx, r.Remote, console.Bytes())
	if err != nil {
		return nil, err
	}
	return &RunOutput{
		// A shard that FOUND divergences still exits 0: the farm ran to
		// completion; findings are data, judged by the coordinator.
		Metrics: launcher.Metrics{Instrs: instrs, Cycles: instrs},
		Console: consoleDigest,
		Outputs: map[string]string{VerifyManifestOutput: manifestDigest},
	}, nil
}
