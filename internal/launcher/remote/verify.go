// Verification-farm shards on the worker fleet: a JobSpec with Verify
// set runs a whole farm session (generate → lockstep → bisect → dedup)
// on the worker instead of booting a guest. The shard's result is an
// ordinary job result — its manifest and every minimized repro it found
// are its outputs, published and landed like any job's — with zero
// artifacts shipped forward (workloads regenerate from seeds).
package remote

import (
	"context"
	"fmt"

	"firemarshal/internal/verify"
)

// Where a farm shard's files land in its run directory: the shard's JSONL
// manifest, and each repro its manifest names under ReproOutput + digest.
const (
	VerifyManifestOutput = "farm.jsonl"
	ReproOutput          = "repros/"
)

// runShard executes one farm shard. Its console is a one-line summary and
// the coverage report; Cycles totals the shard's simulated instructions
// so coordinator summaries show throughput.
func (r *ArtifactRunner) runShard(ctx context.Context, spec JobSpec) (*Result, *Files, error) {
	logf(r.Log, "remote: job %s running verify-farm shard (%d seeds)", spec.Name, len(spec.Verify.Seeds))
	sum, err := verify.RunFarm(verify.FarmOptions{
		Params: *spec.Verify,
		Store:  r.Store,
		Obs:    r.Obs,
		Log:    r.Log,
		Ctx:    ctx,
	})
	if err == nil {
		err = ctx.Err() // a farm cut short has not checked all its entries
	}
	if err != nil {
		return nil, nil, fmt.Errorf("remote: job %s: farm: %w", spec.Name, err)
	}
	manifest, err := sum.Manifest()
	if err != nil {
		return nil, nil, err
	}
	files := &Files{Outputs: map[string][]byte{VerifyManifestOutput: manifest}}
	for _, digest := range sum.Repros {
		if files.Outputs[ReproOutput+digest], err = r.Store.Get(digest); err != nil {
			return nil, nil, fmt.Errorf("remote: job %s: repro %s: %w", spec.Name, digest, err)
		}
	}
	files.Console = fmt.Appendf(nil, "verify-farm shard %s: %d entries, %d divergences, %d unique signatures\n%s",
		spec.Name, sum.Entries, sum.Divergences, len(sum.Signatures), sum.Coverage.Report())

	var instrs uint64
	for _, rec := range sum.Records {
		instrs += rec.Instret
	}
	// A shard that FOUND divergences still exits 0: the farm ran to
	// completion; findings are data, judged by the coordinator.
	return &Result{Cycles: instrs}, files, nil
}
