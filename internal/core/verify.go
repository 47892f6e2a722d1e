// `marshal verify-farm`: the continuous differential-verification farm.
// Locally it runs verify.RunFarm straight against this checkout's cache;
// with -workers it shards the seed list across a worker fleet, one
// launch-driver job per shard, then merges the shard manifests into one
// global view (coverage unioned, signatures re-deduped). Either way the
// result is a JSONL farm manifest plus minimized repro workloads in the CAS.
package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"firemarshal/internal/hostutil"
	"firemarshal/internal/launcher"
	"firemarshal/internal/launcher/remote"
	"firemarshal/internal/verify"
)

// VerifyOpts configures a farm session: its verify.Params plus where it
// runs and where its manifest lands.
type VerifyOpts struct {
	verify.Params
	// Jobs is a local farm's evaluation parallelism (0 = GOMAXPROCS). A
	// fleet shard runs at its worker's GOMAXPROCS, so Jobs with Workers is
	// an error.
	Jobs int
	// Timeout time-boxes the whole session (0 = unbounded).
	Timeout time.Duration
	// Out is the merged manifest path (default <workdir>/verify/farm.jsonl).
	Out string

	// Workers, when non-empty, shards the farm across a fleet; WorkerPoll
	// is the coordinator's heartbeat bound, as in LaunchOpts.
	Workers    []string
	WorkerPoll time.Duration
}

// VerifyResult is what a farm session (local or fleet) produced.
type VerifyResult struct {
	*verify.FarmSummary
	// Manifest is where the (merged) JSONL manifest was written.
	Manifest string
}

// VerifyFarm runs one verification-farm session.
func (m *Marshal) VerifyFarm(ctx context.Context, opts VerifyOpts) (*VerifyResult, error) {
	if len(opts.Seeds) == 0 {
		return nil, fmt.Errorf("core: verify-farm needs at least one seed (-seeds)")
	}
	if opts.Jobs != 0 && len(opts.Workers) > 0 {
		return nil, fmt.Errorf("core: verify-farm -j sets a local farm's parallelism; with -workers each shard runs at its worker's GOMAXPROCS (drop -j or -workers)")
	}
	out := opts.Out
	if out == "" {
		out = filepath.Join(m.WorkDir, "verify", "farm.jsonl")
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return nil, err
	}
	// A fresh session's manifest must not append to a prior one's, nor a
	// failed session leave a prior one's to be read as its own.
	if err := os.Remove(out); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}
	if len(opts.Workers) > 0 {
		return m.verifyFleet(ctx, opts, out)
	}

	cache, err := m.Cache()
	if err != nil {
		return nil, err
	}
	jnl, err := launcher.OpenJournal(out)
	if err != nil {
		return nil, err
	}
	defer jnl.Close()
	sum, err := verify.RunFarm(verify.FarmOptions{
		Params:  opts.Params,
		Store:   cache.Local(),
		Journal: jnl,
		Jobs:    opts.Jobs,
		Obs:     m.Obs,
		Log:     m.Log,
		Ctx:     ctx,
	})
	if err != nil {
		return nil, err
	}
	return &VerifyResult{FarmSummary: sum, Manifest: out}, nil
}

// verifyFleet shards the seed list round-robin across the fleet, runs
// each shard as one job through the launch driver, and merges the shard
// manifests. Workloads regenerate deterministically from seeds on the
// worker, so shards ship no artifacts; each shard's manifest and repros
// come back as its outputs, landed in its run directory like any job's.
// A shard that is not ok fails the session: a merge without it would
// report a clean farm for workloads nobody checked.
func (m *Marshal) verifyFleet(ctx context.Context, opts VerifyOpts, out string) (*VerifyResult, error) {
	cache, err := m.Cache()
	if err != nil {
		return nil, err
	}

	// A capped farm runs on no more shards than the cap: every shard
	// evaluates at least one entry, since a zero cap means "unlimited".
	nShards := min(len(opts.Workers), len(opts.Seeds))
	if opts.MaxEntries > 0 {
		nShards = min(nShards, opts.MaxEntries)
	}
	dir := filepath.Dir(out)
	run := remote.Run{
		ManifestPath: filepath.Join(dir, "fleet.jsonl"),
		Fleet:        remote.CoordOptions{Workers: opts.Workers, Poll: opts.WorkerPoll},
		Remote:       cache.Remote(),
		Obs:          m.Obs,
		Log:          m.Log,
	}
	for i := range nShards {
		p := opts.Params
		p.Seeds = nil
		for j := i; j < len(opts.Seeds); j += nShards {
			p.Seeds = append(p.Seeds, opts.Seeds[j])
		}
		if opts.MaxEntries > 0 {
			// Split the global cap evenly; shard i gets the remainder slot
			// when the cap does not divide (matches the seed round-robin).
			p.MaxEntries = opts.MaxEntries / nShards
			if i < opts.MaxEntries%nShards {
				p.MaxEntries++
			}
		}
		// Offset the farm seed so shards mutate independently.
		p.FarmSeed += int64(i) * 1_000_003
		name := fmt.Sprintf("verify-shard-%d", i)
		run.Jobs = append(run.Jobs, remote.Job{Name: name, Sim: "verify", Verify: &p, Dir: filepath.Join(dir, "shards", name)})
	}
	if _, _, err := remote.Drive(ctx, run); err != nil {
		return nil, fmt.Errorf("core: verify-farm: %w", err)
	}

	// Merge in shard order, not completion order: the merged manifest is
	// deterministic.
	shards := make([][]verify.FarmRecord, nShards)
	sums := make([]*verify.FarmSummaryRecord, nShards)
	reproDir := map[string]string{} // repro digest → the first shard directory holding it
	for i, j := range run.Jobs {
		data, err := os.ReadFile(filepath.Join(j.Dir, remote.VerifyManifestOutput))
		if err != nil {
			return nil, err
		}
		if shards[i], sums[i], err = verify.ParseManifest(data); err != nil {
			return nil, fmt.Errorf("core: %s manifest: %w", j.Name, err)
		}
		for _, rec := range shards[i] {
			if rec.Repro != "" && reproDir[rec.Repro] == "" {
				reproDir[rec.Repro] = j.Dir
			}
		}
	}
	merged := verify.MergeShards(shards, sums)

	// Store every repro the merged manifest keeps in the local store, then
	// write the merged manifest: entries in shard order plus a global
	// summary line. A repro crossed the wire as a shard output: bytes that
	// do not hash to the name its manifest gives them fail the session.
	for _, digest := range merged.Repros {
		data, err := os.ReadFile(filepath.Join(reproDir[digest], remote.ReproOutput+digest))
		if err != nil {
			return nil, err
		}
		if got := hostutil.HashBytes(data); got != digest {
			return nil, fmt.Errorf("core: repro %s landed from %s hashes to %s", digest, reproDir[digest], got)
		}
		if _, err := cache.Local().Put(data); err != nil {
			return nil, err
		}
	}
	manifest, err := merged.Manifest()
	if err != nil {
		return nil, err
	}
	if err := hostutil.WriteFileAtomic(out, manifest, 0o644); err != nil {
		return nil, err
	}
	return &VerifyResult{FarmSummary: merged, Manifest: out}, nil
}
