// `marshal verify-farm`: the continuous differential-verification farm.
// Locally it runs verify.RunFarm straight against this checkout's cache;
// with -workers it shards the seed list across a worker fleet via the
// distributed launcher, then merges the shard manifests into one global
// view (coverage unioned, signatures re-deduped). Either way the result
// is a JSONL farm manifest plus minimized repro workloads in the CAS.
package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"firemarshal/internal/cas"
	"firemarshal/internal/launcher"
	"firemarshal/internal/launcher/remote"
	"firemarshal/internal/verify"
)

// VerifyOpts configures a farm session: its verify.Params plus where it
// runs and where its manifest lands.
type VerifyOpts struct {
	verify.Params
	// Jobs is per-machine evaluation parallelism (0 = GOMAXPROCS).
	Jobs int
	// Timeout time-boxes the whole session (0 = unbounded).
	Timeout time.Duration
	// Out is the merged manifest path (default <workdir>/verify/farm.jsonl).
	Out string

	// Workers, when non-empty, shards the farm across a fleet; the
	// remaining fields tune the coordinator exactly as LaunchOpts does.
	Workers        []string
	WorkerLeaseTTL time.Duration
	WorkerPoll     time.Duration
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
	out := opts.Out
	if out == "" {
		out = filepath.Join(m.WorkDir, "verify", "farm.jsonl")
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
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
	// A fresh session's manifest must not append to a prior one's.
	if err := os.Remove(out); err != nil && !os.IsNotExist(err) {
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
// each shard as one distributed job, and merges the shard manifests.
// Workloads regenerate deterministically from seeds on the worker, so
// shard specs carry parameters only — no artifacts are published
// forward, yet repros and manifests flow back through the shared cache
// like any job output.
func (m *Marshal) verifyFleet(ctx context.Context, opts VerifyOpts, out string) (*VerifyResult, error) {
	cache, err := m.Cache()
	if err != nil {
		return nil, err
	}
	if cache.Remote() == nil {
		return nil, fmt.Errorf("core: distributed verify-farm needs a shared artifact cache: set -remote-cache to a `marshal cache serve` server every worker can reach")
	}

	// A capped farm runs on no more shards than the cap: every shard
	// evaluates at least one entry, since a zero cap means "unlimited".
	nShards := min(len(opts.Workers), len(opts.Seeds))
	if opts.MaxEntries > 0 {
		nShards = min(nShards, opts.MaxEntries)
	}
	specs := make([]remote.JobSpec, nShards)
	for i := range specs {
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
		specs[i] = remote.JobSpec{Name: fmt.Sprintf("verify-shard-%d", i), Sim: "verify", Verify: &p}
	}

	// Collect each shard's manifest digest; merge AFTER Launch returns so
	// the merged manifest is deterministic in shard order, not completion
	// order.
	fleetJnl, err := launcher.OpenJournal(filepath.Join(filepath.Dir(out), "fleet.jsonl"))
	if err != nil {
		return nil, err
	}
	defer fleetJnl.Close()
	manifests := make([]string, nShards)
	_, err = remote.Launch(ctx, specs, remote.CoordOptions{
		Workers:  opts.Workers,
		Journal:  fleetJnl,
		LeaseTTL: opts.WorkerLeaseTTL,
		Poll:     opts.WorkerPoll,
		Obs:      m.Obs,
		Log:      m.Log,
		OnDone: func(ev remote.Event) error {
			if ev.Record == nil || ev.Record.Status != launcher.StatusOK {
				return nil
			}
			var i int
			if _, err := fmt.Sscanf(ev.Job, "verify-shard-%d", &i); err != nil || i < 0 || i >= nShards {
				return nil
			}
			manifests[i] = ev.Outputs[remote.VerifyManifestOutput]
			return nil
		},
	})
	if err != nil {
		return nil, err
	}

	shards := make([][]verify.FarmRecord, 0, nShards)
	sums := make([]*verify.FarmSummaryRecord, 0, nShards)
	for i, digest := range manifests {
		if digest == "" {
			m.logf("verify-farm: shard %d produced no manifest (failed or cancelled)", i)
			continue
		}
		data, err := cas.GetBlob(ctx, cache.Remote(), digest)
		if err != nil {
			return nil, fmt.Errorf("core: fetching shard %d manifest: %w", i, err)
		}
		recs, sum, err := verify.ParseManifest(data)
		if err != nil {
			return nil, fmt.Errorf("core: shard %d manifest: %w", i, err)
		}
		shards = append(shards, recs)
		sums = append(sums, sum)
	}
	merged := verify.MergeShards(shards, sums)

	// Pull every repro into the local store, then write the merged
	// manifest: entries in shard order plus a global summary line.
	for sig, digest := range merged.Repros {
		data, err := cas.GetBlob(ctx, cache.Remote(), digest)
		if err == nil {
			_, err = cache.Local().Put(data)
		}
		if err != nil {
			return nil, fmt.Errorf("core: fetching repro for %s: %w", sig, err)
		}
	}
	if err := os.Remove(out); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	jnl, err := launcher.OpenJournal(out)
	if err != nil {
		return nil, err
	}
	defer jnl.Close()
	for _, rec := range merged.Records {
		if err := jnl.AppendLine(rec); err != nil {
			return nil, err
		}
	}
	if err := jnl.AppendLine(verify.FarmSummaryRecord{
		Event:       "summary",
		Entries:     merged.Entries,
		Divergences: merged.Divergences,
		Signatures:  merged.Signatures,
		Coverage:    merged.Coverage,
		Ratio:       merged.Coverage.Ratio(),
	}); err != nil {
		return nil, err
	}
	return &VerifyResult{FarmSummary: merged, Manifest: out}, nil
}
