package core

import (
	"context"
	"os"
	"testing"
	"time"

	"firemarshal/internal/verify"
)

// TestVerifyFarmLocal: the local verify-farm path end to end — a clean
// corpus produces a manifest at the default location, zero divergences,
// and nonzero coverage.
func TestVerifyFarmLocal(t *testing.T) {
	e := newEnv(t)
	res, err := e.m.VerifyFarm(context.Background(), VerifyOpts{
		Params: verify.Params{Seeds: []int64{1, 2, 3}, Rounds: 0},
		Jobs:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Entries != 3 || res.Divergences != 0 || len(res.Signatures) != 0 {
		t.Errorf("clean farm: entries=%d divergences=%d signatures=%d",
			res.Entries, res.Divergences, len(res.Signatures))
	}
	if res.Coverage.Ratio() == 0 {
		t.Error("farm collected no coverage")
	}
	data, err := os.ReadFile(res.Manifest)
	if err != nil {
		t.Fatal(err)
	}
	recs, sum, err := verify.ParseManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || sum == nil {
		t.Errorf("manifest: %d records, summary=%v", len(recs), sum)
	}
}

// TestVerifyFarmBadOpts: usage errors surface before any simulation.
func TestVerifyFarmBadOpts(t *testing.T) {
	e := newEnv(t)
	if _, err := e.m.VerifyFarm(context.Background(), VerifyOpts{}); err == nil {
		t.Error("no seeds: want error")
	}
}

// TestVerifyFarmFleetMatchesLocal: the same corpus evaluated locally and
// sharded across a 2-worker fleet reaches the same verdicts — same entry
// count, same divergence count, same signature set. Sharding is an
// execution detail, not a semantic one.
func TestVerifyFarmFleetMatchesLocal(t *testing.T) {
	e := newEnv(t)
	seeds := []int64{1, 2, 3, 4}
	// The Marshal's cache opens lazily and only binds the remote it sees
	// then — stand the shared cache up before the first (local) run.
	srv := startSharedCache(t, e.m)
	addrs, _, _ := startWorkerFleet(t, srv.URL, 2)

	local, err := e.m.VerifyFarm(context.Background(), VerifyOpts{Params: verify.Params{Seeds: seeds, Rounds: 0}})
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := e.m.VerifyFarm(context.Background(), VerifyOpts{
		Params:     verify.Params{Seeds: seeds, Rounds: 0},
		Workers:    addrs,
		WorkerPoll: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fleet.Entries != local.Entries || fleet.Divergences != local.Divergences {
		t.Errorf("fleet entries=%d divergences=%d, local entries=%d divergences=%d",
			fleet.Entries, fleet.Divergences, local.Entries, local.Divergences)
	}
	if len(fleet.Signatures) != len(local.Signatures) {
		t.Errorf("fleet signatures=%v, local=%v", fleet.Signatures, local.Signatures)
	}
	// Workloads regenerate from seeds on the workers: each shard's entries
	// must carry the same source digests the local run computed.
	wantSrc := map[int64]string{}
	for _, r := range local.Records {
		wantSrc[r.Seed] = r.Source
	}
	for _, r := range fleet.Records {
		if r.Source != wantSrc[r.Seed] {
			t.Errorf("seed %d source digest %s on fleet, want %s", r.Seed, r.Source, wantSrc[r.Seed])
		}
	}
}

// TestVerifyFarmFleetHonorsMaxEntries: a capped farm evaluates as many
// entries on a fleet as it does locally, even when the cap is smaller than
// the fleet: no shard is handed an entry the cap does not allow.
func TestVerifyFarmFleetHonorsMaxEntries(t *testing.T) {
	e := newEnv(t)
	srv := startSharedCache(t, e.m)
	addrs, _, _ := startWorkerFleet(t, srv.URL, 2)

	params := verify.Params{Seeds: []int64{1, 2, 3, 4}, Rounds: 0, MaxEntries: 1}
	local, err := e.m.VerifyFarm(context.Background(), VerifyOpts{Params: params})
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := e.m.VerifyFarm(context.Background(), VerifyOpts{
		Params:     params,
		Workers:    addrs,
		WorkerPoll: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if local.Entries != 1 || fleet.Entries != local.Entries {
		t.Errorf("MaxEntries 1: fleet evaluated %d entries, local %d", fleet.Entries, local.Entries)
	}
}

// TestVerifyFarmFleetDedupAcrossShards is the global-dedup contract: two
// shards that each catch the SAME injected bug (same seed, same fault)
// must merge to ONE unique signature, counted once per hit, with a
// single repro — fetched into the coordinator's local store.
func TestVerifyFarmFleetDedupAcrossShards(t *testing.T) {
	e := newEnv(t)
	srv := startSharedCache(t, e.m)
	addrs, _, _ := startWorkerFleet(t, srv.URL, 2)

	// Four copies of one seed, round-robined two per shard: every entry
	// diverges identically, on both workers.
	res, err := e.m.VerifyFarm(context.Background(), VerifyOpts{
		Params: verify.Params{
			Seeds:  []int64{7, 7, 7, 7},
			Rounds: 0,
			Fault:  &verify.Fault{Tier: verify.TierFast, Instr: 500, Reg: 27, Xor: 1},
		},
		Workers:    addrs,
		WorkerPoll: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Entries != 4 || res.Divergences != 4 {
		t.Fatalf("entries=%d divergences=%d, want 4/4", res.Entries, res.Divergences)
	}
	if len(res.Signatures) != 1 {
		t.Fatalf("signatures = %v, want exactly one after cross-shard dedup", res.Signatures)
	}
	var sig string
	for s, n := range res.Signatures {
		sig = s
		if n != 4 {
			t.Errorf("signature %s count = %d, want 4", s, n)
		}
	}
	newSigs := 0
	for _, r := range res.Records {
		if r.NewSig {
			newSigs++
		}
		if r.Div != nil && r.Div.Instr != 500 {
			t.Errorf("entry %d bisected to instr %d, want 500", r.Entry, r.Div.Instr)
		}
	}
	if newSigs != 1 {
		t.Errorf("new_sig marks = %d, want 1", newSigs)
	}
	repro, ok := res.Repros[sig]
	if !ok || repro == "" {
		t.Fatalf("no repro for %s", sig)
	}
	cache, err := e.m.Cache()
	if err != nil {
		t.Fatal(err)
	}
	if !cache.Local().Has(repro) {
		t.Errorf("repro %s not fetched into the coordinator's store", repro)
	}
	// The merged manifest round-trips.
	data, err := os.ReadFile(res.Manifest)
	if err != nil {
		t.Fatal(err)
	}
	recs, sum, err := verify.ParseManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 || sum == nil || len(sum.Signatures) != 1 {
		t.Errorf("merged manifest: %d records, summary %+v", len(recs), sum)
	}
}
