package remote

import (
	"context"
	"errors"
	"testing"

	"firemarshal/internal/cas"
	"firemarshal/internal/verify"
)

// TestFarmShardOutputs: a finished shard's result is its manifest as the
// farm.jsonl output; a shard whose context ends first has checked only
// some of its entries, so it fails instead of passing a partial manifest
// off as an ok result.
func TestFarmShardOutputs(t *testing.T) {
	store, err := cas.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := &ArtifactRunner{Store: store}
	spec := JobSpec{Name: "shard", Sim: "verify", Verify: &verify.Params{Seeds: []int64{1, 2}}}

	res, files, err := r.runShard(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	recs, sum, err := verify.ParseManifest(files.Outputs[VerifyManifestOutput])
	if err != nil || len(recs) != 2 || sum == nil || sum.Entries != 2 {
		t.Fatalf("manifest output: %d records, summary %+v, err %v", len(recs), sum, err)
	}
	if res.Cycles != recs[0].Instret+recs[1].Instret || len(files.Console) == 0 {
		t.Errorf("shard result: %d cycles for %d+%d instructions, console %q", res.Cycles, recs[0].Instret, recs[1].Instret, files.Console)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := r.runShard(ctx, spec); !errors.Is(err, context.Canceled) {
		t.Errorf("shard cut short: err = %v, want context.Canceled", err)
	}
}
