package core

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"
)

// TestChaosRunSurvivesFaultSchedule is the in-tree version of the chaos
// gate: a 3-worker loopback fleet under the default fault schedule must
// produce bit-identical results to a clean fleet, lose no jobs, and
// exercise the self-heal path (every worker store starts with planted
// corrupt artifact blobs).
func TestChaosRunSurvivesFaultSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run spins up two fleets")
	}
	e := newEnv(t)
	e.write(t, "chaoswl.json", `{
  "name": "chaoswl", "base": "br-base",
  "jobs": [
    {"name": "a", "command": "echo chaos-a"},
    {"name": "b", "command": "echo chaos-b"}
  ]}`)

	var out bytes.Buffer
	report, err := e.m.Chaos(context.Background(), "chaoswl", ChaosOpts{
		Seed:         7,
		Workers:      3,
		SlowJobDelay: 700 * time.Millisecond,
		Out:          &out,
	})
	if err != nil {
		t.Fatalf("chaos run: %v\n%s", err, out.String())
	}
	if !report.Identical() {
		t.Fatalf("mismatches: %v", report.Mismatches)
	}
	if len(report.Jobs) != 2 {
		t.Fatalf("jobs = %d, want 2", len(report.Jobs))
	}
	if report.Healed == 0 {
		t.Errorf("cas_blobs_healed_total = 0; planted corrupt blobs should have self-healed\n%s", out.String())
	}
	if report.HTTPFaults == 0 {
		t.Errorf("chaos_http_faults_total = 0; the schedule injected nothing")
	}
	if !strings.Contains(out.String(), "chaos: PASS") {
		t.Errorf("report missing PASS line:\n%s", out.String())
	}
}

// TestChaosScheduleReplay: the same seed prints the same fingerprint and
// report lines run-to-run — the replayability half of the chaos gate.
func TestChaosFingerprintStable(t *testing.T) {
	e := newEnv(t)
	e.write(t, "fp.json", `{"name": "fp", "base": "br-base", "command": "true"}`)
	// Fingerprints come straight from the plan; two Chaos invocations with
	// one seed must agree, and a different seed must differ.
	var a, b bytes.Buffer
	ra, err := e.m.Chaos(context.Background(), "fp", ChaosOpts{Seed: 42, Workers: 2, SlowJobDelay: 50 * time.Millisecond, Out: &a})
	if err != nil {
		t.Fatalf("seed 42 run 1: %v\n%s", err, a.String())
	}
	rb, err := e.m.Chaos(context.Background(), "fp", ChaosOpts{Seed: 42, Workers: 2, SlowJobDelay: 50 * time.Millisecond, Out: &b})
	if err != nil {
		t.Fatalf("seed 42 run 2: %v\n%s", err, b.String())
	}
	if ra.Fingerprint != rb.Fingerprint {
		t.Errorf("same seed, fingerprints %s != %s", ra.Fingerprint, rb.Fingerprint)
	}
	rc, err := e.m.Chaos(context.Background(), "fp", ChaosOpts{Seed: 43, Workers: 2, SlowJobDelay: 50 * time.Millisecond, Out: &b})
	if err != nil {
		t.Fatalf("seed 43: %v\n%s", err, b.String())
	}
	if rc.Fingerprint == ra.Fingerprint {
		t.Errorf("different seeds share fingerprint %s", ra.Fingerprint)
	}
}
