#!/bin/sh
# chaos_gate.sh — the fault-injection/self-healing gate. Three layers:
#
#  1. The robustness suite under the race detector: the deterministic
#     fault schedule itself (pure function of seed/site/index), breaker
#     half-open recovery on a fake clock, concurrent readers self-healing
#     one corrupt blob, 429/Retry-After backoff in both HTTP clients,
#     per-client rate limiting, coordinator quarantine/revival, a lease
#     expiry racing a checkpoint publish, and the seeded fleet harness's
#     determinism property (each seed's run, twice, writes the same
#     journal, manifest and coordinator log, and ends every job as the
#     clean run does).
#
#  2. A full `marshal chaos` run over real binaries: a loopback 3-worker
#     fleet under the pinned default schedule (seed 1) with pre-planted
#     corrupt blobs, a flaky worker, and a slow straggler. The run must
#     report bit-identical cycles/exit/console vs the clean baseline,
#     at least one blob self-heal, at least one worker quarantine, and at
#     least one steal of a lease queued behind the straggler — all
#     asserted off the `chaos: metric` lines.
#
#  3. Replayability: `-schedule-only` for one seed printed twice must be
#     byte-identical, and a different seed must print a different
#     fingerprint.
set -e
cd "$(dirname "$0")/.."

echo "== chaos robustness suite (-race, -count=1)"
go test -race -count=1 \
    -run 'Chaos|Schedule|Transport|StoreFaults|PlantCorrupt|Breaker|SelfHeal|429|Throttle|TokenBucket|MaxInFlight|Quarantine|Revive|LeaseExpiry|RateLimit|FleetReplaysFromSeed' \
    ./internal/chaos/ ./internal/ratelimit/ ./internal/cas/... ./internal/launcher/remote/ ./internal/core/

echo "== loopback chaos fleet (marshal chaos, pinned seed)"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

go build -o "$TMP" ./cmd/marshal ./cmd/workgen
"$TMP/workgen" -jobs 6 -out "$TMP/wl" >/dev/null

OUT="$TMP/chaos.out"
if ! "$TMP/marshal" -workdir "$TMP/work" -workload-dirs "$TMP/wl" \
    chaos -seed 1 parjobs >"$OUT" 2>&1; then
    cat "$OUT"
    echo "chaos_gate.sh: FAIL (chaos run did not survive the fault schedule)"
    exit 1
fi
cat "$OUT"

if ! grep -q "chaos: PASS" "$OUT"; then
    echo "chaos_gate.sh: FAIL (no PASS line)"
    exit 1
fi

# metric NAME must be present with a value >= 1.
require_metric() {
    VAL="$(awk -v name="$1" '$1 == "chaos:" && $2 == "metric" && $3 == name { print $4 }' "$OUT")"
    if [ -z "$VAL" ]; then
        echo "chaos_gate.sh: FAIL (metric $1 not reported)"
        exit 1
    fi
    if ! awk -v v="$VAL" 'BEGIN { exit !(v + 0 >= 1) }'; then
        echo "chaos_gate.sh: FAIL (metric $1 = $VAL, want >= 1)"
        exit 1
    fi
}
# metric NAME must be present (any value — e.g. a breaker that recovered
# back to closed reports 0).
require_metric_line() {
    if ! awk -v name="$1" '$1 == "chaos:" && $2 == "metric" && $3 == name { found = 1 } END { exit !found }' "$OUT"; then
        echo "chaos_gate.sh: FAIL (metric $1 not reported)"
        exit 1
    fi
}

require_metric cas_blobs_healed_total
require_metric remote_worker_quarantines_total
require_metric remote_steals_total
require_metric chaos_http_faults_total
require_metric_line cas_remote_breaker_state
require_metric_line remote_workers_quarantined

echo "== schedule replayability (-schedule-only)"
"$TMP/marshal" -workdir "$TMP/work" chaos -schedule-only -seed 5 >"$TMP/sched-a"
"$TMP/marshal" -workdir "$TMP/work" chaos -schedule-only -seed 5 >"$TMP/sched-b"
if ! cmp -s "$TMP/sched-a" "$TMP/sched-b"; then
    echo "chaos_gate.sh: FAIL (same seed printed two different schedules)"
    diff "$TMP/sched-a" "$TMP/sched-b" | head -20
    exit 1
fi
"$TMP/marshal" -workdir "$TMP/work" chaos -schedule-only -seed 6 >"$TMP/sched-c"
if cmp -s "$TMP/sched-a" "$TMP/sched-c"; then
    echo "chaos_gate.sh: FAIL (seeds 5 and 6 printed identical schedules)"
    exit 1
fi

echo "chaos_gate.sh: PASS"
